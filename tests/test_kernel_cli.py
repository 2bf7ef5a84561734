"""CLI surface of the compiled kernel: one engine default and `repro stats`.

The engine contract: there is no engine flag.  Every command explores
on the compiled kernel, the library entry points default to the same
engine, and the reference interpreter is reached only by building an
:class:`~repro.model.system.InterpretedSystem` -- swapping it in for
``repro.cli.System`` prints byte-identical reports and exit codes.
``repro stats`` renders the kernel table from a traced run and guards
every derived row with "n/a" on journals that never compiled anything.
"""

import json

import pytest

import repro.cli
from repro.cli import main
from repro.model.system import InterpretedSystem
from repro.obs import parse_journal


def run_cli(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestAdversaryEngineBySystemType:
    def test_compiled_and_interp_reports_are_byte_identical(
        self, capsys, monkeypatch
    ):
        rc_c, out_c = run_cli(["adversary", "rounds:3"], capsys)
        monkeypatch.setattr(repro.cli, "System", InterpretedSystem)
        rc_i, out_i = run_cli(["adversary", "rounds:3"], capsys)
        assert (rc_c, out_c) == (rc_i, out_i)
        assert rc_c == 0

    def test_compiled_run_traces_compilation(self, tmp_path, capsys):
        journal = tmp_path / "compiled.jsonl"
        rc, _ = run_cli(
            ["adversary", "rounds:3", "--trace-out", str(journal)], capsys
        )
        assert rc == 0
        records = parse_journal(journal)
        compiles = [
            r for r in records
            if r["type"] == "event" and r["name"] == "kernel.compiled"
        ]
        assert compiles
        counters = records[-1]["data"]["counters"]
        assert counters.get("kernel.compiles", 0) >= 1
        assert counters.get("kernel.fallbacks", 0) == 0

    def test_interp_run_never_compiles(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(repro.cli, "System", InterpretedSystem)
        journal = tmp_path / "interp.jsonl"
        rc, _ = run_cli(
            ["adversary", "rounds:3", "--trace-out", str(journal)], capsys
        )
        assert rc == 0
        counters = parse_journal(journal)[-1]["data"]["counters"]
        assert counters.get("kernel.compiles", 0) == 0
        assert counters.get("kernel.fallback.system-subclass", 0) >= 1


class TestOneDefault:
    """The library and the CLI run the same engine by default."""

    def test_library_default_compiles(self):
        from repro.core.theorem import space_lower_bound
        from repro.model.system import System
        from repro.obs import MetricsRegistry, observe
        from repro.protocols.consensus import CommitAdoptRounds

        registry = MetricsRegistry()
        with observe(metrics=registry):
            space_lower_bound(System(CommitAdoptRounds(3)))
        counters = registry.snapshot()["counters"]
        assert counters.get("kernel.compiles", 0) >= 1
        assert counters.get("kernel.fallbacks", 0) == 0

    def test_chaos_default_compiles(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc, _ = run_cli(
            [
                "chaos", "rounds:3", "--max-configs", "20000",
                "--max-depth", "12", "--metrics-out", str(metrics),
            ],
            capsys,
        )
        assert rc == 0
        counters = json.loads(metrics.read_text("utf-8"))["counters"]
        assert counters.get("kernel.compiles", 0) >= 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["adversary", "rounds:3", "--por"],
            ["adversary", "rounds:3", "--kernel", "interp"],
            ["adversary", "rounds:3", "--no-incremental"],
            ["audit", "rounds:2", "--kernel", "interp"],
            ["fuzz", "run", "--kernel", "interp"],
            ["fuzz", "zoo", "replay", "--kernel", "interp"],
        ],
    )
    def test_engine_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStatsKernelTable:
    def test_kernel_table_from_compiled_run(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        rc, _ = run_cli(
            ["adversary", "rounds:3", "--trace-out", str(journal)], capsys,
        )
        assert rc == 0
        rc, out = run_cli(["stats", str(journal)], capsys)
        assert rc == 0
        assert "kernel" in out
        compiled_row = next(
            l for l in out.splitlines() if l.startswith("programs compiled")
        )
        assert not compiled_row.rstrip().endswith("0")
        batch_row = next(
            l for l in out.splitlines() if l.startswith("mean batch size")
        )
        assert not batch_row.rstrip().endswith("n/a")

    def test_kernel_table_na_on_idle_journal(self, tmp_path, capsys):
        """A journal that never compiled anything renders zeros and
        "n/a" -- no division, no KeyError."""
        journal = tmp_path / "idle.jsonl"
        record = {
            "v": 1,
            "t": 0.0,
            "run": "idle",
            "type": "metrics",
            "name": "metrics",
            "data": {"counters": {}, "gauges": {}, "histograms": {}},
        }
        journal.write_text(json.dumps(record) + "\n", "utf-8")
        rc, out = run_cli(["stats", str(journal)], capsys)
        assert rc == 0
        for row in ("mean batch size", "fallback reasons"):
            line = next(l for l in out.splitlines() if l.startswith(row))
            assert line.rstrip().endswith("n/a"), line
        for row in (
            "programs compiled",
            "batch explorations",
            "spill segments written",
            "rows spilled",
            "interpreter fallbacks",
        ):
            line = next(l for l in out.splitlines() if l.startswith(row))
            assert line.rstrip().endswith("0"), line

    def test_kernel_table_lists_fallback_reasons(self, tmp_path, capsys):
        journal = tmp_path / "fellback.jsonl"
        record = {
            "v": 1,
            "t": 0.0,
            "run": "fellback",
            "type": "metrics",
            "name": "metrics",
            "data": {
                "counters": {
                    "kernel.fallbacks": 2,
                    "kernel.fallback.compile-error": 1,
                    "kernel.fallback.system-subclass": 1,
                },
                "gauges": {},
                "histograms": {},
            },
        }
        journal.write_text(json.dumps(record) + "\n", "utf-8")
        rc, out = run_cli(["stats", str(journal)], capsys)
        assert rc == 0
        reasons = next(
            l for l in out.splitlines() if l.startswith("fallback reasons")
        )
        assert "compile-error" in reasons
        assert "system-subclass" in reasons
