"""CLI surface of the compiled kernel: --kernel flags and `repro stats`.

The flag contract: ``--kernel compiled`` (the default) and ``--kernel
interp`` print byte-identical reports and exit codes on every command
that explores; ``repro stats`` renders the kernel table from a traced
run and guards every derived row with "n/a" on journals that never
compiled anything.
"""

import json

from repro.cli import main
from repro.obs import parse_journal


def run_cli(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestAdversaryKernelFlag:
    def test_compiled_and_interp_reports_are_byte_identical(self, capsys):
        rc_c, out_c = run_cli(
            ["adversary", "rounds:3", "--kernel", "compiled"], capsys
        )
        rc_i, out_i = run_cli(
            ["adversary", "rounds:3", "--kernel", "interp"], capsys
        )
        assert (rc_c, out_c) == (rc_i, out_i)
        assert rc_c == 0

    def test_compiled_run_traces_compilation(self, tmp_path, capsys):
        journal = tmp_path / "compiled.jsonl"
        rc, _ = run_cli(
            [
                "adversary", "rounds:3", "--kernel", "compiled",
                "--trace-out", str(journal),
            ],
            capsys,
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

    def test_interp_run_never_compiles(self, tmp_path, capsys):
        journal = tmp_path / "interp.jsonl"
        rc, _ = run_cli(
            [
                "adversary", "rounds:3", "--kernel", "interp",
                "--trace-out", str(journal),
            ],
            capsys,
        )
        assert rc == 0
        counters = parse_journal(journal)[-1]["data"]["counters"]
        assert counters.get("kernel.compiles", 0) == 0


class TestStatsKernelTable:
    def test_kernel_table_from_compiled_run(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        rc, _ = run_cli(
            [
                "adversary", "rounds:3", "--kernel", "compiled",
                "--trace-out", str(journal),
            ],
            capsys,
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


class TestFuzzKernelFlag:
    def test_interp_drops_the_compiled_leg(self):
        from repro.cli import _fuzz_engines

        compiled = _fuzz_engines("compiled")
        interp = _fuzz_engines("interp")
        assert any(spec.kernel == "compiled" for spec in compiled)
        assert all(spec.kernel == "interp" for spec in interp)
        assert len(interp) == len(compiled) - 1
        # The interpreted legs themselves are untouched by the flag.
        assert [s.name for s in interp] == [
            s.name for s in compiled if s.kernel == "interp"
        ]

    def test_fuzz_run_accepts_kernel_flag(self, tmp_path, capsys):
        rc, out = run_cli(
            [
                "fuzz", "run", "--count", "1", "--seed", "7",
                "--kernel", "interp",
            ],
            capsys,
        )
        assert rc == 0
        assert "fuzz campaign seed=7" in out
