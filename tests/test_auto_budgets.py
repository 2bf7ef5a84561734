"""Tests for the budget-escalating adversary driver and the CLI hook."""

import pytest

import repro.faults.harness as harness
from repro.faults import run_adversary_auto
from repro.model.system import System
from repro.protocols.consensus import (
    CasConsensus,
    CommitAdoptRounds,
    RacingCounters,
    SplitBrainConsensus,
)


def count_runs(monkeypatch):
    """Record the oracle budgets of every construction the harness runs."""
    runs = []
    construct = harness.space_lower_bound

    def counted(system, verify, oracle):
        runs.append((oracle.explorer.max_configs, oracle.explorer.max_depth))
        return construct(system, verify=verify, oracle=oracle)

    monkeypatch.setattr(harness, "space_lower_bound", counted)
    return runs


class TestAutoBudgets:
    def test_succeeds_from_tiny_initial_budget(self):
        system = System(CommitAdoptRounds(3))
        outcome = run_adversary_auto(system, max_configs=200, max_depth=6)
        assert outcome.status == "certificate"
        assert outcome.certificate.bound == 2
        outcome.certificate.validate(System(CommitAdoptRounds(3)))

    def test_racing_family(self):
        outcome = run_adversary_auto(System(RacingCounters(3)))
        assert outcome.certificate.bound == 2

    def test_broken_protocol_not_retried_forever(self, monkeypatch):
        runs = count_runs(monkeypatch)
        outcome = run_adversary_auto(
            System(SplitBrainConsensus(3)), attempts=2
        )
        assert outcome.status == "violation"
        assert outcome.violation.witness
        assert runs == [(30_000, 60)]

    def test_exhausted_escalation_doubles_and_hunts_once(self, monkeypatch):
        runs = count_runs(monkeypatch)
        hunts = []
        hunt = harness.find_violation

        def counted_hunt(system):
            hunts.append(system)
            return hunt(system)

        monkeypatch.setattr(harness, "find_violation", counted_hunt)
        outcome = run_adversary_auto(
            System(CasConsensus(3)), max_configs=1, max_depth=1
        )
        assert outcome.status == "budget"
        assert runs == [(1, 1), (2, 2), (4, 4), (8, 8)]
        assert len(hunts) == 1
        assert outcome.partial.max_configs == 8
        assert outcome.partial.note.startswith("gave up after 4 oracle budgets")

    def test_cli_auto_flag(self, capsys):
        from repro.cli import main

        assert main(["adversary", "racing:3", "--auto"]) == 0
        out = capsys.readouterr().out
        assert "pins 2 distinct registers" in out


class TestCliAutoExitCodes:
    """``adversary --auto`` keeps the guarded exit-code contract."""

    @pytest.mark.parametrize("spec", ["split-brain:3", "snapshot:3"])
    def test_violation_exits_2_with_a_witness(self, spec, capsys):
        from repro.cli import main

        assert main(["adversary", spec, "--auto"]) == 2
        assert "witness schedule" in capsys.readouterr().out

    def test_violation_witness_matches_the_plain_run(self, capsys):
        from repro.cli import main

        assert main(["adversary", "split-brain:3"]) == 2
        plain = capsys.readouterr().out
        assert main(["adversary", "split-brain:3", "--auto"]) == 2
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize(
        "flags", [["--budget", "5"], ["--deadline", "10"], ["--resume"]]
    )
    def test_auto_refuses_budget_flags(self, flags, tmp_path):
        from repro.cli import main

        if flags == ["--resume"]:
            flags = ["--resume", str(tmp_path / "ckpt.json")]
        with pytest.raises(SystemExit) as exc:
            main(["adversary", "rounds:3", "--auto", *flags])
        assert "--auto" in str(exc.value.code)

    def test_exhausted_escalation_exits_3(self, capsys):
        from repro.cli import main

        argv = ["adversary", "cas:3", "--auto", "--max-configs", "1",
                "--max-depth", "1"]
        assert main(argv) == 3
        out = capsys.readouterr().out
        assert "max_configs=8, max_depth=8" in out
        assert "--auto gave up after 4 oracle budgets; last: " in out
