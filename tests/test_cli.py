"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_protocol
from repro.protocols.consensus import CommitAdoptRounds, KSetPartition


class TestParseProtocol:
    def test_families(self):
        assert isinstance(parse_protocol("rounds:4"), CommitAdoptRounds)
        assert parse_protocol("rounds:4").n == 4
        kset = parse_protocol("kset:5:2")
        assert isinstance(kset, KSetPartition)
        assert kset.num_objects == 4

    def test_unknown_family_exits(self):
        with pytest.raises(SystemExit):
            parse_protocol("paxos:3")

    def test_bad_sizes_exit(self):
        with pytest.raises(SystemExit):
            parse_protocol("rounds:many")
        # Too many or too few sizes name the family's usage form.
        for spec, usage in (
            ("shared:3", "shared:n:k"),
            ("rounds:3:7", "rounds:n"),
            ("kset:4:2:1", "kset:n:k"),
            ("kset:4", "kset:n:k"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                parse_protocol(spec)
            assert f"expected {usage}" in str(excinfo.value), spec
        # Bare ``tas`` stays the 2-process default.
        assert parse_protocol("tas").n == 2


class TestCommands:
    def test_protocols_lists_families(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "rounds:n" in out
        assert "counter:n" in out

    def test_adversary_writes_valid_certificate(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code = main(["adversary", "rounds:3", "--out", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["kind"] == "space-bound"
        assert len(payload["registers"]) == 2
        assert main(["validate", str(path), "rounds:3"]) == 0
        out = capsys.readouterr().out
        assert "valid:" in out

    def test_validate_wrong_protocol_fails(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        main(["adversary", "rounds:3", "--out", str(path)])
        # A certificate for rounds:3 replayed against shared:3:1 must
        # fail (different register layout / behaviour).
        code = main(["validate", str(path), "shared:3:1"])
        assert code == 2
        assert "INVALID" in capsys.readouterr().out

    def test_check_ok_protocol(self, capsys):
        assert main(["check", "rounds:2", "--random-runs", "3"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_check_broken_protocol(self, capsys):
        assert main(["check", "split-brain:2"]) == 2
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "witness schedule" in out

    def test_adversary_on_broken_protocol_reports(self, capsys):
        code = main(["adversary", "split-brain:3"])
        assert code == 2
        assert "failed" in capsys.readouterr().out or True

    def test_perturb_counter(self, tmp_path, capsys):
        path = tmp_path / "jtt.json"
        assert main(["perturb", "counter:5", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["kind"] == "jtt-covering"
        assert len(payload["covered"]) == 4

    def test_perturb_lossy_counter_violates(self, capsys):
        assert main(["perturb", "lossy-counter:4:2"]) == 2
        assert "linearizability" in capsys.readouterr().out

    def test_mutex_table(self, capsys):
        assert main(["mutex", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "tournament" in out and "peterson" in out

    def test_audit_table(self, capsys):
        # A broken protocol in the audit makes the run exit 2.
        assert main(["audit", "rounds:2", "split-brain:2"]) == 2
        out = capsys.readouterr().out
        assert "space audit" in out
        assert "agreement" in out

    def test_audit_all_ok_exits_zero(self, capsys):
        assert main(["audit", "rounds:2", "tas:2"]) == 0
        assert "pinned" in capsys.readouterr().out


class TestExitCodeContract:
    """0 success, 2 violation, 3 budget/limit, 1 unexpected -- and no
    raw tracebacks for the expected failures."""

    def test_success_is_zero(self):
        assert main(["adversary", "rounds:2"]) == 0

    def test_violation_is_two(self):
        assert main(["check", "split-brain:2"]) == 2

    def test_budget_exhaustion_is_three(self, capsys):
        code = main(["adversary", "rounds:3", "--budget", "5"])
        assert code == 3
        out = capsys.readouterr().out
        assert "partial progress" in out
        assert "Traceback" not in out

    def test_no_traceback_on_violation(self, capsys):
        main(["adversary", "split-brain:3"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out
        assert "Traceback" not in captured.err


class TestFaultsCommand:
    def test_quick_campaign_passes(self, capsys):
        assert main(["faults", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "crash campaign" in out
        assert "register-fault campaign" in out
        assert "ok:" in out

    def test_broken_protocol_fails_campaign(self, capsys):
        code = main(["faults", "split-brain:2", "--quick"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out


class TestBudgetAndResumeFlags:
    def test_checkpoint_written_then_resumed(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        code = main(
            ["adversary", "rounds:3", "--budget", "5", "--resume", str(ckpt)]
        )
        assert code == 3
        assert ckpt.exists()
        assert "checkpoint written" in capsys.readouterr().out

        code = main(["adversary", "rounds:3", "--resume", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resuming:" in out
        assert "pins" in out

    def test_resume_refuses_wrong_protocol(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        main(["adversary", "rounds:3", "--budget", "5", "--resume", str(ckpt)])
        with pytest.raises(SystemExit):
            main(["adversary", "tas:2", "--resume", str(ckpt)])

    def test_audit_budget_flag_reports_partial(self, capsys):
        code = main(["audit", "rounds:3", "--budget", "5"])
        assert code == 3
        assert "budget (" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "specs",
        [["rounds:3", "split-brain:3"], ["split-brain:3", "rounds:3"]],
        ids=["budget-row-first", "violation-row-first"],
    )
    def test_audit_violation_outranks_budget_in_any_order(
        self, specs, capsys
    ):
        code = main(
            ["audit", *specs, "--budget", "5", "--max-configs", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 2, out
        assert "budget (" in out and "agreement" in out

    def test_invalid_budget_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["adversary", "rounds:3", "--budget", "0"])

    def test_stalled_resume_warns(self, tmp_path, capsys):
        """A budget below the next query's cost makes no progress; the
        CLI must say so instead of silently looping."""
        ckpt = tmp_path / "ckpt.json"
        args = ["adversary", "rounds:3", "--budget", "5",
                "--resume", str(ckpt)]
        codes = [main(args) for _ in range(3)]
        assert codes == [3, 3, 3]
        assert "no progress" in capsys.readouterr().out
