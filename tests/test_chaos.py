"""The chaos differential: a torn checkpoint journal must be invisible.

``chaos_campaign`` computes the undisturbed outcome, reruns it with a
live checkpoint journal, tears the journal's final record and resumes
from what is left -- and demands a byte-equal serialized result, with a
journaled answer actually lost to the tear.  These tests drive the
campaign end to end (library and CLI) and pin the unit behaviour of the
fault injector itself.
"""

import re

import pytest

from repro.cli import main
from repro.faults.chaos import chaos_campaign, truncate_tail
from repro.protocols.consensus import CommitAdoptRounds, TasConsensus


def drop_only_the_newline(path, drop_bytes):
    """A tear too shallow to lose a record: the final line still parses."""
    return truncate_tail(path, drop_bytes=1)


class TestInjectors:
    def test_truncate_tail(self, tmp_path):
        path = tmp_path / "journal"
        path.write_bytes(b"0123456789")
        assert truncate_tail(path, drop_bytes=3) == 7
        assert path.read_bytes() == b"0123456"
        assert truncate_tail(path, drop_bytes=99) == 0


class TestChaosCampaign:
    # At seeds 0 and 7, seed % 7 == 0: the tear must still cut into the
    # final record, not just its newline.
    @pytest.mark.parametrize("seed", [0, 7])
    def test_all_scenarios_byte_equal(self, tmp_path, seed):
        rows = chaos_campaign(
            CommitAdoptRounds(3), tmp_path, seed=seed,
            max_configs=20_000, max_depth=12,
        )
        [row] = rows
        assert row.scenario == "journal-truncation"
        assert row.ok, row.detail
        # The fault actually fired: the resume lost a journaled answer.
        assert row.injected
        recovered, journaled = map(int, re.search(
            r"resumed from (\d+) of (\d+) journaled answers", row.detail
        ).groups())
        assert recovered < journaled

    def test_scenario_without_a_fault_to_inject_is_not_ok(
        self, tmp_path, monkeypatch
    ):
        # A tear that loses no record lets the resume replay every
        # answer; a pass here would claim a fault stayed invisible that
        # never happened.
        monkeypatch.setattr(
            "repro.faults.chaos.truncate_tail", drop_only_the_newline
        )
        [row] = chaos_campaign(TasConsensus(2), tmp_path)
        assert not row.ok
        assert not row.injected
        assert "vacuous" in row.detail
        assert "resumed from 2 of 2 journaled answers" in row.detail


class TestChaosCli:
    def test_chaos_command_exit_zero(self, tmp_path, capsys):
        rc = main([
            "chaos", "rounds:3",
            "--seed", "0",
            "--max-configs", "20000",
            "--max-depth", "12",
            "--workdir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "journal-truncation" in out
        assert "all byte-equal" in out

    def test_chaos_command_fails_a_vacuous_scenario(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.faults.chaos.truncate_tail", drop_only_the_newline
        )
        rc = main(["chaos", "tas:2", "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 2, out
        assert "vacuous" in out
        assert "all byte-equal" not in out

    def test_chaos_rejects_unknown_scenario_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "tas:2", "--scenarios", "bogus"])
