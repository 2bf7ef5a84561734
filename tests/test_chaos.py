"""The chaos differential: injected runtime faults must be invisible.

``chaos_campaign`` computes the undisturbed outcome, then re-runs the
campaign with a corrupted cache entry and with a truncated checkpoint
journal -- and demands byte-equal serialized results every time, with
a fault actually injected.  These tests drive the campaign end to end
(library and CLI) and pin the unit behaviour of the fault injectors
themselves.
"""

import pytest

from repro.cli import main
from repro.faults.chaos import (
    chaos_campaign,
    corrupt_cache_entry,
    truncate_tail,
)
from repro.protocols.consensus import CommitAdoptRounds, TasConsensus


class TestInjectors:
    def test_corrupt_cache_entry_without_entries(self, tmp_path):
        assert corrupt_cache_entry(tmp_path) is None

    def test_corrupt_cache_entry_flips_one_byte(self, tmp_path):
        victim = tmp_path / "entry.json"
        victim.write_text('{"answer": true}')
        before = victim.read_bytes()
        assert corrupt_cache_entry(tmp_path, seed=3) == victim
        after = victim.read_bytes()
        assert len(before) == len(after)
        assert sum(a != b for a, b in zip(before, after)) == 1

    def test_truncate_tail(self, tmp_path):
        path = tmp_path / "journal"
        path.write_bytes(b"0123456789")
        assert truncate_tail(path, drop_bytes=3) == 7
        assert path.read_bytes() == b"0123456"
        assert truncate_tail(path, drop_bytes=99) == 0


class TestChaosCampaign:
    def test_all_scenarios_byte_equal(self, tmp_path):
        # rounds:3 stores cache entries (n=2 protocols answer every
        # oracle query through the solo-probe fast path and cache
        # nothing).
        rows = chaos_campaign(
            CommitAdoptRounds(3), tmp_path, seed=0,
            max_configs=20_000, max_depth=12,
        )
        verdicts = {row.scenario: row for row in rows}
        assert set(verdicts) == {"cache-corruption", "journal-truncation"}
        for scenario, row in verdicts.items():
            assert row.ok, f"{scenario}: {row.detail}"
            # The fault actually fired: the differential is not vacuous.
            assert row.injected, scenario

    def test_scenario_without_a_fault_to_inject_is_not_ok(self, tmp_path):
        # tas:2 never reaches the cache, so there is no entry to corrupt;
        # a pass here would claim a fault stayed invisible that never
        # happened.
        [row] = chaos_campaign(
            TasConsensus(2), tmp_path, scenarios=["cache-corruption"]
        )
        assert not row.ok
        assert not row.injected
        assert "vacuous" in row.detail

    def test_unknown_scenario_reported_not_crashed(self, tmp_path):
        rows = chaos_campaign(
            TasConsensus(2), tmp_path, scenarios=["no-such-fault"]
        )
        assert len(rows) == 1
        assert not rows[0].ok
        assert "unknown scenario" in rows[0].detail


class TestChaosCli:
    def test_chaos_command_exit_zero(self, tmp_path, capsys):
        rc = main([
            "chaos", "rounds:3",
            "--seed", "0",
            "--scenarios", "cache-corruption",
            "--max-configs", "20000",
            "--max-depth", "12",
            "--workdir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "cache-corruption" in out
        assert "all byte-equal" in out

    def test_chaos_command_fails_a_vacuous_scenario(self, tmp_path, capsys):
        rc = main(["chaos", "tas:2", "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 2, out
        assert "vacuous" in out
        assert "all byte-equal" not in out

    def test_chaos_scenario_subset(self, tmp_path, capsys):
        rc = main([
            "chaos", "tas:2",
            "--scenarios", "journal-truncation",
            "--workdir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "journal-truncation" in out
        assert "cache-corruption" not in out

    def test_chaos_rejects_unknown_scenario_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "tas:2", "--scenarios", "bogus"])
