"""Tests for the explorer, checkers, and report helpers."""

import pytest

from repro.errors import ExplorationLimitError
from repro.analysis.explorer import Explorer
from repro.analysis.report import format_table
from repro.model.system import InterpretedSystem, System, tape_from_bits
from repro.protocols.consensus import CasConsensus, CommitAdoptRounds


class TestExplorer:
    def test_complete_exploration_of_finite_protocol(self):
        system = System(CasConsensus(2))
        explorer = Explorer(system)
        root = system.initial_configuration([0, 1])
        result = explorer.explore(root, frozenset({0, 1}))
        assert result.complete
        assert set(result.decided) == {0, 1}

    def test_witnesses_replay(self):
        system = System(CasConsensus(3))
        explorer = Explorer(system)
        root = system.initial_configuration([0, 1, 0])
        result = explorer.explore(root, frozenset({0, 1, 2}))
        for value, witness in result.decided.items():
            final, _ = system.run(root, witness)
            assert value in system.decided_values(final)

    def test_stop_when_early_exit(self):
        system = System(CasConsensus(4))
        explorer = Explorer(system)
        root = system.initial_configuration([0, 1, 0, 1])
        result = explorer.explore(
            root, frozenset({0, 1, 2, 3}), stop_when=frozenset({0})
        )
        assert result.can_decide(0)
        assert not result.complete  # stopped early

    def test_strict_budget_raises(self):
        system = System(CommitAdoptRounds(2))
        explorer = Explorer(system, max_configs=20, strict=True)
        root = system.initial_configuration([0, 1])
        with pytest.raises(ExplorationLimitError):
            explorer.explore(root, frozenset({0, 1}))

    def test_nonstrict_budget_truncates(self):
        system = System(CommitAdoptRounds(2))
        explorer = Explorer(system, max_configs=20, strict=False)
        root = system.initial_configuration([0, 1])
        result = explorer.explore(root, frozenset({0, 1}))
        assert result.truncated
        assert not result.complete

    def test_depth_bound_truncates(self):
        system = System(CommitAdoptRounds(2))
        explorer = Explorer(system, max_depth=3, strict=False)
        root = system.initial_configuration([0, 1])
        result = explorer.explore(root, frozenset({0, 1}))
        assert result.truncated
        assert not result.complete
        assert result.visited > 1

    def test_solo_exploration_is_a_chain(self):
        system = System(CasConsensus(2))
        explorer = Explorer(system)
        root = system.initial_configuration([1, 0])
        result = explorer.explore(root, frozenset({0}))
        assert result.complete
        assert result.decided == {1: (0,)}  # one CAS step decides

    def test_reachable_count(self):
        system = System(CasConsensus(2))
        explorer = Explorer(system)
        root = system.initial_configuration([0, 1])
        assert explorer.reachable_count(root, frozenset({0})) == 2


class TestWitnessReplayRegression:
    # Pinned: BFS with sorted-pid child order always discovers these
    # exact lexicographically-least witness schedules for rounds:3 under
    # the bounded budgets -- any engine change that reorders discovery
    # breaks this test before it breaks a proof.
    PINNED = {0: (0,) * 8, 1: (1,) * 8}
    BOUNDED = dict(max_configs=20_000, max_depth=12, strict=False)

    @pytest.mark.parametrize(
        "system_class", [InterpretedSystem, System], ids=["interp", "compiled"]
    )
    def test_bfs_witnesses_are_pinned(self, system_class):
        system = system_class(CommitAdoptRounds(3))
        root = system.initial_configuration([0, 1, 0])
        explorer = Explorer(system, **self.BOUNDED)
        result = explorer.explore(root, frozenset({0, 1, 2}))
        explorer.close()
        assert result.decided == self.PINNED

    def test_pinned_schedules_replay_in_a_fresh_system(self):
        fresh = System(CommitAdoptRounds(3))
        root = fresh.initial_configuration([0, 1, 0])
        for value, schedule in self.PINNED.items():
            final, _ = fresh.run(root, schedule)
            assert value in fresh.decided_values(final)


class TestCoinTapes:
    def test_tape_controls_flips(self):
        from repro.model.program import ProgramBuilder, ProgramProtocol
        from repro.model.registers import register

        builder = ProgramBuilder()
        builder.flip("a")
        builder.flip("b")
        builder.decide(lambda e: (e["a"], e["b"]))
        protocol = ProgramProtocol(
            "flipper", 1, [register()], [builder.build()], lambda p, v: {}
        )
        system = System(protocol, tape=tape_from_bits([[1, 0]]))
        config = system.initial_configuration([None])
        final, trace = system.solo_run(config, 0, 10)
        assert system.decision(final, 0) == (1, 0)
        assert config.coins == (0,)
        assert len(trace) == 2

    def test_coin_position_tracked_in_configuration(self):
        from repro.model.program import ProgramBuilder, ProgramProtocol
        from repro.model.registers import register

        builder = ProgramBuilder()
        builder.flip("a")
        builder.write(0, lambda e: e["a"])
        builder.decide(lambda e: e["a"])
        protocol = ProgramProtocol(
            "flipper", 1, [register()], [builder.build()], lambda p, v: {}
        )
        system = System(protocol, tape=tape_from_bits([[1]]))
        config = system.initial_configuration([None])
        config, _ = system.step(config, 0)
        assert config.coins == (1,)


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(
            "demo", ["name", "value"], [["a", 1], ["long-name", 22]]
        )
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_note_appended(self):
        text = format_table("t", ["x"], [[1]], note="bounded")
        assert text.endswith("note: bounded")
