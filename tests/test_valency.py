"""Tests for the refined valency oracle (Definition 1, Propositions 1-2)."""

import pytest

from repro.errors import AdversaryError, ExplorationLimitError
from repro.core.valency import (
    Valence,
    ValencyOracle,
    initial_bivalent_configuration,
)
from repro.faults.resume import JournaledOracle, QueryJournal
from repro.model.system import System
from repro.protocols.consensus import (
    CasConsensus,
    CommitAdoptRounds,
    SplitBrainConsensus,
    TasConsensus,
)


@pytest.fixture
def cas3():
    system = System(CasConsensus(3))
    return system, ValencyOracle(system)


class TestDefinition1:
    def test_initial_all_processes_bivalent(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        assert oracle.is_bivalent(config, frozenset({0, 1, 2}))

    def test_singleton_univalent_on_own_input(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        assert oracle.is_univalent(config, frozenset({0}), 0)
        assert oracle.is_univalent(config, frozenset({1}), 1)

    def test_after_winner_everything_univalent(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        config, _ = system.solo_run(config, 1, max_steps=10)  # p1 wins with 1
        for pids in [{0}, {2}, {0, 2}, {0, 1, 2}]:
            assert oracle.is_univalent(config, frozenset(pids), 1)

    def test_empty_set_rejected(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        with pytest.raises(ValueError):
            oracle.can_decide(config, frozenset(), 0)

    def test_witness_replays_to_decision(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        witness = oracle.witness(config, frozenset({1, 2}), 1)
        final, _ = system.run(config, witness)
        assert 1 in system.decided_values(final)

    def test_witness_for_undecidable_value_raises(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 0, 0])
        with pytest.raises(AdversaryError):
            oracle.witness(config, frozenset({0}), 1)


class TestProposition1:
    """The four easy consequences of Definition 1."""

    def test_i_some_value_decidable(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        for pids in [{0}, {1}, {2}, {0, 1}, {0, 1, 2}]:
            assert oracle.some_decidable_value(config, frozenset(pids)) in (0, 1)

    def test_ii_supersets_inherit_decidability(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        for value in (0, 1):
            if oracle.can_decide(config, frozenset({1}), value):
                assert oracle.can_decide(config, frozenset({0, 1}), value)
                assert oracle.can_decide(config, frozenset({0, 1, 2}), value)

    def test_iii_subsets_of_univalent_sets_univalent(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([1, 1, 1])
        assert oracle.is_univalent(config, frozenset({0, 1, 2}), 1)
        for pids in [{0}, {1}, {0, 2}]:
            assert oracle.is_univalent(config, frozenset(pids), 1)

    def test_iv_after_decision_univalent(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        witness = oracle.witness(config, frozenset({0, 1, 2}), 0)
        final, _ = system.run(config, witness)
        assert oracle.is_univalent(final, frozenset({0, 1, 2}), 0)


class TestProposition2:
    @pytest.mark.parametrize(
        "protocol", [CasConsensus(2), CasConsensus(4), TasConsensus()]
    )
    def test_initial_bivalent_configuration(self, protocol):
        system = System(protocol)
        config, p0, p1 = initial_bivalent_configuration(system)
        oracle = ValencyOracle(system)
        assert oracle.is_univalent(config, frozenset({p0}), 0)
        assert oracle.is_univalent(config, frozenset({p1}), 1)
        assert oracle.is_bivalent(config, frozenset({p0, p1}))

    def test_works_on_round_protocol(self):
        system = System(CommitAdoptRounds(3))
        config, p0, p1 = initial_bivalent_configuration(system)
        assert (p0, p1) == (0, 1)


class TestValenceClassification:
    def test_valence_enum(self, cas3):
        system, oracle = cas3
        mixed = system.initial_configuration([0, 1, 0])
        assert oracle.valence(mixed, frozenset({0, 1})) is Valence.BIVALENT
        assert oracle.valence(mixed, frozenset({0})) is Valence.ZERO
        assert oracle.valence(mixed, frozenset({1})) is Valence.ONE

    def test_broken_protocol_shows_bivalence_after_decision(self):
        # Split-brain: p0 can decide 0 solo while p1 can still decide 1 --
        # the oracle exposes the agreement violation as lingering
        # bivalence after a decision.
        system = System(SplitBrainConsensus(2))
        oracle = ValencyOracle(system)
        config = system.initial_configuration([0, 1])
        config, _ = system.solo_run(config, 0, max_steps=10)
        assert system.decision(config, 0) == 0
        assert oracle.can_decide(config, frozenset({1}), 1)


class TestOracleMechanics:
    def test_memoisation_hits(self, cas3):
        system, oracle = cas3
        config = system.initial_configuration([0, 1, 0])
        oracle.can_decide(config, frozenset({0, 1}), 0)
        before = oracle.stats["cache_hits"]
        oracle.can_decide(config, frozenset({0, 1}), 0)
        assert oracle.stats["cache_hits"] == before + 1

    def test_strict_oracle_raises_on_budget(self):
        system = System(CommitAdoptRounds(3))
        oracle = ValencyOracle(
            system, values=(0, 1, 2), max_configs=50, strict=True
        )
        config = system.initial_configuration([0, 1, 0])
        with pytest.raises(ExplorationLimitError):
            # A genuinely negative query (value 2 is never decided) needs
            # exhausting the infinite reachable graph; the solo-probe
            # fast path cannot answer it and strict mode must raise.
            oracle.can_decide(config, frozenset({0, 1, 2}), 2)

    def test_solo_probe_answers_positives_without_bfs(self):
        system = System(CommitAdoptRounds(3))
        oracle = ValencyOracle(system, max_configs=50, strict=True)
        config = system.initial_configuration([0, 1, 0])
        # Both values are decidable via plain solo runs, so even a
        # 50-config budget suffices -- no ExplorationLimitError.
        assert oracle.is_bivalent(config, frozenset({0, 1, 2}))

    def test_bounded_oracle_answers_heuristically(self):
        system = System(CommitAdoptRounds(3))
        oracle = ValencyOracle(
            system, max_configs=5_000, max_depth=40, strict=False
        )
        config = system.initial_configuration([0, 1, 1])
        # Positive answers are exact even in bounded mode.
        assert oracle.can_decide(config, frozenset({0, 1, 2}), 0)
        assert oracle.can_decide(config, frozenset({0, 1, 2}), 1)
        # Solo sets are genuinely univalent; bounded mode finds that.
        assert oracle.is_univalent(config, frozenset({0}), 0)

    def test_bounded_negative_is_cached(self):
        system = System(CommitAdoptRounds(2))
        oracle = ValencyOracle(system, max_configs=30, max_depth=4, strict=False)
        config = system.initial_configuration([0, 1])
        assert not oracle.can_decide(config, frozenset({0}), 1)
        before = oracle.stats["cache_hits"]
        assert not oracle.can_decide(config, frozenset({0}), 1)
        assert oracle.stats["cache_hits"] == before + 1


def journaled_oracle(system):
    """A journaled oracle with one answer left to replay after the
    first query (its journal holds a recorded entry twice)."""
    root = system.initial_configuration([0, 1])
    recorder = JournaledOracle(system, QueryJournal())
    recorder.can_decide(root, frozenset({0}), 0)
    recorder.close()
    return JournaledOracle(system, QueryJournal(recorder.journal.entries * 2))


class TestOracleLifecycle:
    @pytest.mark.parametrize(
        "make_oracle",
        [ValencyOracle, journaled_oracle],
        ids=["plain", "journaled"],
    )
    def test_manual_close_rejects_further_queries(self, make_oracle):
        system = System(TasConsensus(2))
        oracle = make_oracle(system)
        root = system.initial_configuration([0, 1])
        assert oracle.can_decide(root, frozenset({0}), 0)
        oracle.close()
        oracle.close()  # idempotent
        with pytest.raises(AdversaryError):
            oracle.can_decide(root, frozenset({0}), 0)

    def test_context_manager_close_rejects_further_queries(self):
        system = System(TasConsensus(2))
        root = system.initial_configuration([0, 1])
        with ValencyOracle(system) as oracle:
            assert oracle.can_decide(root, frozenset({0}), 0)
        with pytest.raises(AdversaryError):
            oracle.can_decide(root, frozenset({0}), 0)
