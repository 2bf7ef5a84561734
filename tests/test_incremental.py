"""Unit tests for the incremental valency engine.

The engine (:mod:`repro.core.incremental`) memoises pure model
functions, so its entire contract is *equality with the direct
functions* -- every memoised answer must match what a fresh
``System``/``Protocol`` call returns -- plus the lifecycle rules of the
interning arena and the frontier-reuse index.
"""

import pickle

import pytest

from repro.core.incremental import IncrementalEngine
from repro.core.valency import ValencyOracle
from repro.errors import AdversaryError
from repro.model.configuration import Configuration, ConfigurationInterner
from repro.model.system import System
from repro.protocols.consensus import CommitAdoptRounds, TasConsensus


def walk(system, root, pid_cycle, steps):
    """Deterministic execution: cycle through ``pid_cycle`` skipping
    disabled processes; yields every configuration reached."""
    cursor = root
    for index in range(steps):
        pid = pid_cycle[index % len(pid_cycle)]
        if not system.enabled(cursor, pid):
            continue
        cursor, _ = system.step(cursor, pid)
        yield cursor, pid


class TestInterner:
    def test_structurally_equal_configs_intern_to_one_instance(self):
        interner = ConfigurationInterner()
        a = Configuration(("s", "t"), (0, 1), (0, 0))
        b = Configuration(("s", "t"), (0, 1), (0, 0))
        assert a is not b
        assert interner.intern(a) is interner.intern(b)
        assert interner.hits == 1 and interner.misses == 1

    def test_intern_parts_agrees_with_intern(self):
        interner = ConfigurationInterner()
        a = interner.intern(Configuration(("s",), (0,), (0,)))
        assert interner.intern_parts(("s",), (0,), (0,)) is a
        fresh = interner.intern_parts(("u",), (1,), (0,))
        assert interner.intern(Configuration(("u",), (1,), (0,))) is fresh

    def test_clear_bumps_generation(self):
        interner = ConfigurationInterner()
        config = interner.intern(Configuration(("s",), (0,), (0,)))
        assert config in interner
        generation = interner.generation
        interner.clear()
        assert interner.generation == generation + 1
        assert config not in interner

    def test_overflow_clears_wholesale(self):
        interner = ConfigurationInterner(max_size=2)
        for value in range(3):
            interner.intern(Configuration(("s",), (value,), (0,)))
        assert interner.generation == 1
        assert len(interner) == 1


class TestEngineAgreesWithSystem:
    """Every memoised function equals the direct one, hit or miss."""

    @pytest.mark.parametrize(
        "protocol, inputs",
        [
            (CommitAdoptRounds(3), [0, 1, 0]),
            (TasConsensus(2), [0, 1]),
        ],
        ids=["rounds:3", "tas:2"],
    )
    def test_step_poised_decisions_match(self, protocol, inputs):
        system = System(protocol)
        engine = IncrementalEngine(system)
        root = system.initial_configuration(inputs)
        n = protocol.n
        # Two passes over the same executions: the first populates the
        # memos, the second is served from them -- both must agree with
        # the direct system calls.
        for _ in range(2):
            for cycle in ([0], list(range(n)), [n - 1, 0]):
                cursor = engine.intern(root)
                for expected, pid in walk(system, root, cycle, 40):
                    assert engine.poised(cursor, pid) == system.poised(
                        cursor, pid
                    )
                    cursor = engine.step(cursor, pid)
                    assert cursor == expected
                    assert engine.decided_values(
                        cursor
                    ) == system.decided_values(cursor)
                    for p in range(n):
                        assert engine.decision(cursor, p) == system.decision(
                            cursor, p
                        )

    def test_successors_are_interned(self):
        system = System(CommitAdoptRounds(2))
        engine = IncrementalEngine(system)
        root = engine.intern(system.initial_configuration([0, 1]))
        first = engine.step(root, 0)
        second = engine.step(root, 0)
        assert first is second

    @pytest.mark.parametrize(
        "protocol, inputs",
        [
            (CommitAdoptRounds(3), [0, 1, 0]),
            (TasConsensus(2), [0, 1]),
        ],
        ids=["rounds:3", "tas:2"],
    )
    def test_query_key_matches_protocol(self, protocol, inputs):
        system = System(protocol)
        engine = IncrementalEngine(system)
        root = system.initial_configuration(inputs)
        pid_sets = [
            frozenset({0}),
            frozenset(range(protocol.n)),
        ]
        cursor = engine.intern(root)
        for _ in range(2):  # second pass hits the id-keyed memo
            for pids in pid_sets:
                assert engine.query_key(
                    cursor, pids
                ) == protocol.canonical_query_key(cursor, pids)
        for expected, pid in walk(system, root, [0, 1], 25):
            cursor = engine.step(cursor, pid)
            for pids in pid_sets:
                assert engine.query_key(
                    cursor, pids
                ) == protocol.canonical_query_key(cursor, pids)

    def test_clear_releases_and_stays_correct(self):
        system = System(TasConsensus(2))
        engine = IncrementalEngine(system)
        root = engine.intern(system.initial_configuration([0, 1]))
        succ = engine.step(root, 0)
        engine.clear()
        root = engine.intern(system.initial_configuration([0, 1]))
        assert engine.step(root, 0) == succ


class TestFrontierReuse:
    def test_exhausted_graph_serves_negative_proofs(self):
        pids = frozenset({0})
        engine = IncrementalEngine(System(TasConsensus(2)))
        engine.register_graph(pids, ["k1", "k2"], frozenset({0}))
        assert engine.graphs_registered == 1
        # Value decided in the graph: no negative proof.
        assert not engine.prove_cannot_decide(pids, "k1", frozenset({0}))
        # Value decided nowhere in the exhausted graph: proven negative.
        assert engine.prove_cannot_decide(pids, "k2", frozenset({1}))
        assert engine.negative_proofs == 1
        # Unknown key or other pid set: no proof.
        assert not engine.prove_cannot_decide(pids, "k3", frozenset({1}))
        assert not engine.prove_cannot_decide(
            frozenset({1}), "k1", frozenset({1})
        )
        assert engine.indexed_decided(pids, "k1") == frozenset({0})

    def test_eviction_is_fifo_and_bounded(self):
        engine = IncrementalEngine(
            System(TasConsensus(2)), max_index_nodes=3
        )
        pids = frozenset({0})
        engine.register_graph(pids, ["a", "b"], frozenset({0}))
        engine.register_graph(pids, ["c", "d"], frozenset({1}))
        assert engine.index_nodes <= 3
        assert engine.indexed_decided(pids, "a") is None  # evicted
        assert engine.indexed_decided(pids, "c") == frozenset({1})

    def test_oracle_seeds_negatives_from_exhausted_graphs(self):
        system = System(TasConsensus(2))
        oracle = ValencyOracle(system, solo_probe=False)
        root = system.initial_configuration([0, 1])
        p0 = frozenset({0})
        # First negative query exhausts the {p0}-only graph from the
        # root and registers it.
        assert not oracle.can_decide(root, p0, 1)
        assert oracle._engine.graphs_registered >= 1
        # A successor inside that graph: the same negative is served by
        # the frontier-reuse index, no new search.
        inside, _ = system.step(root, 0)
        explorations = oracle.stats["explorations"]
        assert not oracle.can_decide(inside, p0, 1)
        assert oracle.stats["incremental.seeded"] >= 1
        assert oracle.stats["explorations"] == explorations
        oracle.close()

    def test_truncated_graphs_are_never_registered(self):
        system = System(CommitAdoptRounds(2))
        oracle = ValencyOracle(
            system, strict=False, max_configs=5, max_depth=3,
            solo_probe=False,
        )
        root = system.initial_configuration([0, 1])
        oracle.can_decide(root, frozenset({0, 1}), "no-such-value")
        assert oracle._engine.graphs_registered == 0
        oracle.close()


class TestOracleLifecycle:
    def test_incremental_counters_present_after_run(self):
        system = System(TasConsensus(2))
        oracle = ValencyOracle(system)
        root = system.initial_configuration([0, 1])
        oracle.can_decide(root, frozenset({0, 1}), 0)
        assert oracle.stats["incremental.cold"] >= 0
        assert oracle.stats["intern.hits"] + oracle.stats["intern.misses"] > 0
        oracle.close()

    def test_manual_close_rejects_further_queries(self):
        system = System(TasConsensus(2))
        oracle = ValencyOracle(system)
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


class TestCachedHashPickling:
    """Cached structural hashes must never travel between processes:
    ``hash()`` is salted per interpreter, so a pickled configuration
    must not carry one."""

    def test_configuration_round_trip_drops_cached_hash(self):
        config = Configuration(("s", "t"), (0, 1), (0, 0))
        hash(config)  # populate the cache
        assert "_hash" in config.__dict__
        clone = pickle.loads(pickle.dumps(config))
        assert "_hash" not in clone.__dict__
        assert clone == config

    def test_proc_state_round_trip_drops_cached_hash(self):
        system = System(CommitAdoptRounds(2))
        config = system.initial_configuration([0, 1])
        state = config.states[0]
        hash(state)
        assert "_hash" in state.__dict__
        clone = pickle.loads(pickle.dumps(state))
        assert "_hash" not in clone.__dict__
        assert clone == state
