"""Correctness tests for the consensus protocols (E2/E3 foundations)."""

import itertools

import pytest

from repro.analysis.checker import (
    check_consensus_exhaustive,
    check_consensus_random,
    check_solo_termination,
)
from repro.faults.crash import check_consensus_crashes
from repro.model.system import System
from repro.protocols.consensus import (
    CasConsensus,
    CommitAdoptRounds,
    KSetPartition,
    OptimisticOneRegister,
    SplitBrainConsensus,
    TasConsensus,
    shared_register_rounds,
)


def binary_inputs(n):
    return list(itertools.product((0, 1), repeat=n))


def assert_survivors_finish(system, inputs):
    """Every survivor of every crash plan finishes solo from every
    reachable configuration, and the graph is exhausted."""
    result = check_consensus_crashes(system, inputs)
    assert result.ok, result.first_violation()
    assert result.exhaustive


class TestCasConsensus:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_binary(self, n):
        protocol = CasConsensus(n)
        system = System(protocol)
        for inputs in binary_inputs(n):
            result = check_consensus_exhaustive(system, inputs)
            assert result.ok, result.first_violation()
            assert result.exhaustive
            assert_survivors_finish(system, inputs)

    def test_random_larger(self):
        system = System(CasConsensus(8))
        result = check_consensus_random(
            system, [i % 2 for i in range(8)], runs=20, schedule_length=100
        )
        assert result.ok, result.first_violation()

    def test_solo_decides_own_value(self):
        system = System(CasConsensus(3))
        config = system.initial_configuration([1, 0, 0])
        config, _ = system.solo_run(config, 0, max_steps=10)
        assert system.decision(config, 0) == 1


class TestTasConsensus:
    def test_exhaustive_binary(self):
        system = System(TasConsensus())
        for inputs in binary_inputs(2):
            result = check_consensus_exhaustive(system, inputs)
            assert result.ok, result.first_violation()
            assert_survivors_finish(system, inputs)

    def test_rejects_other_n(self):
        with pytest.raises(ValueError):
            TasConsensus(3)


class TestCommitAdoptRounds:
    def test_solo_termination(self):
        for n in (2, 3, 4):
            system = System(CommitAdoptRounds(n))
            result = check_solo_termination(system, [0] * n, max_steps=20 * n)
            assert result.ok, result.first_violation()

    @pytest.mark.parametrize("inputs", binary_inputs(2))
    def test_exhaustive_two_processes(self, inputs):
        system = System(CommitAdoptRounds(2))
        result = check_consensus_exhaustive(
            system, list(inputs), max_configs=500_000
        )
        assert result.ok, result.first_violation()
        assert result.exhaustive

    def test_bounded_three_processes_mixed(self):
        # The 3-process reachable graph is far beyond exhaustive reach
        # (rounds race without bound); bounded verification checks a
        # large prefix of it.
        system = System(CommitAdoptRounds(3))
        result = check_consensus_exhaustive(
            system, [0, 1, 1], max_configs=60_000, strict=False
        )
        assert result.ok, result.first_violation()
        assert not result.exhaustive
        assert "bounded verification" in result.note

    def test_random_medium(self):
        system = System(CommitAdoptRounds(5))
        result = check_consensus_random(
            system, [0, 1, 0, 1, 1], runs=30, schedule_length=400, seed=7
        )
        assert result.ok, result.first_violation()

    def test_uses_n_registers(self):
        assert CommitAdoptRounds(6).num_objects == 6


class TestFaultyProtocols:
    def test_split_brain_violates_agreement(self):
        system = System(SplitBrainConsensus(2))
        result = check_consensus_exhaustive(system, [0, 1])
        assert not result.ok
        assert result.first_violation().kind == "agreement"

    def test_optimistic_violates_agreement(self):
        system = System(OptimisticOneRegister(2))
        result = check_consensus_exhaustive(system, [0, 1])
        assert not result.ok
        assert result.first_violation().kind == "agreement"

    def test_violation_witness_replays(self):
        system = System(SplitBrainConsensus(2))
        result = check_consensus_exhaustive(system, [0, 1])
        witness = result.first_violation().schedule
        config = system.initial_configuration([0, 1])
        config, _ = system.run(config, witness)
        assert len(system.decided_values(config)) > 1

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
    def test_shared_register_rounds_break(self, n, k):
        system = System(shared_register_rounds(n, k))
        result = check_consensus_exhaustive(
            system, [0] + [1] * (n - 1), max_configs=400_000
        )
        assert not result.ok

    def test_shared_register_rejects_full_width(self):
        with pytest.raises(ValueError):
            shared_register_rounds(3, 3)


class TestKSetPartition:
    def test_register_count_matches_brs15(self):
        for n, k in [(4, 2), (5, 3), (6, 1)]:
            assert KSetPartition(n, k).num_objects == n - k + 1

    def test_at_most_k_values_random(self):
        n, k = 5, 2
        system = System(KSetPartition(n, k))
        inputs = list(range(n))  # all distinct: worst case for k-agreement
        result = check_consensus_random(
            system, inputs, k=k, runs=25, schedule_length=300, seed=3
        )
        assert result.ok, result.first_violation()

    def test_exhaustive_small(self):
        system = System(KSetPartition(3, 2))
        result = check_consensus_exhaustive(
            system, [2, 0, 1], k=2, max_configs=500_000
        )
        assert result.ok, result.first_violation()

    def test_k_equals_one_is_consensus(self):
        protocol = KSetPartition(3, 1)
        assert protocol.num_objects == 3
        system = System(protocol)
        result = check_consensus_random(
            system, [0, 1, 1], k=1, runs=10, schedule_length=200
        )
        assert result.ok, result.first_violation()

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KSetPartition(3, 0)
        with pytest.raises(ValueError):
            KSetPartition(3, 4)
