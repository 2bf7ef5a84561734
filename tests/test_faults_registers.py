"""Faulty register models: seeded injection, determinism, negative tests.

The register-fault wrappers exist to prove the safety checkers can
actually catch damage -- a checker that never fires proves nothing.  The
tests here inject faults into *correct* protocols and demand violations.
"""

from repro.model.operations import Read, Write
from repro.model.system import InterpretedSystem, System
from repro.analysis.checker import check_consensus_exhaustive
from repro.analysis.explorer import Explorer
from repro.faults import (
    FaultyMemorySystem,
    RegisterFaultPlan,
    corruption_campaign,
    corruption_plan,
    lost_write_plan,
    stale_read_plan,
)
from repro.faults.registers import ExactKeyProtocol, _corrupt
from repro.protocols.consensus import CommitAdoptRounds, TasConsensus

from tests.test_kernel_differential import result_fingerprint


class TestCorruptValues:
    def test_corruption_preserves_shape(self):
        """Protocol automata pattern-match on reads; corrupted values must
        stay in-domain so the *checker*, not a TypeError, reports them."""
        assert _corrupt(0) == 1
        assert _corrupt(1) == 0
        assert _corrupt(True) is False
        assert isinstance(_corrupt((2, 0)), tuple)
        assert len(_corrupt((2, 0, "hi"))) == 3
        assert _corrupt((2, 0)) != (2, 0)

    def test_corruption_is_deterministic(self):
        assert _corrupt((3, 1)) == _corrupt((3, 1))


class TestFaultPlan:
    def test_stale_read_returns_initial(self):
        plan = stale_read_plan(rate=1.0)
        _, response = plan.perturb(
            0, state=7, op=Read(0), new_value=7, response=7, initial=None
        )
        assert response is None

    def test_lost_write_keeps_old_state(self):
        plan = lost_write_plan(rate=1.0)
        new_value, _ = plan.perturb(
            0, state=None, op=Write(0, 5), new_value=5, response=None,
            initial=None,
        )
        assert new_value is None

    def test_corrupt_write_flips_value(self):
        plan = corruption_plan(rate=1.0)
        new_value, _ = plan.perturb(
            0, state=None, op=Write(0, 0), new_value=0, response=None,
            initial=None,
        )
        assert new_value == 1

    def test_zero_rate_plan_is_identity(self):
        plan = RegisterFaultPlan(seed=0)
        new_value, response = plan.perturb(
            0, state=None, op=Write(0, 3), new_value=3, response=None,
            initial=None,
        )
        assert (new_value, response) == (3, None)

    def test_targets_gate_injection(self):
        plan = RegisterFaultPlan(seed=0, corrupt_rate=1.0, targets=(1,))
        untouched, _ = plan.perturb(
            0, state=None, op=Write(0, 0), new_value=0, response=None,
            initial=None,
        )
        assert untouched == 0
        corrupted, _ = plan.perturb(
            1, state=None, op=Write(1, 0), new_value=0, response=None,
            initial=None,
        )
        assert corrupted == 1

    def test_rolls_are_stable_across_calls(self):
        """Fault decisions are pure in (seed, object, state, op) -- the
        witness-replayability invariant."""
        plan = RegisterFaultPlan(seed=3, corrupt_rate=0.5)
        first = plan._roll("corrupt", 0, None, Write(0, 1))
        second = plan._roll("corrupt", 0, None, Write(0, 1))
        assert first == second
        assert 0.0 <= first < 1.0


class TestFaultyMemorySystem:
    def test_zero_rate_system_behaves_identically(self):
        protocol = TasConsensus(2)
        bare = System(protocol)
        faulty = FaultyMemorySystem(TasConsensus(2), RegisterFaultPlan())
        schedule = (0, 1, 0, 1, 0, 1, 0, 1)
        config_a, trace_a = bare.run(
            bare.initial_configuration([0, 1]), schedule, skip_halted=True
        )
        config_b, trace_b = faulty.run(
            faulty.initial_configuration([0, 1]), schedule, skip_halted=True
        )
        assert config_a.states == config_b.states
        assert config_a.memory == config_b.memory
        assert [s.response for s in trace_a] == [s.response for s in trace_b]

    def test_same_plan_same_execution(self):
        plan = corruption_plan(seed=5, rate=0.5)
        schedule = (0, 1) * 6
        runs = []
        for _ in range(2):
            system = FaultyMemorySystem(TasConsensus(2), plan)
            config, trace = system.run(
                system.initial_configuration([0, 1]), schedule,
                skip_halted=True,
            )
            runs.append((config.memory, tuple(s.response for s in trace)))
        assert runs[0] == runs[1]

    def test_corruption_is_caught_by_checker(self):
        """The headline negative test: inject corruption into a correct
        protocol, the safety checker must report a violation."""
        system = FaultyMemorySystem(TasConsensus(2), corruption_plan(rate=1.0))
        result = check_consensus_exhaustive(
            system, [0, 1], max_configs=20_000, strict=False
        )
        violation = result.first_violation()
        assert violation is not None
        assert violation.kind == "agreement"

    def test_caught_violation_witness_replays(self):
        system = FaultyMemorySystem(TasConsensus(2), corruption_plan(rate=1.0))
        result = check_consensus_exhaustive(
            system, [0, 1], max_configs=20_000, strict=False
        )
        violation = result.first_violation()
        config = system.initial_configuration([0, 1])
        final, _ = system.run(config, violation.schedule, skip_halted=True)
        assert len(system.decided_values(final)) > 1

    def test_lost_writes_are_caught(self):
        system = FaultyMemorySystem(TasConsensus(2), lost_write_plan(rate=1.0))
        result = check_consensus_exhaustive(
            system, [0, 1], max_configs=20_000, strict=False
        )
        assert not result.ok


class TestExactKeyProtocol:
    def test_round_shift_is_not_forwarded_to_either_engine(self):
        """The wrapper answers the round-shift hook pair itself, so the
        kernel dedups exactly, as the interpreter does, instead of
        quotienting by the inner protocol's rounds."""

        def explore(system_class):
            system = system_class(ExactKeyProtocol(CommitAdoptRounds(2)))
            explorer = Explorer(system, max_configs=3000, strict=False)
            root = system.initial_configuration([0, 1])
            try:
                return explorer.explore(root, frozenset({0, 1}))
            finally:
                explorer.close()

        assert result_fingerprint(explore(System)) == result_fingerprint(
            explore(InterpretedSystem)
        )


class TestCorruptionCampaign:
    def test_campaign_catches_at_least_one_plan(self):
        rows = corruption_campaign(
            [CommitAdoptRounds(2), TasConsensus(2)], rate=1.0,
            max_configs=5_000,
        )
        assert len(rows) == 6  # 2 protocols x 3 fault classes
        assert any(row.caught for row in rows)
        caught = [row for row in rows if row.caught]
        assert all("agreement" in row.detail or "validity" in row.detail
                   for row in caught)
