"""Tests for the model checker's failure-detection paths."""

import pytest

from repro.analysis.checker import (
    check_consensus_exhaustive,
    check_consensus_random,
    check_solo_termination,
)
from repro.faults.crash import check_consensus_crashes
from repro.model.program import ProgramBuilder, ProgramProtocol, anonymous_programs
from repro.model.registers import register
from repro.model.system import System


def stalling_protocol(n: int):
    """Spins forever re-reading a register that never changes."""
    builder = ProgramBuilder()
    builder.label("spin")
    builder.read(0, "x")
    builder.goto("spin")
    return ProgramProtocol(
        "staller",
        n,
        [register(0)],
        anonymous_programs(builder.build(), n),
        lambda pid, value: {"v": value},
    )


def invalid_decider(n: int):
    """Decides a value that is nobody's input (validity violation)."""
    builder = ProgramBuilder()
    builder.write(0, lambda e: e["v"])
    builder.decide("made-up")
    return ProgramProtocol(
        "invalid",
        n,
        [register(None)],
        anonymous_programs(builder.build(), n),
        lambda pid, value: {"v": value},
    )


class TestSoloTerminationDetection:
    def test_staller_flagged(self):
        system = System(stalling_protocol(2))
        result = check_solo_termination(system, [0, 1], max_steps=200)
        assert not result.ok
        assert result.first_violation().kind == "solo-termination"

    def test_exhaustive_with_solo_check_flags_staller(self):
        system = System(stalling_protocol(2))
        result = check_consensus_crashes(system, [0, 1], solo_bound=100)
        assert not result.ok
        assert result.first_violation().kind == "crash-termination"


class TestValidityDetection:
    def test_invalid_value_flagged(self):
        system = System(invalid_decider(2))
        result = check_consensus_exhaustive(system, [0, 1])
        assert not result.ok
        kinds = {violation.kind for violation in result.violations}
        assert "validity" in kinds

    def test_random_checker_also_flags(self):
        system = System(invalid_decider(3))
        result = check_consensus_random(
            system, [0, 1, 1], runs=2, schedule_length=30
        )
        assert not result.ok


class TestRandomTerminationDetection:
    def test_staller_fails_termination_requirement(self):
        system = System(stalling_protocol(2))
        with pytest.raises(Exception):
            # solo_run inside the random checker exceeds its bound.
            check_consensus_random(
                system, [0, 1], runs=1, schedule_length=10
            )

    def test_termination_can_be_waived(self):
        # With require_all_decide=False a non-deciding run is not an
        # error by itself... the staller still explodes the solo-run
        # bound, so use a protocol that halts without deciding.
        builder = ProgramBuilder()
        builder.read(0, "x")
        builder.halt()
        protocol = ProgramProtocol(
            "halter",
            2,
            [register(0)],
            anonymous_programs(builder.build(), 2),
            lambda pid, value: {},
        )
        system = System(protocol)
        result = check_consensus_random(
            system, [0, 1], runs=2, schedule_length=10,
            require_all_decide=False,
        )
        assert result.ok
        strict = check_consensus_random(
            system, [0, 1], runs=2, schedule_length=10,
            require_all_decide=True,
        )
        assert not strict.ok
        assert strict.first_violation().kind == "termination"
