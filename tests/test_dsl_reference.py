"""Compiled DSL programs against the reference interpreter.

``ProgramProtocol`` runs each program as per-pc blocks; both
exploration engines call those transitions, so only a second
implementation of the instruction set can see a block bug.
``tests/dsl_reference.py`` is that implementation.  As in
``TestShiftContract``, the states come from seeded random executions
(``random_configs``) of every DSL protocol family, here with the seed
drawn by hypothesis: on each state, ``poised`` and ``transition`` must
equal the reference's, with the same value types in every ``Env``, on
the real response and on equal responses of another type.
"""

from dataclasses import fields

from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st
import pytest

from repro.cli import _CONSENSUS_FAMILIES, _OBJECT_FAMILIES, parse_protocol
from repro.errors import ProgramError
from repro.model.operations import Operation
from repro.model.process import DecidedState
from repro.model.program import (
    MAX_LOCAL_STEPS,
    ProcState,
    ProgramBuilder,
    ProgramProtocol,
)
from repro.model.registers import register
from repro.mutex import BakeryMutex, PetersonFilter, TournamentMutex
from repro.protocols.leader_election import (
    Splitter,
    SplitterElection,
    TournamentElection,
)

from tests import dsl_reference as reference
from tests.strategies import random_configs

REFERENCE = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def twins_protocol():
    """Equal values of different types meet the same names: ``y`` and
    ``z`` start as ints and are reassigned the equal bool and float;
    the register starts at ``1`` and is overwritten with bools."""
    builder = ProgramBuilder()
    builder.label("top")
    builder.read(0, "x")
    builder.assign("y", lambda e: e["x"] == 1)
    builder.assign("z", lambda e: float(e["x"] or 0))
    builder.write(0, lambda e: not e["y"])
    builder.branch_if(lambda e: e["z"] < 1, "top")
    builder.decide(lambda e: e["x"])
    program = builder.build()
    return ProgramProtocol(
        "twins",
        2,
        [register(1)],
        [program] * 2,
        lambda pid, value: {"x": value, "y": 1, "z": 0},
    )


#: Every DSL family ``repro protocols`` lists (the zoo holds table
#: protocols), the mutex and leader-election programs, and the twins.
FAMILY_SPECS = {
    "rounds": "rounds:3",
    "racing": "racing:3",
    "randomized": "randomized:3",
    "cas": "cas:3",
    "tas": "tas:2",
    "split-brain": "split-brain:3",
    "optimistic": "optimistic:3",
    "shared": "shared:3:2",
    "kset": "kset:4:2",
    "counter": "counter:3",
    "lossy-counter": "lossy-counter:4:2",
    "snapshot": "snapshot:3",
}
CASES = [
    *((lambda spec=spec: parse_protocol(spec)) for spec in FAMILY_SPECS.values()),
    lambda: PetersonFilter(2),
    lambda: TournamentMutex(2),
    lambda: BakeryMutex(2),
    lambda: Splitter(3),
    lambda: SplitterElection(3),
    lambda: TournamentElection(4),
    twins_protocol,
]
CASE_IDS = [
    *FAMILY_SPECS.values(),
    "peterson:2",
    "tournament-mutex:2",
    "bakery:2",
    "splitter:3",
    "splitter-election:3",
    "tournament-election:4",
    "twins",
]


def inputs_for(protocol):
    """Inputs 0..n-1 mod 2 (kset reads all n)."""
    if protocol.name.startswith("kset"):
        return list(range(protocol.n))
    return [pid % 2 for pid in range(protocol.n)]


def typed(value):
    """``value`` with the type of every part, so ``1`` and ``True``
    differ; an ``Env`` also keeps its iteration order."""
    if isinstance(value, ProcState):
        env = value.env
        return (
            "state",
            value.pc,
            tuple(env),
            tuple((name, typed(v)) for name, v in env.items_tuple()),
        )
    if isinstance(value, DecidedState):
        return ("decided", typed(value.value), value.halted)
    if isinstance(value, Operation):
        parts = tuple(typed(getattr(value, f.name)) for f in fields(value))
        return (type(value), parts)
    if isinstance(value, tuple):
        return (tuple, tuple(typed(v) for v in value))
    return (type(value), value)


def outcome(call, *args):
    """What ``call(*args)`` returns, typed, or the exception it raises."""
    try:
        return typed(call(*args))
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc), str(exc))


def twin(value):
    """An equal value of another type, or None if there is none."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def one_process(builder, initial=None):
    return ProgramProtocol(
        "probe",
        1,
        [register(0)],
        [builder.build()],
        lambda pid, value: dict(initial or {"x": value}),
    )


def same_outcome(protocol, method, *args):
    got = outcome(getattr(protocol, method), *args)
    want = outcome(getattr(reference, method), protocol, *args)
    assert got == want
    return got


def test_cases_cover_every_dsl_family():
    families = set(_CONSENSUS_FAMILIES) | set(_OBJECT_FAMILIES)
    assert families - {"zoo"} == set(FAMILY_SPECS)


@pytest.mark.parametrize("make", CASES, ids=CASE_IDS)
def test_initial_states_equal_reference(make):
    protocol = make()
    for pid in range(protocol.n):
        for value in (0, 1, True, 2.0, None):
            same_outcome(protocol, "initial_state", pid, value)


@pytest.mark.parametrize("make", CASES, ids=CASE_IDS)
@given(seed=st.integers(0, 2**16), data=st.data())
@REFERENCE
def test_compiled_steps_equal_reference(make, seed, data):
    protocol = make()
    inputs = inputs_for(protocol)
    system, configs = random_configs(protocol, inputs, seed, 4, 40)
    for config in configs:
        for pid, state in enumerate(config.states):
            same_outcome(protocol, "poised", pid, state)
            if not system.enabled(config, pid):
                same_outcome(protocol, "transition", pid, state, None)
                continue
            _, step = system.step(config, pid)
            instr = protocol.program(pid).instructions[state.pc]
            bound = state.env.get(getattr(instr, "dest", None))
            response = data.draw(
                st.sampled_from(
                    [step.response, twin(step.response), twin(bound), None]
                )
            )
            same_outcome(protocol, "transition", pid, state, response)


class TestErrorsRaiseWhenReached:
    """Undefined labels, falling off the end and local infinite loops
    raise the reference's ``ProgramError`` where it raises, not earlier."""

    def test_undefined_label_only_when_taken(self):
        builder = ProgramBuilder()
        builder.branch_if(lambda e: e["x"], "nowhere")
        builder.read(0, "y")
        builder.decide(lambda e: e["y"])
        builder.goto("elsewhere")  # never reached
        protocol = one_process(builder)
        start = same_outcome(protocol, "initial_state", 0, 0)
        assert start[0] == "state"
        taken = same_outcome(protocol, "initial_state", 0, 1)
        assert taken == ("raised", ProgramError, "undefined label 'nowhere'")

    def test_goto_undefined_label(self):
        builder = ProgramBuilder()
        builder.read(0, "y")
        builder.goto("nowhere")
        protocol = one_process(builder)
        state = protocol.initial_state(0, 0)
        raised = same_outcome(protocol, "transition", 0, state, 0)
        assert raised[:2] == ("raised", ProgramError)

    def test_falling_off_the_end(self):
        builder = ProgramBuilder()
        builder.assign("y", 1)
        builder.read(0, "x")
        builder.assign("y", 2)
        protocol = one_process(builder)
        state = same_outcome(protocol, "initial_state", 0, 0)
        assert state[0] == "state"
        raised = same_outcome(
            protocol, "transition", 0, protocol.initial_state(0, 0), 0
        )
        assert raised[:2] == ("raised", ProgramError)

    def test_local_infinite_loop(self):
        builder = ProgramBuilder()
        builder.label("spin")
        builder.assign("y", lambda e: e["x"])
        builder.goto("spin")
        raised = same_outcome(one_process(builder), "initial_state", 0, 0)
        assert raised[:2] == ("raised", ProgramError)

    @pytest.mark.parametrize("extra", [0, 1], ids=["below", "at"])
    def test_local_step_limit_is_exact(self, extra):
        """``1 + extra + 2 * rounds`` local instructions before the
        write: one under the limit runs, exactly the limit raises."""
        rounds = (MAX_LOCAL_STEPS - 2) // 2
        builder = ProgramBuilder()
        builder.assign("i", 0)
        for _ in range(extra):
            builder.assign("pad", 1)
        builder.label("loop")
        builder.assign("i", lambda e: e["i"] + 1)
        builder.branch_if(lambda e: e["i"] < rounds, "loop")
        builder.write(0, lambda e: e["i"])
        builder.halt()
        result = same_outcome(one_process(builder), "initial_state", 0, 0)
        assert result[0] == ("raised" if extra else "state")

    def test_operand_writing_its_mapping(self):
        def scribble(e):
            e["y"] = 1
            return 0

        builder = ProgramBuilder()
        builder.read(0, "x")
        builder.assign("z", scribble)
        builder.halt()
        protocol = one_process(builder)
        state = protocol.initial_state(0, 0)
        got = outcome(protocol.transition, 0, state, 0)
        want = outcome(reference.transition, protocol, 0, state, 0)
        # The message names the mapping's type, which differs.
        assert got[:2] == want[:2] == ("raised", TypeError)
