"""Unit tests for the core model: operations, registers, env, programs."""

import pickle

import pytest

from repro.errors import InvalidOperationError, ProgramError
from repro.model import (
    CompareAndSwap,
    Configuration,
    Env,
    FetchAndAdd,
    ObjectKind,
    ProgramBuilder,
    ProgramProtocol,
    Read,
    Swap,
    System,
    TestAndSet,
    Write,
    apply_operation,
    cas_object,
    faa_object,
    is_historyless,
    register,
    swap_register,
    tas_object,
)
from repro.model.process import DecidedState
from repro.protocols.consensus import CommitAdoptRounds


class TestApplyOperation:
    def test_register_read_returns_contents(self):
        state, response = apply_operation(ObjectKind.REGISTER, 42, Read(0))
        assert state == 42
        assert response == 42

    def test_register_write_overwrites(self):
        state, response = apply_operation(ObjectKind.REGISTER, 1, Write(0, 9))
        assert state == 9
        assert response is None

    def test_swap_returns_old_value(self):
        state, response = apply_operation(ObjectKind.SWAP, "old", Swap(0, "new"))
        assert state == "new"
        assert response == "old"

    def test_tas_sets_and_returns_previous(self):
        state, response = apply_operation(ObjectKind.TEST_AND_SET, 0, TestAndSet(0))
        assert state == 1
        assert response == 0
        state, response = apply_operation(ObjectKind.TEST_AND_SET, 1, TestAndSet(0))
        assert state == 1
        assert response == 1

    def test_cas_succeeds_on_match(self):
        state, response = apply_operation(ObjectKind.CAS, 5, CompareAndSwap(0, 5, 7))
        assert state == 7
        assert response == 5

    def test_cas_fails_on_mismatch(self):
        state, response = apply_operation(ObjectKind.CAS, 6, CompareAndSwap(0, 5, 7))
        assert state == 6
        assert response == 6

    def test_faa_adds_and_returns_previous(self):
        state, response = apply_operation(ObjectKind.FETCH_AND_ADD, 10, FetchAndAdd(0, 3))
        assert state == 13
        assert response == 10

    def test_write_to_cas_object_rejected(self):
        with pytest.raises(InvalidOperationError):
            apply_operation(ObjectKind.CAS, 0, Write(0, 1))

    def test_read_allowed_on_all_kinds(self):
        for kind in ObjectKind:
            state, response = apply_operation(kind, 3, Read(0))
            assert (state, response) == (3, 3)


class TestHistoryless:
    def test_registers_swap_tas_are_historyless(self):
        assert is_historyless(ObjectKind.REGISTER)
        assert is_historyless(ObjectKind.SWAP)
        assert is_historyless(ObjectKind.TEST_AND_SET)

    def test_cas_and_faa_are_not(self):
        assert not is_historyless(ObjectKind.CAS)
        assert not is_historyless(ObjectKind.FETCH_AND_ADD)

    def test_spec_helpers(self):
        assert register(3).kind is ObjectKind.REGISTER
        assert swap_register().kind is ObjectKind.SWAP
        assert tas_object().initial == 0
        assert cas_object(1).initial == 1
        assert faa_object(2).initial == 2


class TestEnv:
    def test_set_is_persistent(self):
        a = Env({"x": 1})
        b = a.set("y", 2)
        assert "y" not in a
        assert b["x"] == 1 and b["y"] == 2

    def test_set_same_value_returns_self(self):
        a = Env({"x": 1})
        assert a.set("x", 1) is a

    def test_equality_and_hash_are_structural(self):
        assert Env({"a": 1, "b": 2}) == Env({"b": 2, "a": 1})
        assert hash(Env({"a": 1})) == hash(Env({"a": 1}))

    def test_update(self):
        a = Env({"x": 1}).update({"y": 2, "x": 5})
        assert dict(a) == {"x": 5, "y": 2}


def write_then_decide_protocol():
    """One process writes its input to register 0, reads it, decides it."""
    builder = ProgramBuilder()
    builder.write(0, lambda e: e["v"])
    builder.read(0, "seen")
    builder.decide(lambda e: e["seen"])
    program = builder.build()
    return ProgramProtocol(
        "write-then-decide",
        1,
        [register(None)],
        [program],
        lambda pid, value: {"v": value},
    )


class TestProgramProtocol:
    def test_solo_run_decides_input(self):
        protocol = write_then_decide_protocol()
        system = System(protocol)
        config = system.initial_configuration([7])
        config, trace = system.solo_run(config, 0, max_steps=10)
        assert system.decision(config, 0) == 7
        assert [type(step.op).__name__ for step in trace] == ["Write", "Read"]

    def test_poised_skips_local_instructions(self):
        builder = ProgramBuilder()
        builder.assign("x", 1)
        builder.assign("y", lambda e: e["x"] + 1)
        builder.write(0, lambda e: e["y"])
        builder.halt()
        protocol = ProgramProtocol(
            "locals", 1, [register()], [builder.build()], lambda pid, v: {}
        )
        system = System(protocol)
        config = system.initial_configuration([None])
        op = system.poised(config, 0)
        assert isinstance(op, Write)
        assert op.value == 2

    def test_local_infinite_loop_raises(self):
        builder = ProgramBuilder()
        builder.label("spin")
        builder.goto("spin")
        with pytest.raises(ProgramError):
            ProgramProtocol(
                "spin", 1, [register()], [builder.build()], lambda pid, v: {}
            ).initial_state(0, None)

    def test_branching_loop_counts(self):
        builder = ProgramBuilder()
        builder.assign("i", 0)
        builder.label("loop")
        builder.write(0, lambda e: e["i"])
        builder.assign("i", lambda e: e["i"] + 1)
        builder.branch_if(lambda e: e["i"] < 3, "loop")
        builder.decide(lambda e: e["i"])
        protocol = ProgramProtocol(
            "loop3", 1, [register()], [builder.build()], lambda pid, v: {}
        )
        system = System(protocol)
        config = system.initial_configuration([None])
        config, trace = system.solo_run(config, 0, max_steps=20)
        assert system.decision(config, 0) == 3
        assert len(trace) == 3
        assert config.memory[0] == 2

    def test_decided_state_has_no_step(self):
        protocol = write_then_decide_protocol()
        assert protocol.poised(0, DecidedState(5)) is None
        assert protocol.decision(0, DecidedState(5)) == 5

    def test_undefined_label_raises(self):
        builder = ProgramBuilder()
        builder.goto("nowhere")
        with pytest.raises(ProgramError):
            ProgramProtocol(
                "bad", 1, [register()], [builder.build()], lambda pid, v: {}
            ).initial_state(0, None)

    def test_duplicate_label_raises(self):
        builder = ProgramBuilder()
        builder.label("a")
        with pytest.raises(ProgramError):
            builder.label("a")

    def test_program_count_must_match_n(self):
        builder = ProgramBuilder()
        builder.halt()
        with pytest.raises(ProgramError):
            ProgramProtocol(
                "bad", 2, [register()], [builder.build()], lambda pid, v: {}
            )


class TestSystem:
    def test_initial_configuration_shapes(self):
        protocol = write_then_decide_protocol()
        system = System(protocol)
        config = system.initial_configuration([0])
        assert config.n == 1
        assert config.memory == (None,)
        assert config.coins == (0,)

    def test_step_on_halted_raises(self):
        protocol = write_then_decide_protocol()
        system = System(protocol)
        config = system.initial_configuration([1])
        config, _ = system.solo_run(config, 0, max_steps=10)
        from repro.errors import ProcessHaltedError

        with pytest.raises(ProcessHaltedError):
            system.step(config, 0)

    def test_run_skip_halted(self):
        protocol = write_then_decide_protocol()
        system = System(protocol)
        config = system.initial_configuration([1])
        config, trace = system.run(config, [0] * 10, skip_halted=True)
        assert len(trace) == 2

    def test_wrong_input_count_raises(self):
        from repro.errors import ModelError

        protocol = write_then_decide_protocol()
        with pytest.raises(ModelError):
            System(protocol).initial_configuration([1, 2])

    def test_covered_register(self):
        protocol = write_then_decide_protocol()
        system = System(protocol)
        config = system.initial_configuration([1])
        assert system.covered_register(config, 0) == 0
        config, _ = system.step(config, 0)
        # Now poised at the read: reads cover nothing.
        assert system.covered_register(config, 0) is None

    def test_replay_determinism(self):
        protocol = write_then_decide_protocol()
        system = System(protocol)
        c1, t1 = system.run(system.initial_configuration([3]), [0, 0])
        c2, t2 = system.run(system.initial_configuration([3]), [0, 0])
        assert c1 == c2
        assert t1 == t2
        assert hash(c1) == hash(c2)


class TestIndistinguishability:
    def test_differs_only_in_other_process_state(self):
        builder = ProgramBuilder()
        builder.read(0, "x")
        builder.decide(lambda e: e["x"])
        program = builder.build()
        protocol = ProgramProtocol(
            "two-readers",
            2,
            [register(0)],
            [program, program],
            lambda pid, v: {"v": v},
        )
        system = System(protocol)
        base = system.initial_configuration([0, 1])
        moved, _ = system.step(base, 1)
        # Process 0 cannot distinguish: same memory (reads do not write),
        # same own state.
        assert base.indistinguishable_to(moved, [0])
        assert not base.indistinguishable_to(moved, [1])
        assert not base.indistinguishable_to(moved, [0, 1])


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
