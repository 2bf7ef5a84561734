"""Reference semantics of the protocol DSL: one instruction at a time.

:class:`repro.model.program.ProgramProtocol` compiles each program to
per-pc blocks.  Both exploration engines call those compiled
transitions, so no engine differential can see a block bug; this small
interpreter is what ``tests/test_dsl_reference.py`` checks them
against.  It walks the instruction list directly, evaluates every
operand on an immutable :class:`~repro.model.env.Env`, and binds each
result with ``Env.set``, which keeps an equal binding's object.
"""

from repro.errors import ProgramError
from repro.model.env import Env
from repro.model.operations import (
    CoinFlip,
    CompareAndSwap,
    FetchAndAdd,
    Marker,
    Read,
    Swap,
    TestAndSet,
    Write,
)
from repro.model.process import DecidedState, HALTED
from repro.model.program import (
    MAX_LOCAL_STEPS,
    IAssign,
    IBranchIf,
    ICompareAndSwap,
    IDecide,
    IFetchAndAdd,
    IFlip,
    IGoto,
    IHalt,
    IMarker,
    IRead,
    ISwap,
    ITestAndSet,
    IWrite,
    ProcState,
)

STEP_INSTRS = (
    IRead,
    IWrite,
    ISwap,
    ITestAndSet,
    ICompareAndSwap,
    IFetchAndAdd,
    IFlip,
    IMarker,
)


def evaluate(expr, env):
    """An operand: called on the env if callable, else a constant."""
    if callable(expr):
        return expr(env)
    return expr


def operation_for(instr, env):
    if isinstance(instr, IRead):
        return Read(int(evaluate(instr.reg, env)))
    if isinstance(instr, IWrite):
        return Write(int(evaluate(instr.reg, env)), evaluate(instr.value, env))
    if isinstance(instr, ISwap):
        return Swap(int(evaluate(instr.reg, env)), evaluate(instr.value, env))
    if isinstance(instr, ITestAndSet):
        return TestAndSet(int(evaluate(instr.reg, env)))
    if isinstance(instr, ICompareAndSwap):
        return CompareAndSwap(
            int(evaluate(instr.reg, env)),
            evaluate(instr.expected, env),
            evaluate(instr.new, env),
        )
    if isinstance(instr, IFetchAndAdd):
        return FetchAndAdd(
            int(evaluate(instr.reg, env)), int(evaluate(instr.delta, env))
        )
    if isinstance(instr, IFlip):
        return CoinFlip()
    if isinstance(instr, IMarker):
        return Marker(instr.text)
    raise ProgramError(f"instruction {instr!r} is not a step")


def instruction_at(program, pid, pc):
    if not 0 <= pc < len(program.instructions):
        raise ProgramError(
            f"pc {pc} out of range for process {pid} "
            f"(program has {len(program.instructions)} instructions; "
            "did the program fall off the end without halt/decide?)"
        )
    return program.instructions[pc]


def normalize(program, pid, pc, env):
    """Run local instructions until poised at a step (or terminal)."""
    instructions = program.instructions
    for _ in range(MAX_LOCAL_STEPS):
        if not 0 <= pc < len(instructions):
            raise ProgramError(
                f"pc {pc} out of range for process {pid}; programs must "
                "end in halt/decide/goto"
            )
        instr = instructions[pc]
        if isinstance(instr, STEP_INSTRS):
            return ProcState(pc, env)
        if isinstance(instr, IAssign):
            env = env.set(instr.dest, evaluate(instr.value, env))
            pc += 1
        elif isinstance(instr, IGoto):
            pc = program.target(instr.label)
        elif isinstance(instr, IBranchIf):
            pc = program.target(instr.label) if instr.cond(env) else pc + 1
        elif isinstance(instr, IDecide):
            return DecidedState(value=evaluate(instr.value, env))
        elif isinstance(instr, IHalt):
            return HALTED
        else:
            raise ProgramError(f"unknown instruction {instr!r}")
    raise ProgramError(
        f"more than {MAX_LOCAL_STEPS} consecutive local instructions for "
        f"process {pid}: local infinite loop?"
    )


def initial_state(protocol, pid, input_value):
    env = Env(protocol._initial_env(pid, input_value))
    return normalize(protocol.program(pid), pid, 0, env)


def poised(protocol, pid, state):
    if isinstance(state, DecidedState):
        return None
    instr = instruction_at(protocol.program(pid), pid, state.pc)
    return operation_for(instr, state.env)


def transition(protocol, pid, state, response):
    if isinstance(state, DecidedState):
        raise ProgramError("transition on a halted process")
    program = protocol.program(pid)
    instr = instruction_at(program, pid, state.pc)
    env = state.env
    dest = getattr(instr, "dest", None)
    if dest is not None:
        env = env.set(dest, response)
    return normalize(program, pid, state.pc + 1, env)
