"""A small instruction language for writing protocols as pseudocode.

Protocols in the paper are presented as sequential code with reads,
writes, branches and loops.  Writing them directly against the automaton
interface of :mod:`repro.model.process` is painful, so this module
provides a tiny labeled-instruction language:

    builder = ProgramBuilder()
    builder.label("retry")
    builder.write(reg=lambda e: e["i"], value=lambda e: (e["r"], e["v"]))
    builder.read(reg=0, dest="x")
    builder.branch_if(lambda e: e["x"] is None, "retry")
    builder.decide(lambda e: e["v"])
    program = builder.build()

Semantics follow the paper's model exactly: *only shared-memory
operations (and explicit coin flips / markers) are steps*.  Local
instructions -- assignments, branches, jumps, deciding -- execute
"for free" inside transitions, so a process is always poised at a
shared-memory operation or halted.  This matters for the covering
argument: "process p covers register r" is a statement about the next
*shared* operation.

Program state is ``ProcState(pc, env)`` with an immutable :class:`Env`,
hence hashable, hence usable by the valency oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.errors import ProgramError
from repro.model.env import Env
from repro.model.operations import (
    CoinFlip,
    CompareAndSwap,
    FetchAndAdd,
    Marker,
    Operation,
    Read,
    Swap,
    TestAndSet,
    Write,
)
from repro.model.process import DecidedState, HALTED, Protocol
from repro.model.registers import ObjectSpec

#: Instruction operands: either a constant or a function of the local env.
Expr = Union[Hashable, Callable[[Env], Hashable]]

#: Safety bound on consecutive local (step-free) instructions, so that a
#: local infinite loop raises instead of hanging the simulator.
MAX_LOCAL_STEPS = 100_000


def _eval(expr: Expr, env: Env) -> Hashable:
    """Evaluate an operand: call it on the env if callable, else constant."""
    if callable(expr):
        return expr(env)
    return expr


# --------------------------------------------------------------------------
# Instructions.  Step instructions map to shared/local Operations; local
# instructions run inside transitions.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Instr:
    """Base class for instructions."""


@dataclass(frozen=True)
class IRead(Instr):
    reg: Expr
    dest: str


@dataclass(frozen=True)
class IWrite(Instr):
    reg: Expr
    value: Expr


@dataclass(frozen=True)
class ISwap(Instr):
    reg: Expr
    value: Expr
    dest: str


@dataclass(frozen=True)
class ITestAndSet(Instr):
    reg: Expr
    dest: str


@dataclass(frozen=True)
class ICompareAndSwap(Instr):
    reg: Expr
    expected: Expr
    new: Expr
    dest: str


@dataclass(frozen=True)
class IFetchAndAdd(Instr):
    reg: Expr
    delta: Expr
    dest: str


@dataclass(frozen=True)
class IFlip(Instr):
    dest: str


@dataclass(frozen=True)
class IMarker(Instr):
    text: str


@dataclass(frozen=True)
class IAssign(Instr):
    dest: str
    value: Expr


@dataclass(frozen=True)
class IGoto(Instr):
    label: str


@dataclass(frozen=True)
class IBranchIf(Instr):
    cond: Callable[[Env], bool]
    label: str


@dataclass(frozen=True)
class IDecide(Instr):
    value: Expr


@dataclass(frozen=True)
class IHalt(Instr):
    pass


_STEP_INSTRS = (
    IRead,
    IWrite,
    ISwap,
    ITestAndSet,
    ICompareAndSwap,
    IFetchAndAdd,
    IFlip,
    IMarker,
)


@dataclass(frozen=True)
class ProcState:
    """State of a program-driven process: program counter + locals."""

    pc: int
    env: Env

    def __hash__(self) -> int:
        """Structural hash, computed once per instance.

        Process states key the kernel codec's state interner and every
        interpreter step, so the same instance is hashed millions of
        times per adversary run; both fields are immutable (``Env``
        caches its own hash), so caching is safe.
        """
        try:
            return self._hash
        except AttributeError:
            cached = hash((self.pc, self.env))
            object.__setattr__(self, "_hash", cached)
            return cached

    def __getstate__(self):
        """Pickle the fields only: ``hash()`` is salted per interpreter
        process, so a cached hash must never travel between processes."""
        return (self.pc, self.env)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "pc", state[0])
        object.__setattr__(self, "env", state[1])


@dataclass(frozen=True)
class Program:
    """A compiled program: an instruction sequence plus a label table."""

    instructions: Tuple[Instr, ...]
    labels: Dict[str, int] = field(default_factory=dict, hash=False, compare=False)

    def target(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise ProgramError(f"undefined label {label!r}") from None


class ProgramBuilder:
    """Fluent builder producing a :class:`Program`.

    All mutating methods return ``self`` so programs can be written as
    chained calls or as straight-line statements, whichever reads better.
    """

    def __init__(self) -> None:
        self._instructions: List[Instr] = []
        self._labels: Dict[str, int] = {}

    # -- step instructions ---------------------------------------------------
    def read(self, reg: Expr, dest: str) -> "ProgramBuilder":
        """Read register ``reg`` into local variable ``dest``."""
        self._instructions.append(IRead(reg, dest))
        return self

    def write(self, reg: Expr, value: Expr) -> "ProgramBuilder":
        """Write ``value`` to register ``reg``."""
        self._instructions.append(IWrite(reg, value))
        return self

    def swap(self, reg: Expr, value: Expr, dest: str) -> "ProgramBuilder":
        """Swap ``value`` into ``reg``; previous contents land in ``dest``."""
        self._instructions.append(ISwap(reg, value, dest))
        return self

    def test_and_set(self, reg: Expr, dest: str) -> "ProgramBuilder":
        self._instructions.append(ITestAndSet(reg, dest))
        return self

    def compare_and_swap(
        self, reg: Expr, expected: Expr, new: Expr, dest: str
    ) -> "ProgramBuilder":
        self._instructions.append(ICompareAndSwap(reg, expected, new, dest))
        return self

    def fetch_and_add(self, reg: Expr, delta: Expr, dest: str) -> "ProgramBuilder":
        self._instructions.append(IFetchAndAdd(reg, delta, dest))
        return self

    def flip(self, dest: str) -> "ProgramBuilder":
        """Consume one coin-tape bit into ``dest`` (a scheduled step)."""
        self._instructions.append(IFlip(dest))
        return self

    def marker(self, text: str) -> "ProgramBuilder":
        """Emit a labelled local step visible in the trace (e.g. 'enter_cs')."""
        self._instructions.append(IMarker(text))
        return self

    # -- local instructions ----------------------------------------------------
    def assign(self, dest: str, value: Expr) -> "ProgramBuilder":
        self._instructions.append(IAssign(dest, value))
        return self

    def label(self, name: str) -> "ProgramBuilder":
        if name in self._labels:
            raise ProgramError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def goto(self, label: str) -> "ProgramBuilder":
        self._instructions.append(IGoto(label))
        return self

    def branch_if(
        self, cond: Callable[[Env], bool], label: str
    ) -> "ProgramBuilder":
        self._instructions.append(IBranchIf(cond, label))
        return self

    def decide(self, value: Expr) -> "ProgramBuilder":
        self._instructions.append(IDecide(value))
        return self

    def halt(self) -> "ProgramBuilder":
        self._instructions.append(IHalt())
        return self

    def build(self) -> Program:
        program = Program(tuple(self._instructions), dict(self._labels))
        for name, index in program.labels.items():
            if not 0 <= index <= len(program.instructions):
                raise ProgramError(f"label {name!r} out of range")
        return program


class ProgramProtocol(Protocol):
    """A protocol whose per-process code is given by DSL programs.

    Parameters
    ----------
    name:
        Protocol name for reports.
    n:
        Number of processes.
    specs:
        The shared objects, in index order.
    programs:
        One program per process.  Anonymous protocols pass the same
        program ``n`` times (see :func:`anonymous_programs`).
    initial_env:
        ``initial_env(pid, input_value) -> Mapping`` giving the initial
        local variables of each process; typically binds the input and,
        for non-anonymous protocols, the pid.
    """

    def __init__(
        self,
        name: str,
        n: int,
        specs: Sequence[ObjectSpec],
        programs: Sequence[Program],
        initial_env: Callable[[int, Hashable], Dict[str, Hashable]],
    ):
        super().__init__(n)
        if len(programs) != n:
            raise ProgramError(
                f"expected {n} programs (one per process), got {len(programs)}"
            )
        self.name = name
        self._specs = tuple(specs)
        self._programs = tuple(programs)
        self._initial_env = initial_env

    def object_specs(self) -> Tuple[ObjectSpec, ...]:
        return self._specs

    def program(self, pid: int) -> Program:
        return self._programs[pid]

    # -- automaton interface -------------------------------------------------
    def initial_state(self, pid: int, input_value: Hashable) -> Hashable:
        env = Env(self._initial_env(pid, input_value))
        return self._normalize(pid, ProcState(0, env))

    def poised(self, pid: int, state: Hashable) -> Optional[Operation]:
        if isinstance(state, DecidedState):
            return None
        instr = self._instruction_at(pid, state)
        return self._operation_for(instr, state.env)

    def transition(self, pid: int, state: Hashable, response: Hashable) -> Hashable:
        if isinstance(state, DecidedState):
            raise ProgramError("transition on a halted process")
        instr = self._instruction_at(pid, state)
        env = state.env
        dest = getattr(instr, "dest", None)
        if dest is not None:
            env = env.set(dest, response)
        return self._normalize(pid, ProcState(state.pc + 1, env))

    # -- internals -------------------------------------------------------------
    def _instruction_at(self, pid: int, state: ProcState) -> Instr:
        program = self._programs[pid]
        if not 0 <= state.pc < len(program.instructions):
            raise ProgramError(
                f"pc {state.pc} out of range for process {pid} "
                f"(program has {len(program.instructions)} instructions; "
                "did the program fall off the end without halt/decide?)"
            )
        return program.instructions[state.pc]

    @staticmethod
    def _operation_for(instr: Instr, env: Env) -> Operation:
        if isinstance(instr, IRead):
            return Read(int(_eval(instr.reg, env)))
        if isinstance(instr, IWrite):
            return Write(int(_eval(instr.reg, env)), _eval(instr.value, env))
        if isinstance(instr, ISwap):
            return Swap(int(_eval(instr.reg, env)), _eval(instr.value, env))
        if isinstance(instr, ITestAndSet):
            return TestAndSet(int(_eval(instr.reg, env)))
        if isinstance(instr, ICompareAndSwap):
            return CompareAndSwap(
                int(_eval(instr.reg, env)),
                _eval(instr.expected, env),
                _eval(instr.new, env),
            )
        if isinstance(instr, IFetchAndAdd):
            return FetchAndAdd(
                int(_eval(instr.reg, env)), int(_eval(instr.delta, env))
            )
        if isinstance(instr, IFlip):
            return CoinFlip()
        if isinstance(instr, IMarker):
            return Marker(instr.text)
        raise ProgramError(f"instruction {instr!r} is not a step")

    def _normalize(self, pid: int, state: ProcState) -> Hashable:
        """Run local instructions until poised at a step (or terminal)."""
        program = self._programs[pid]
        instructions = program.instructions
        pc, env = state.pc, state.env
        for _ in range(MAX_LOCAL_STEPS):
            if not 0 <= pc < len(instructions):
                raise ProgramError(
                    f"pc {pc} out of range for process {pid}; programs must "
                    "end in halt/decide/goto"
                )
            instr = instructions[pc]
            if isinstance(instr, _STEP_INSTRS):
                return ProcState(pc, env)
            if isinstance(instr, IAssign):
                env = env.set(instr.dest, _eval(instr.value, env))
                pc += 1
            elif isinstance(instr, IGoto):
                pc = program.target(instr.label)
            elif isinstance(instr, IBranchIf):
                pc = program.target(instr.label) if instr.cond(env) else pc + 1
            elif isinstance(instr, IDecide):
                return DecidedState(value=_eval(instr.value, env))
            elif isinstance(instr, IHalt):
                return HALTED
            else:  # pragma: no cover - exhaustive over instruction kinds
                raise ProgramError(f"unknown instruction {instr!r}")
        raise ProgramError(
            f"more than {MAX_LOCAL_STEPS} consecutive local instructions for "
            f"process {pid}: local infinite loop?"
        )


def anonymous_programs(program: Program, n: int) -> Tuple[Program, ...]:
    """The same program for every process (anonymous protocols)."""
    return tuple([program] * n)
