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

:class:`ProgramProtocol` compiles to this interface once per program
object, on first use, into per-pc blocks of local instructions
(:class:`_Code`).  They compute exactly the transition function of the
instruction-at-a-time reading above, which ``tests/dsl_reference.py``
keeps as a reference interpreter to check them against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

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

#: Instruction operands: either a constant or a pure function of the
#: locals, which it reads as ``e[name]`` through a read-only mapping it
#: must not keep.
Expr = Union[Hashable, Callable[[Mapping[str, Hashable]], Hashable]]

#: Safety bound on consecutive local (step-free) instructions, so that a
#: local infinite loop raises instead of hanging the simulator.
MAX_LOCAL_STEPS = 100_000


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
    cond: Callable[[Mapping[str, Hashable]], bool]
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


@dataclass(frozen=True, slots=True)
class ProcState:
    """State of a program-driven process: program counter + locals.

    It hashes ``(pc, env)`` on each call, the dataclass hash; ``Env``
    caches its own."""

    pc: int
    env: Env

    def __reduce__(self):
        return (ProcState, (self.pc, self.env))


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
        self, cond: Callable[[Mapping[str, Hashable]], bool], label: str
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

    Each program is compiled to per-pc :class:`_Code` on first use and
    kept on this instance (``_codes[pid]``; processes running the same
    program object share one).
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
        self._codes: List[Optional[_Code]] = [None] * n

    def object_specs(self) -> Tuple[ObjectSpec, ...]:
        return self._specs

    def program(self, pid: int) -> Program:
        return self._programs[pid]

    # -- automaton interface -------------------------------------------------
    def initial_state(self, pid: int, input_value: Hashable) -> Hashable:
        code = self._codes[pid] or self._compile(pid)
        local = dict(self._initial_env(pid, input_value))
        return code.run(pid, 0, local)

    def poised(self, pid: int, state: Hashable) -> Optional[Operation]:
        if isinstance(state, DecidedState):
            return None
        code = self._codes[pid] or self._compile(pid)
        return code.step_at(pid, state.pc)[0](state.env)

    def transition(self, pid: int, state: Hashable, response: Hashable) -> Hashable:
        if isinstance(state, DecidedState):
            raise ProgramError("transition on a halted process")
        code = self._codes[pid] or self._compile(pid)
        pc = state.pc
        dest = code.step_at(pid, pc)[1]
        local = dict(state.env._lookup)
        if dest is not None:
            _bind(local, dest, response)
        return code.run(pid, pc + 1, local)

    def _compile(self, pid: int) -> "_Code":
        program = self._programs[pid]
        for other, code in enumerate(self._codes):
            if code is not None and self._programs[other] is program:
                break
        else:
            code = _Code(program)
        self._codes[pid] = code
        return code


# --------------------------------------------------------------------------
# Compiled programs.  A *block* is the run of local instructions starting
# at one pc: its assignments up to the next step, branch, goto, decide or
# halt (or the program's end), which ends it.
# --------------------------------------------------------------------------

_UNBOUND = object()

#: How a block ends.
_STEP, _BRANCH, _GOTO, _DECIDE, _HALT, _END = range(6)


def _bind(local: dict, dest: str, value: Hashable) -> None:
    """``Env.set``'s rule: a name already bound to an equal value keeps
    its object (``1`` stays ``1`` when ``True`` arrives)."""
    old = local.get(dest, _UNBOUND)
    if old is _UNBOUND or not old == value:
        local[dest] = value


def _operand(expr: Expr) -> Callable[[Mapping[str, Hashable]], Hashable]:
    """An operand as a function of the locals; constants are wrapped."""
    if callable(expr):
        return expr
    return lambda _locals: expr


def _operation_builder(instr: Instr):
    """``locals -> Operation`` for a step instruction."""
    if isinstance(instr, IRead):
        reg = _operand(instr.reg)
        return lambda e: Read(int(reg(e)))
    if isinstance(instr, IWrite):
        reg, value = _operand(instr.reg), _operand(instr.value)
        return lambda e: Write(int(reg(e)), value(e))
    if isinstance(instr, ISwap):
        reg, value = _operand(instr.reg), _operand(instr.value)
        return lambda e: Swap(int(reg(e)), value(e))
    if isinstance(instr, ITestAndSet):
        reg = _operand(instr.reg)
        return lambda e: TestAndSet(int(reg(e)))
    if isinstance(instr, ICompareAndSwap):
        reg = _operand(instr.reg)
        expected, new = _operand(instr.expected), _operand(instr.new)
        return lambda e: CompareAndSwap(int(reg(e)), expected(e), new(e))
    if isinstance(instr, IFetchAndAdd):
        reg, delta = _operand(instr.reg), _operand(instr.delta)
        return lambda e: FetchAndAdd(int(reg(e)), int(delta(e)))
    # Operations are frozen values: one instance serves every call.
    operation = CoinFlip() if isinstance(instr, IFlip) else Marker(instr.text)
    return lambda _e: operation


class _Code:
    """One program resolved per pc.

    ``steps[pc]`` is ``(build, dest)`` for a step instruction: ``build``
    maps the locals to the poised operation, ``dest`` names the local
    receiving the response (or is None).  ``blocks[pc]``, for every pc
    up to the program's length, is the block starting there::

        (assigns, end, at, fn, target)

    ``assigns`` holds ``(dest, operand)`` pairs; ``end`` is the kind of
    instruction ending the block and ``at`` its pc; ``fn`` is a branch's
    condition or a decision's operand; ``target`` is a jump's resolved
    pc, None for an undefined label (which raises when taken).
    """

    __slots__ = ("instructions", "steps", "blocks")

    def __init__(self, program: Program):
        instructions = program.instructions
        labels = program.labels
        self.instructions = instructions
        self.steps = {
            pc: (_operation_builder(instr), getattr(instr, "dest", None))
            for pc, instr in enumerate(instructions)
            if isinstance(instr, _STEP_INSTRS)
        }
        blocks: list = [((), _END, len(instructions), None, None)]
        for pc in reversed(range(len(instructions))):
            instr = instructions[pc]
            if isinstance(instr, IAssign):
                assigns, *end = blocks[-1]
                pair = (instr.dest, _operand(instr.value))
                blocks.append(((pair, *assigns), *end))
            elif isinstance(instr, _STEP_INSTRS):
                blocks.append(((), _STEP, pc, None, None))
            elif isinstance(instr, IGoto):
                blocks.append(((), _GOTO, pc, None, labels.get(instr.label)))
            elif isinstance(instr, IBranchIf):
                target = labels.get(instr.label)
                blocks.append(((), _BRANCH, pc, instr.cond, target))
            elif isinstance(instr, IDecide):
                blocks.append(((), _DECIDE, pc, _operand(instr.value), None))
            elif isinstance(instr, IHalt):
                blocks.append(((), _HALT, pc, None, None))
            else:
                raise ProgramError(f"unknown instruction {instr!r}")
        blocks.reverse()
        self.blocks = blocks

    def step_at(self, pid: int, pc: int):
        """``steps[pc]``; a state elsewhere was not built by this code."""
        step = self.steps.get(pc)
        if step is None:
            raise ProgramError(
                f"pc {pc} of process {pid} is not a step of its program "
                f"({len(self.instructions)} instructions)"
            )
        return step

    def run(self, pid: int, pc: int, local: dict) -> Hashable:
        """Run blocks from ``pc`` over ``local`` until a step, decide or
        halt; ``local`` becomes the new state's environment.

        ``left`` counts down the local instructions still allowed
        (:data:`MAX_LOCAL_STEPS`), so a local infinite loop raises
        after exactly the instructions an instruction-at-a-time
        interpreter would have run.
        """
        blocks = self.blocks
        view = MappingProxyType(local)
        left = MAX_LOCAL_STEPS
        while True:
            assigns, end, at, fn, target = blocks[pc]
            if len(assigns) >= left:
                for dest, value in assigns[:left]:
                    _bind(local, dest, value(view))
                raise ProgramError(
                    f"more than {MAX_LOCAL_STEPS} consecutive local "
                    f"instructions for process {pid}: local infinite loop?"
                )
            for dest, value in assigns:  # _bind, inlined
                value = value(view)
                old = local.get(dest, _UNBOUND)
                if old is _UNBOUND or not old == value:
                    local[dest] = value
            if end == _STEP:
                return ProcState(at, Env.of_dict(local))
            if end == _BRANCH and not fn(view):
                pc = at + 1
            elif end == _BRANCH or end == _GOTO:
                if target is None:
                    raise ProgramError(
                        f"undefined label {self.instructions[at].label!r}"
                    )
                pc = target
            elif end == _DECIDE:
                return DecidedState(value=fn(view))
            elif end == _HALT:
                return HALTED
            else:
                raise ProgramError(
                    f"pc {at} out of range for process {pid}; programs "
                    "must end in halt/decide/goto"
                )
            left -= len(assigns) + 1


def anonymous_programs(program: Program, n: int) -> Tuple[Program, ...]:
    """The same program for every process (anonymous protocols)."""
    return tuple([program] * n)
