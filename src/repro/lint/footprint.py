"""Conservative register footprints: which registers can a program touch?

The covering argument of the paper counts *distinct registers written*:
Theorem 1 pins n−1 of them against any correct protocol.  Its
contrapositive is a static fact -- a protocol whose program text can
only ever write k < n−1 distinct registers cannot solve n-process
consensus, no adversary run required.  This module computes the
conservative over-approximation that makes that argument sound:

* a step instruction whose register operand is a constant contributes
  exactly that register (indices are taken modulo the declared object
  count, matching the runtime's ``int(...)`` coercion contract);
* an operand that is a callable of the local environment is *widened*
  to the declared :class:`~repro.model.registers.ObjectSpec` universe
  (⊤) -- we cannot know which register it names, so it may name any;
* only instructions reachable in the CFG count (dead code cannot
  execute, so it cannot write).

Because widening only ever grows the footprint, ``writable_bound`` is a
true upper bound on the registers any execution writes, and
``static_bound < n−1 ⇒ not a consensus protocol`` is a theorem about
the program text.  The cross-check against Theorem 1 certificates runs
the same inequality the other way: a replay-validated certificate
exhibiting more distinct written registers than the static bound would
be a contradiction, i.e. an analysis bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.model.process import Protocol
from repro.model.program import (
    ICompareAndSwap,
    IFetchAndAdd,
    IRead,
    ISwap,
    ITestAndSet,
    IWrite,
    Program,
    ProgramProtocol,
)
from repro.model.table import TableProtocol
from repro.lint.cfg import EXIT, ProgramCfg, program_cfg

#: Step-instruction kinds that may overwrite a register (the covering
#: notion of "write": any state-changing shared operation).
_WRITE_INSTRS = (IWrite, ISwap, ITestAndSet, ICompareAndSwap, IFetchAndAdd)
_READ_INSTRS = (IRead,)


@dataclass(frozen=True)
class Footprint:
    """Registers a program may read and may write, conservatively.

    ``reads``/``writes`` are register index sets; ``top`` flags that at
    least one operand was environment-dependent and the corresponding
    set was widened to all ``universe`` registers.  ``exact`` footprints
    (no widening anywhere) are what the cross-check can lean on hardest,
    but every consumer here only needs the over-approximation direction.
    """

    reads: FrozenSet[int]
    writes: FrozenSet[int]
    universe: int
    widened_reads: bool = False
    widened_writes: bool = False

    @property
    def exact(self) -> bool:
        return not (self.widened_reads or self.widened_writes)

    @property
    def writable_bound(self) -> int:
        """Upper bound on distinct registers any execution can write."""
        return len(self.writes)

    def union(self, other: "Footprint") -> "Footprint":
        if self.universe != other.universe:
            raise ValueError(
                f"cannot merge footprints over different universes "
                f"({self.universe} vs {other.universe})"
            )
        return Footprint(
            reads=self.reads | other.reads,
            writes=self.writes | other.writes,
            universe=self.universe,
            widened_reads=self.widened_reads or other.widened_reads,
            widened_writes=self.widened_writes or other.widened_writes,
        )


def _empty(universe: int) -> Footprint:
    return Footprint(frozenset(), frozenset(), universe)


def program_footprint(
    program: Program,
    universe: int,
    cfg: Optional[ProgramCfg] = None,
) -> Footprint:
    """The conservative read/write footprint of one program.

    Only CFG-reachable instructions contribute.  Constant register
    operands are reduced modulo ``universe`` iff they are in range --
    an out-of-range constant is a runtime :class:`ProgramError`, and the
    protocol lint reports it separately (here it is clamped into ⊤ so
    the footprint stays an over-approximation even for buggy programs).
    """
    if cfg is None:
        cfg = program_cfg(program)
    everything = frozenset(range(universe))
    reads: set = set()
    writes: set = set()
    widened_reads = False
    widened_writes = False
    for pc in cfg.reachable:
        if pc == EXIT:
            continue
        instr = program.instructions[pc]
        if isinstance(instr, _WRITE_INSTRS):
            target, widen = _constant_register(instr.reg, universe)
            if widen:
                widened_writes = True
                writes.update(everything)
            else:
                writes.add(target)
        elif isinstance(instr, _READ_INSTRS):
            target, widen = _constant_register(instr.reg, universe)
            if widen:
                widened_reads = True
                reads.update(everything)
            else:
                reads.add(target)
    return Footprint(
        reads=frozenset(reads),
        writes=frozenset(writes),
        universe=universe,
        widened_reads=widened_reads,
        widened_writes=widened_writes,
    )


def _constant_register(expr, universe: int) -> Tuple[int, bool]:
    """Resolve a register operand: (index, False) or (-1, widened)."""
    if callable(expr):
        return -1, True
    try:
        index = int(expr)
    except (TypeError, ValueError):
        return -1, True
    if 0 <= index < universe:
        return index, False
    # Out of range: the runtime would raise; treat as "could be any"
    # so the footprint never under-approximates a buggy program.
    return -1, True


def table_footprint(protocol: TableProtocol) -> Footprint:
    """Exact footprint of a table automaton (register indices are data).

    Only states reachable from some initial state contribute -- the
    same dead-code argument as for programs, over the state graph.
    """
    from repro.lint.cfg import table_cfg

    universe = protocol.registers
    reachable = table_cfg(protocol).reachable
    reads: set = set()
    writes: set = set()
    for state, rule in protocol.rules.items():
        if state not in reachable:
            continue
        register = int(rule[1]) % universe
        if rule[0] == "read":
            reads.add(register)
        else:
            writes.add(register)
    return Footprint(
        reads=frozenset(reads), writes=frozenset(writes), universe=universe
    )


def protocol_footprint(protocol: Protocol) -> Footprint:
    """Dispatch: the union footprint over all processes of ``protocol``.

    Program and table protocols get the static analysis; anything else
    (hand-written automata) is widened to ⊤ -- unknown code may touch
    any declared register, which keeps every downstream inequality
    sound, merely uninformative.
    """
    universe = protocol.num_objects
    if isinstance(protocol, TableProtocol):
        return table_footprint(protocol)
    if isinstance(protocol, ProgramProtocol):
        merged = _empty(universe)
        seen = set()
        for pid in range(protocol.n):
            program = protocol.program(pid)
            if id(program) in seen:
                continue
            seen.add(id(program))
            merged = merged.union(program_footprint(program, universe))
        return merged
    everything = frozenset(range(universe))
    return Footprint(
        reads=everything,
        writes=everything,
        universe=universe,
        widened_reads=True,
        widened_writes=True,
    )


def consensus_impossible(protocol: Protocol) -> Optional[str]:
    """The static Theorem 1 contrapositive, as a message or None.

    Returns an explanation when the protocol's conservative writable
    footprint has fewer than n−1 registers -- by Theorem 1 no such
    protocol solves n-process NST consensus -- and None when the bound
    is satisfiable (which proves nothing: the adversary still has to
    run to certify the protocol actually *pays* n−1 registers).
    """
    n = protocol.n
    footprint = protocol_footprint(protocol)
    bound = footprint.writable_bound
    if bound >= n - 1:
        return None
    return (
        f"statically writable registers {sorted(footprint.writes)} "
        f"(|W| = {bound}) < n-1 = {n - 1}: by Theorem 1 no execution of "
        f"this protocol can solve {n}-process consensus"
    )
