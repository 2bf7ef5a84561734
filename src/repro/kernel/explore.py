"""The compiled batch explorer: BFS over packed rows.

Bit-identical to :meth:`repro.analysis.explorer.Explorer.explore` by
construction -- same budget tick sequence, same dedup/limit/early-exit
points, same metric totals, same certificates and witness schedules.
The correspondence argument lives in docs/THEORY.md; the enforcement
lives in ``tests/test_kernel_differential.py``.

Layout of one exploration, all of it local to the call and freed when
it returns:

* The *arena* is a :class:`~repro.kernel.store.RowStore`: ``rows[lid]``
  is the row first discovered for local id ``lid``, and one dict maps
  every raw row seen to its ``lid``, so ``lid`` is the class id.  The
  search's *dedup* (the ``kernel.dedup.*`` counters) decides what a raw
  row the dict has not seen joins:

  - ``raw``: exact keys, and a round-shift search whose root has a
    process outside P carrying a round.  That process never steps, so
    its state pins the shift base and equal canonical rows are equal
    raw rows; the row is novel and ``canonical_row`` is never called.
  - ``canonical``: the other round-shift searches (P = everyone, say).
    The row's canonical row, built from the program's lazy tables,
    names its class; a known class records the row as an alias.
  - ``generic``: any other key override (``SymmetricKey``): the row is
    unpacked once and keyed by the protocol's ``canonical_query_key``.

* The *frontier log* is a list holding one 48-bit int record per BFS
  discovery, at index ``lid``::

      parent_lid+1:32 | via_pid:16

  Because the interpreted BFS appends successors to its queue at the
  moment of first discovery, the log *is* the queue: expanding record
  ``qi`` (row ``rows[qi]``) while appending new records at the end
  replays exactly the interpreted FIFO order, and the ``parent_lid``
  chain doubles as the parent-pointer map for witness reconstruction.

* *One decision probe per discovery*: a step changes only the stepping
  process's state, and every stored row was discovered in this search,
  so the other processes' decisions were already recorded at an
  ancestor or at the root.  A discovery probes only the stepping pid's
  decision table and re-tests ``stop_when`` only when ``found`` grew.

* *Per-level bookkeeping*: the log pops records in non-decreasing
  depth, so the loop runs one BFS level at a time and mirrors
  ``Explorer.explore`` per level: the ``max_depth`` test and its
  ``level_sizes`` entry are computed once per level, and edge, dedup
  and pop counts live in locals until the loop exits.

* *A cold violation handler*: a search given a ``violates`` predicate
  (the consensus checker's) tests the root, and then a discovery only
  when the stepping pid's new state decides; the handler probes all n
  decision tables of the row.  The first flagged ``lid`` stops the
  search at its pop, before expanding it, and the loop honours that
  stop once per level by ending the next level at it (docs/THEORY.md,
  "One BFS for the checker").

The hot loop lives in :func:`_hot_expand`; the ``_hot_`` prefix is a
contract enforced by ``repro lint --self``: no object-model calls, no
``Configuration`` construction, no pack/unpack, no comprehensions --
per-edge work is shifts, masks, one big-int add and dict probes.  Every
plan is probed alike (see :mod:`repro.kernel.compiler`), and a raw-dedup
discovery is written to the arena inline.  Cold paths (plan/effect
misses, canonicalisation of novel rows) are the ``*_miss``/``admit``
handlers the loop delegates to.  Solo runs (the valency oracle's solo
probes) walk the same plan and effect tables in :func:`_hot_solo`,
under the same contract.
"""

from __future__ import annotations

from math import inf
from typing import Callable, FrozenSet, Hashable, List, Optional, Tuple

from repro.analysis.explorer import BRANCHING_EDGES, ExplorationResult
from repro.errors import ExplorationLimitError
from repro.kernel.codec import FIELD_MASK
from repro.kernel.compiler import CompiledProgram
from repro.kernel.store import RowStore
from repro.model.configuration import Configuration
from repro.obs.runtime import get_metrics, get_tracer

_MISS = object()


def _quotient_admit(store: RowStore, key_of):
    """The cold ``admit`` of a quotiented search: ``key_of(row)`` names
    the class of a raw row the arena has not seen.  A novel class
    stores the row and returns its new ``lid``; a known one records the
    row as an alias and returns None."""
    classes: dict = {}
    index = store.index

    def admit(row: int) -> Optional[int]:
        key = key_of(row)
        lid = classes.get(key)
        if lid is None:
            lid = classes[key] = store.append(row)
            return lid
        index[row] = lid
        return None

    return admit


def _hot_expand(
    log,
    rows,
    index,
    admit,
    lanes,
    plan_miss,
    effect_miss,
    found,
    stop_when,
    violated,
    halt,
    level_sizes,
    branch_counts,
    budget,
    max_depth,
    max_configs,
    strict,
    ctr,
):
    """Expand the whole frontier; returns "done"/"stopped"/"limit"/
    "violation".

    ``lanes`` holds one ``(pid, plans, state_shift, decisions,
    pid << 32)`` tuple per pid of P, in pid order.  ``admit`` is None
    for a raw-dedup search, whose discoveries are written to ``rows``
    and ``index`` here, or a quotient search's cold handler.
    ``violated`` is None or the cold handler that tests a discovered
    row's decided values; ``halt`` is the ``lid`` of the first row it
    flagged (0 for a flagged root), or None.

    The loop runs one BFS level at a time.  The log is the FIFO queue,
    so records pop in non-decreasing depth: depth, the ``max_depth``
    test and the level's ``level_sizes`` entry are per-level facts.
    Within a level, the order of operations per popped record and per
    pid mirrors ``Explorer.explore`` statement for statement, except
    that a discovery probes only the stepping pid's decisions, and asks
    ``violated`` only when that pid's new state decides.  A flagged
    ``lid`` was discovered at a deeper level than the one popping, so
    its pop is honoured once per level: the next level ends at it.

    ``ctr`` receives [edges, dedup, truncated, pops, halt]; the counts
    are kept in locals and written once, in a ``finally``, so the caller
    flushes exact metrics also on a raise, where the interpreted
    loop's incremental counter updates are likewise already committed.
    """
    log_append = log.append
    rows_append = rows.append
    fmask = FIELD_MASK
    edges = dups = 0
    qi = 0
    total = 1
    depth = 0
    pops = None
    try:
        while qi < total:
            if qi == halt:
                return "violation"
            if max_depth is not None and depth >= max_depth:
                # Every record left sits at this depth: each pop up to
                # the flagged one is billed and skipped.
                pops = qi
                ctr[2] = 1
                if budget is not None:
                    for _ in range((total if halt is None else halt) - qi):
                        budget.tick()
                return "done" if halt is None else "violation"
            start = total
            level_end = start if halt is None else halt
            depth += 1
            while qi < level_end:
                row = rows[qi]
                qi += 1
                if budget is not None:
                    budget.tick()
                before = edges
                for pid, pplans, shift, pdecisions, pid_bits in lanes:
                    sid = (row >> shift) & fmask
                    plan = pplans.get(sid, _MISS)
                    if plan is _MISS:
                        plan = plan_miss(pid, sid)
                    if plan is None:
                        continue
                    edges += 1
                    cur = (row >> plan[0]) & fmask
                    delta = plan[1].get(cur, _MISS)
                    if delta is _MISS:
                        delta = effect_miss(plan, cur)
                    succ = row + delta
                    if succ in index:
                        dups += 1
                        continue
                    if admit is None:
                        index[succ] = total
                        rows_append(succ)
                    elif admit(succ) is None:
                        dups += 1
                        continue
                    log_append(qi | pid_bits)
                    lid = total
                    total += 1
                    if total > max_configs:
                        if strict:
                            _limit_exceeded(lanes, total, max_configs)
                        ctr[2] = 1
                        _level_size(level_sizes, depth, total - 1 - start)
                        return "limit"
                    value = pdecisions.get((succ >> shift) & fmask)
                    if value is None:
                        continue
                    if halt is None and violated is not None:
                        if violated(succ):
                            halt = lid
                    if value not in found:
                        found[value] = lid
                        if stop_when is not None and stop_when <= found.keys():
                            _level_size(level_sizes, depth, total - 1 - start)
                            return "stopped"
                branch_counts[edges - before] += 1
            _level_size(level_sizes, depth, total - start)
        return "done"
    finally:
        ctr[0] = edges
        ctr[1] = dups
        ctr[3] = qi if pops is None else pops
        ctr[4] = halt


def _level_size(level_sizes, depth, size):
    """Record a level's discoveries; a level with none gets no entry."""
    if size:
        level_sizes[depth] = size


def _limit_exceeded(lanes, visited, max_configs):
    """Raise the strict search's :class:`ExplorationLimitError`."""
    pids = [lane[0] for lane in lanes]
    get_tracer().event(
        "exploration_limit",
        visited=visited,
        max_configs=max_configs,
        pids=pids,
    )
    raise ExplorationLimitError(
        f"exploration from root exceeded {max_configs} configurations "
        f"(pids={pids})",
        visited=visited,
    )


def _hot_solo(
    row, pid, limit, pplans, pdecisions, plan_miss, effect_miss, shift
):
    """Run ``pid`` alone from ``row``; returns ``(steps, value)``.

    Statement for statement the loop of ``Explorer.solo``: take the
    plan of ``pid``'s state (stop if it halted), add its delta, and stop
    as soon as ``pid``'s new state decides.
    """
    fmask = FIELD_MASK
    for steps in range(1, limit + 1):
        sid = (row >> shift) & fmask
        plan = pplans.get(sid, _MISS)
        if plan is _MISS:
            plan = plan_miss(pid, sid)
        if plan is None:
            return steps - 1, None
        cur = (row >> plan[0]) & fmask
        delta = plan[1].get(cur, _MISS)
        if delta is _MISS:
            delta = effect_miss(plan, cur)
        row += delta
        value = pdecisions.get((row >> shift) & fmask)
        if value is not None:
            return steps, value
    return limit, None


def _schedule_of(log: List[int], lid: int) -> Tuple[int, ...]:
    """Read the root-to-``lid`` pid schedule off the frontier log."""
    steps = []
    entry = log[lid]
    while True:
        parent1 = entry & FIELD_MASK
        if parent1 == 0:
            break
        steps.append(entry >> 32)
        entry = log[parent1 - 1]
    steps.reverse()
    return tuple(steps)


class KernelExplorer:
    """Owns one compiled program; each search builds its own arena."""

    def __init__(self, system):
        self.program = CompiledProgram(system)
        get_metrics().counter("kernel.compiles").inc()
        get_tracer().event(
            "kernel.compiled",
            protocol=type(system.protocol).__name__,
        )

    def close(self) -> None:
        self.program.close()

    def solo(
        self, config: Configuration, pid: int, limit: int
    ) -> Tuple[int, Optional[Hashable]]:
        """``Explorer.solo`` over packed rows (same ``(steps, value)``)."""
        program = self.program
        codec = program.codec
        return _hot_solo(
            codec.pack(config),
            pid,
            limit,
            program.plans[pid],
            program.decisions[pid],
            program.plan_miss,
            program.effect_miss,
            codec.state_shifts[pid],
        )

    def _dedup(self, row0: int, pid_set: FrozenSet[int]) -> str:
        """The dedup of a search from ``row0``: "raw", "canonical" or
        "generic" (see the module docstring)."""
        program = self.program
        if program.exact_canonical:
            return "raw"
        if not program.round_shift:
            return "generic"
        codec = program.codec
        for pid in range(program.n):
            sid = (row0 >> codec.state_shifts[pid]) & FIELD_MASK
            if pid not in pid_set and program.state_rounds[sid] < inf:
                return "raw"
        return "canonical"

    def explore(
        self,
        root: Configuration,
        pids,
        stop_when: Optional[FrozenSet[Hashable]] = None,
        violates: Optional[Callable[[FrozenSet[Hashable]], bool]] = None,
        *,
        max_configs: int,
        max_depth: Optional[int],
        strict: bool,
        budget=None,
    ) -> ExplorationResult:
        program = self.program
        codec = program.codec
        pid_set = frozenset(pids)
        result = ExplorationResult(root=root, pids=pid_set)

        metrics = get_metrics()
        edges_c = metrics.counter("explorer.edges")
        dedup_c = metrics.counter("explorer.dedup_hits")
        branching_h = metrics.histogram("explorer.branching", BRANCHING_EDGES)
        level_sizes = {0: 1}
        ctr = [0, 0, 0, 0, None]  # edges, dedup, truncated, pops, halt

        row0 = codec.pack(root)
        store = RowStore()
        dedup = self._dedup(row0, pid_set)
        metrics.counter(f"kernel.dedup.{dedup}").inc()
        if dedup == "raw":
            admit = None
        elif dedup == "canonical":
            admit = _quotient_admit(store, program.canonical_row)
        else:
            protocol = program.protocol
            unpack = codec.unpack
            admit = _quotient_admit(
                store,
                lambda row: protocol.canonical_query_key(unpack(row), pid_set),
            )
        if admit is None:
            store.append(row0)
        else:
            admit(row0)
        log = [0]  # root record: parent1=0
        found: dict = {}
        state_shifts = codec.state_shifts
        decisions = program.decisions
        lanes = tuple(
            (pid, program.plans[pid], state_shifts[pid], decisions[pid], pid << 32)
            for pid in sorted(pid_set)
        )
        branch_counts = [0] * (len(lanes) + 1)

        for pid in range(program.n):
            value = decisions[pid].get(
                (row0 >> state_shifts[pid]) & FIELD_MASK
            )
            if value is not None and value not in found:
                found[value] = 0
        violated = None
        if violates is not None:
            tables = tuple(zip(state_shifts, decisions))

            def violated(row: int) -> bool:
                """``violates`` over the row's decided values, read off
                all n decision tables."""
                decided = set()
                for shift, table in tables:
                    value = table.get((row >> shift) & FIELD_MASK)
                    if value is not None:
                        decided.add(value)
                return violates(frozenset(decided))

        halt = 0 if violated is not None and violated(row0) else None

        def finish(outcome: str) -> ExplorationResult:
            for value, lid in found.items():
                result.decided[value] = _schedule_of(log, lid)
            if outcome == "violation":
                result.violation = _schedule_of(log, ctr[4])
            result.visited = len(store)
            result.complete = outcome == "done" and not result.truncated
            metrics.counter("explorer.explorations").inc()
            metrics.counter("explorer.visited").inc(result.visited)
            frontier_h = metrics.histogram("explorer.frontier")
            for depth_level in sorted(level_sizes):
                frontier_h.observe(level_sizes[depth_level])
            metrics.gauge("explorer.frontier_peak").set_max(
                max(level_sizes.values())
            )
            metrics.histogram("kernel.batch").observe(ctr[3])
            get_tracer().event(
                "explore.done",
                engine="compiled",
                pids=sorted(pid_set),
                visited=result.visited,
                complete=result.complete,
                truncated=result.truncated,
                decided=sorted(found, key=repr),
            )
            return result

        try:
            if stop_when is not None and stop_when <= found.keys():
                return finish("stopped")
            outcome = _hot_expand(
                log,
                store.rows,
                store.index,
                admit,
                lanes,
                program.plan_miss,
                program.effect_miss,
                found,
                stop_when,
                violated,
                halt,
                level_sizes,
                branch_counts,
                budget,
                max_depth,
                max_configs,
                strict,
                ctr,
            )
            result.truncated = bool(ctr[2])
            return finish(outcome)
        finally:
            # Flush accumulated counters exactly once -- also on a raise
            # (ExplorationLimitError, BudgetExhausted), where the
            # interpreted loop's incremental updates are likewise
            # already committed.
            edges_c.inc(ctr[0])
            dedup_c.inc(ctr[1])
            for branch, count in enumerate(branch_counts):
                if count:
                    branching_h.observe_many(branch, count)
