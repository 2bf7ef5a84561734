"""The compiled batch explorer: BFS over packed rows.

Bit-identical to :meth:`repro.analysis.explorer.Explorer.explore` by
construction -- same budget tick sequence, same dedup/limit/early-exit
points, same metric totals, same certificates and witness schedules.
The correspondence argument lives in docs/THEORY.md; the enforcement
lives in ``tests/test_kernel_differential.py``.

Layout of one exploration:

* The *visited space* (one per process set, persistent across
  explorations so canonicalisation and interning amortise over an
  oracle's queries) assigns a dense global id (``gcid``) to every
  distinct canonical configuration and stores its representative
  packed row in a spillable :class:`~repro.kernel.store.RowStore`.
* The *frontier log* is a second ``RowStore`` holding one 112-bit
  record per BFS discovery::

      gcid:32 | parent_lid+1:32 | depth:32 | via_pid:16

  Because the interpreted BFS appends successors to its queue at the
  moment of first discovery, the log *is* the queue: expanding record
  ``qi`` while appending new records at the end replays exactly the
  interpreted FIFO order, and the ``parent_lid`` chain doubles as the
  parent-pointer map for witness reconstruction.  Both stores spill
  past the RAM threshold, so a deep exploration's resident footprint
  is its dedup index plus the page cache.

The hot loop lives in :func:`_hot_expand`; the ``_hot_`` prefix is a
contract enforced by ``repro lint --self``: no object-model calls, no
``Configuration`` construction, no pack/unpack, no comprehensions --
per-edge work is shifts, masks, one big-int add and dict probes.  Cold
paths (plan/effect misses, canonicalisation of novel rows) are the
``*_miss``/``resolve`` handlers the loop delegates to.  Solo runs (the
valency oracle's solo probes) walk the same plan and effect tables in
:func:`_hot_solo`, under the same contract.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Tuple

from repro.analysis.explorer import BRANCHING_EDGES, ExplorationResult
from repro.errors import ExplorationLimitError
from repro.kernel.codec import FIELD_MASK
from repro.kernel.compiler import CompiledProgram
from repro.kernel.store import RowStore
from repro.model.configuration import Configuration
from repro.obs.runtime import get_metrics, get_tracer

_MISS = object()

#: Frontier log record width: gcid, parent+1, depth (32 bits each)
#: and via pid (16 bits).
_LOG_WIDTH = 14


class _Space:
    """Per-process-set visited arena, persistent across explorations."""

    __slots__ = (
        "program",
        "pid_set",
        "store",
        "alias",
        "key_to_cid",
        "cid_keys",
        "fragments",
    )

    def __init__(self, program: CompiledProgram, pid_set: FrozenSet[int]):
        self.program = program
        self.pid_set = pid_set
        self.fragments: dict = {}
        codec = program.codec
        if program.exact_canonical:
            # Packing is injective w.r.t. configuration equality and the
            # default canonical key is the configuration itself, so rows
            # dedup directly.
            self.store = RowStore(codec.width_bytes, indexed=True, label="visited")
            self.alias = None
            self.key_to_cid = None
            self.cid_keys = None
        else:
            # Overridden canonical hooks (e.g. CommitAdoptRounds' round
            # abstraction): novel rows canonicalise through the protocol
            # once, then alias to their class id forever.
            self.store = RowStore(codec.width_bytes, indexed=False, label="visited")
            self.alias = {}
            self.key_to_cid = {}
            self.cid_keys = []

    def resolve(self, row: int) -> int:
        """Canonicalise a novel row (overridden-canonical protocols).

        Uses the fragment-memoised ``canonical_query_key_cached`` hook
        with a space-owned cache: the hook's contract is strict equality
        with ``canonical_query_key``, so the cid mapping is identical to
        the interpreter's -- just cheaper per novel row.
        """
        program = self.program
        config = program.codec.unpack(row)
        key = program.protocol.canonical_query_key_cached(
            config, self.pid_set, self.fragments
        )
        cid = self.key_to_cid.get(key)
        if cid is None:
            cid = self.store.append(row)
            self.key_to_cid[key] = cid
            self.cid_keys.append(key)
        self.alias[row] = cid
        return cid

    def close(self) -> None:
        self.store.close()


def _hot_expand(
    log,
    row_get,
    lookup,
    admit,
    store,
    exact,
    program,
    plans,
    plan_miss,
    effect_miss,
    decisions,
    found,
    stop_when,
    sorted_pids,
    all_pids,
    state_shifts,
    field_mask,
    parents,
    level_sizes,
    branch_counts,
    budget,
    max_depth,
    max_configs,
    strict,
    ctr,
):
    """Expand the whole frontier; returns "done"/"stopped"/"limit".

    ``ctr`` accumulates [edges, dedup, truncated, pops] so the
    caller can flush metrics exactly once (including on a raise, where
    the interpreted loop's incremental counter updates are also already
    committed).  Order of operations per popped record and per pid
    mirrors ``Explorer.explore`` statement for statement.
    """
    log_get = log.get
    log_append = log.append
    # Two masks: the frontier-log record layout is fixed at 32-bit
    # fields regardless of codec narrowing; packed-row fields use the
    # codec's (possibly narrowed) width.
    mask = FIELD_MASK
    fmask = field_mask
    qi = 0
    total = 1
    while qi < total:
        entry = log_get(qi)
        qi += 1
        if budget is not None:
            budget.tick()
        depth = (entry >> 64) & mask
        if max_depth is not None and depth >= max_depth:
            ctr[2] = 1
            continue
        ctr[3] += 1
        row = row_get(entry & mask)
        nd = depth + 1
        packed_depth = nd << 64
        branch = 0
        for pid in sorted_pids:
            pplans = plans[pid]
            sid = (row >> state_shifts[pid]) & fmask
            plan = pplans.get(sid, _MISS)
            if plan is _MISS:
                plan = plan_miss(pid, sid)
            if plan is None:
                continue
            branch += 1
            ctr[0] += 1
            if plan[0] == 0:
                shift = plan[1]
                cur = (row >> shift) & fmask
                delta = plan[2].get(cur, _MISS)
                if delta is _MISS:
                    delta = effect_miss(plan, cur)
                succ = row + delta
            else:
                succ = row + plan[2]
            scid = lookup(succ)
            if scid is None:
                scid = admit(succ)
                if exact and store.spilling:
                    lookup = store.find
            if scid in parents:
                ctr[1] += 1
                continue
            lid = total
            parents[scid] = lid
            log_append(scid | (qi << 32) | packed_depth | (pid << 96))
            total += 1
            if len(parents) > max_configs:
                if strict:
                    pids_list = sorted(sorted_pids)
                    get_tracer().event(
                        "exploration_limit",
                        visited=len(parents),
                        max_configs=max_configs,
                        pids=pids_list,
                    )
                    raise ExplorationLimitError(
                        f"exploration from root exceeded "
                        f"{max_configs} configurations "
                        f"(pids={pids_list})",
                        visited=len(parents),
                    )
                ctr[2] = 1
                return "limit"
            # Read ``deciding`` live: a dynamically lowered protocol may
            # intern its first deciding state mid-exploration.
            if program.deciding:
                for p2 in all_pids:
                    value = decisions[p2].get((succ >> state_shifts[p2]) & fmask)
                    if value is not None and value not in found:
                        found[value] = lid
                if stop_when is not None and stop_when <= found.keys():
                    return "stopped"
            level_sizes[nd] = level_sizes.get(nd, 0) + 1
        branch_counts[branch] = branch_counts.get(branch, 0) + 1
    return "done"


def _hot_solo(
    row, pid, limit, pplans, pdecisions, plan_miss, effect_miss, shift, fmask
):
    """Run ``pid`` alone from ``row``; returns ``(steps, value)``.

    Statement for statement the loop of ``Explorer.solo``: take the
    plan of ``pid``'s state (stop if it halted), add its delta, and stop
    as soon as ``pid``'s new state decides.
    """
    for steps in range(1, limit + 1):
        sid = (row >> shift) & fmask
        plan = pplans.get(sid, _MISS)
        if plan is _MISS:
            plan = plan_miss(pid, sid)
        if plan is None:
            return steps - 1, None
        if plan[0] == 0:
            cur = (row >> plan[1]) & fmask
            delta = plan[2].get(cur, _MISS)
            if delta is _MISS:
                delta = effect_miss(plan, cur)
            row += delta
        else:
            row += plan[2]
        value = pdecisions.get((row >> shift) & fmask)
        if value is not None:
            return steps, value
    return limit, None


def _schedule_of(log: RowStore, lid: int) -> Tuple[int, ...]:
    """Read the root-to-``lid`` pid schedule off the frontier log."""
    steps = []
    entry = log.get(lid)
    while True:
        parent1 = (entry >> 32) & FIELD_MASK
        if parent1 == 0:
            break
        steps.append((entry >> 96) & 0xFFFF)
        entry = log.get(parent1 - 1)
    steps.reverse()
    return tuple(steps)


class KernelExplorer:
    """Owns one compiled program plus its per-process-set spaces."""

    def __init__(self, system):
        self.program = CompiledProgram(system)
        self.system = system
        self._spaces = {}
        get_metrics().counter("kernel.compiles").inc()
        get_tracer().event(
            "kernel.compiled",
            protocol=type(system.protocol).__name__,
            mode="static" if self.program.static else "dynamic",
            states=len(self.program.codec.states),
            values=len(self.program.codec.values),
            field_bits=self.program.codec.field_bits,
        )

    def space(self, pid_set: FrozenSet[int]) -> _Space:
        sp = self._spaces.get(pid_set)
        if sp is None:
            sp = _Space(self.program, pid_set)
            self._spaces[pid_set] = sp
        return sp

    def close(self) -> None:
        for sp in self._spaces.values():
            sp.close()
        self._spaces.clear()
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
            codec.field_mask,
        )

    def explore(
        self,
        root: Configuration,
        pids,
        stop_when: Optional[FrozenSet[Hashable]] = None,
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
        branch_counts: dict = {}
        ctr = [0, 0, 0, 0]  # edges, dedup, truncated, pops

        space = self.space(pid_set)
        store = space.store
        if program.exact_canonical:
            exact = True
            admit = store.append
            lookup = store.find if store.spilling else store._index.get
        else:
            exact = False
            admit = space.resolve
            lookup = space.alias.get

        row0 = codec.pack(root)
        gcid0 = lookup(row0)
        if gcid0 is None:
            gcid0 = admit(row0)
            if exact and store.spilling:
                # The root admit may have crossed the spill threshold
                # (persistent space warmed by earlier explorations).
                lookup = store.find
        parents = {gcid0: 0}
        log = RowStore(
            _LOG_WIDTH, indexed=False, threshold=store.threshold, label="frontier"
        )
        found: dict = {}
        sorted_pids = sorted(pid_set)
        all_pids = tuple(range(program.n))
        state_shifts = codec.state_shifts
        decisions = program.decisions

        if program.deciding:
            for pid in all_pids:
                value = decisions[pid].get(
                    (row0 >> state_shifts[pid]) & codec.field_mask
                )
                if value is not None and value not in found:
                    found[value] = 0

        def finish(outcome: str) -> ExplorationResult:
            for value, lid in found.items():
                result.decided[value] = _schedule_of(log, lid)
            result.visited = len(parents)
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
            log.append(gcid0)  # root record: parent1=0, depth=0
            if stop_when is not None and stop_when <= found.keys():
                return finish("stopped")
            outcome = _hot_expand(
                log,
                store.get,
                lookup,
                admit,
                store,
                exact,
                program,
                program.plans,
                program.plan_miss,
                program.effect_miss,
                decisions,
                found,
                stop_when,
                sorted_pids,
                all_pids,
                state_shifts,
                codec.field_mask,
                parents,
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
            for branch in branch_counts:
                branching_h.observe_many(branch, branch_counts[branch])
            log.close()
