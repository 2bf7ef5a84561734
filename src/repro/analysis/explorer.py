"""Breadth-first exploration of P-only reachable configurations.

The valency oracle needs to answer "can the process set P decide v from
configuration C?", i.e. whether some P-only execution from C reaches a
configuration where v has been decided (Definition 1 of the paper).  The
explorer computes the reachable graph of P-only steps, deduplicating
configurations by the protocol's :meth:`canonical_key`, and records a
parent pointer per configuration so witness schedules can be read back.

Exploration is exact: if the (canonical) reachable graph is larger than
the configured budget, :class:`~repro.errors.ExplorationLimitError` is
raised rather than returning a possibly-wrong answer.

Partial-order reduction (``por=True``)
--------------------------------------
The BFS wastes much of its time stepping *commuting diamonds*: if
processes p and q are poised at independent operations in C (disjoint
registers, or read/read on one register -- see
:mod:`repro.lint.independence`), then ``C.p.q`` and ``C.q.p`` are the
same configuration, and the second derivation is pure re-computation
that deduplication discards only after paying for the step and the
canonical key.  With ``por=True`` the explorer skips exactly those
derivations: when expanding a configuration X first discovered via pid
``p`` from parent C, a pid ``q < p`` whose poised operation commutes
with the one p took is not stepped.

Why the pruned search is *bit-identical* (not merely equivalent): q's
local state in X equals its state in C (only p moved), so q was enabled
at C with the same operation, and commutation gives ``X.q = (C.q).p``
as configurations.  ``C.q`` was discovered while expanding C *before* X
was (pids are expanded in ascending order and q < p), so it precedes X
in the FIFO queue and ``(C.q).p`` -- or its canonical-key equivalent,
key-equality being preserved by transitions per the
:meth:`~repro.model.process.Protocol.canonical_key` soundness contract
-- is recorded in ``parents`` before X is expanded.  Inductively the
lexicographically-first shortest derivation of every configuration is
never pruned (were it pruned, the commuted derivation through the
earlier sibling would be first, a contradiction), so the parent-pointer
map, the discovery order, the decision sets, the witness schedules, the
visited count, the budget tick sequence and every early-exit point are
exactly those of the unpruned search.  Only the pruned step/key
computations are saved; ``explorer.por_pruned`` counts them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple

from repro.errors import ExplorationLimitError
from repro.model.configuration import Configuration
from repro.model.schedule import Schedule
from repro.model.system import System
from repro.obs.runtime import get_metrics, get_tracer

#: Bucket edges for the successors-per-configuration histogram: the
#: branching factor is bounded by n, so fine low buckets tell the story.
BRANCHING_EDGES = (0, 1, 2, 3, 4, 6, 8, 12, 16, 32)

#: Default budget on distinct canonical configurations per exploration.
DEFAULT_MAX_CONFIGS = 200_000


def reconstruct_path(
    parents: Dict[Hashable, Optional[Tuple[Hashable, int]]],
    key: Hashable,
) -> Schedule:
    """Read the root-to-``key`` schedule off a BFS parent-pointer map.

    The explorer records, for every canonical key, the (parent key, pid)
    edge over which the key was *first* discovered, so the reconstructed
    schedule is always a genuine concrete execution from the root
    configuration -- it replays deterministically in a fresh
    :class:`~repro.model.system.System`.
    """
    steps: List[int] = []
    cursor = parents[key]
    while cursor is not None:
        parent_key, pid = cursor
        steps.append(pid)
        cursor = parents[parent_key]
    steps.reverse()
    return tuple(steps)


@dataclass
class ExplorationResult:
    """Outcome of one P-only exploration.

    ``decided`` maps each value that is decidable from the root to a
    witness schedule (a P-only schedule from the root after which some
    process has decided that value).  ``complete`` records whether the
    whole reachable graph was exhausted; when a ``stop_when`` target was
    hit early, or the depth bound truncated the frontier, the graph may
    be incomplete but ``decided`` is still sound for the values it
    contains.
    """

    root: Configuration
    pids: FrozenSet[int]
    decided: Dict[Hashable, Schedule] = field(default_factory=dict)
    visited: int = 0
    complete: bool = False
    truncated: bool = False

    def can_decide(self, value: Hashable) -> bool:
        return value in self.decided

    def witness(self, value: Hashable) -> Schedule:
        return self.decided[value]

    def witnesses_replay(self, system: System) -> bool:
        """Replay every witness from the root on ``system``.

        True iff each recorded schedule, applied to the root
        configuration, reaches a configuration where its value is
        decided.  Used by the differential tests to check that kernel,
        POR and cached runs hand out schedules a fresh system accepts.
        """
        for value, schedule in self.decided.items():
            final, _ = system.run(self.root, schedule)
            if value not in system.decided_values(final):
                return False
        return True


class Explorer:
    """Explores the configurations reachable by steps of a process set."""

    def __init__(
        self,
        system: System,
        max_configs: int = DEFAULT_MAX_CONFIGS,
        max_depth: Optional[int] = None,
        strict: bool = True,
        budget=None,
        por: bool = False,
        engine=None,
        kernel: str = "interp",
    ):
        """``strict`` explorers raise :class:`ExplorationLimitError` when
        the configuration budget is exceeded; non-strict explorers return
        a truncated (incomplete) result instead.  ``max_depth`` bounds
        the BFS depth (schedule length); a depth-truncated search is
        never ``complete``.

        ``budget`` is an optional global watchdog (an object with a
        ``tick(cost)`` method, see :class:`repro.faults.budget.Budget`):
        ticked once per expanded configuration, it turns every
        exploration -- and therefore every oracle-driven construction --
        into a run that terminates with
        :class:`~repro.errors.BudgetExhausted` instead of stalling.

        ``por`` enables the sound partial-order reduction described in
        the module docstring: results are bit-identical, redundant
        commuting-diamond derivations are skipped.

        ``engine`` is an optional
        :class:`~repro.core.incremental.IncrementalEngine`: the BFS then
        routes its pure model calls (step, canonical key, decisions)
        through the engine's interned memo tables and registers
        exhausted graphs for frontier reuse.  Memoising pure functions
        is invisible to the search -- results, metrics and early-exit
        points are bit-identical with or without an engine.

        ``kernel`` selects the exploration engine: ``"interp"`` (this
        class's object-walking loop) or ``"compiled"`` (the packed-row
        kernel of :mod:`repro.kernel`, bit-identical by the same
        differential contract).  An unsupported system falls back to
        the interpreter automatically; the reason is recorded in
        ``kernel.fallback.*`` counters, a ``kernel.fallback`` trace
        event, and :attr:`kernel_fallback_reason`."""
        self.system = system
        self.max_configs = max_configs
        self.max_depth = max_depth
        self.strict = strict
        self.budget = budget
        self.por = por
        self.engine = engine
        self.kernel = kernel
        self.kernel_fallback_reason: Optional[str] = None
        self._kernel_explorer = None
        self._kernel_resolved = False

    def _resolve_kernel(self):
        """Build (once) the compiled kernel explorer, or record why not."""
        if self._kernel_resolved:
            return self._kernel_explorer
        self._kernel_resolved = True
        from repro.errors import KernelError
        from repro.kernel import KernelExplorer, kernel_unsupported_reason

        reason = kernel_unsupported_reason(self.system)
        if reason is None:
            try:
                self._kernel_explorer = KernelExplorer(self.system)
                return self._kernel_explorer
            except KernelError:
                reason = "compile-error"
        self.kernel_fallback_reason = reason
        metrics = get_metrics()
        metrics.counter("kernel.fallbacks").inc()
        metrics.counter(f"kernel.fallback.{reason}").inc()
        get_tracer().event(
            "kernel.fallback",
            reason=reason,
            protocol=type(self.system.protocol).__name__,
        )
        return None

    def close(self) -> None:
        """Release kernel resources (spill segments, mmaps), if any."""
        if self._kernel_explorer is not None:
            self._kernel_explorer.close()
            self._kernel_explorer = None
            self._kernel_resolved = False

    def explore(
        self,
        root: Configuration,
        pids: FrozenSet[int] | Tuple[int, ...],
        stop_when: Optional[FrozenSet[Hashable]] = None,
    ) -> ExplorationResult:
        """BFS over P-only steps from ``root``.

        ``stop_when``: if given, exploration stops as soon as every value
        in the set has been found decidable (early exit for bivalence
        queries).  Without it, the reachable graph is exhausted up to the
        configured budgets.

        In strict mode, raises :class:`ExplorationLimitError` if the
        number of distinct canonical configurations exceeds the budget
        before the search finished -- the caller must not treat a partial
        search as evidence of univalence.  Depth truncation and
        non-strict budget truncation are reported via ``truncated`` /
        ``complete`` on the result.
        """
        if self.kernel == "compiled":
            kernel_explorer = self._resolve_kernel()
            if kernel_explorer is not None:
                return kernel_explorer.explore(
                    root,
                    pids,
                    stop_when,
                    max_configs=self.max_configs,
                    max_depth=self.max_depth,
                    strict=self.strict,
                    budget=self.budget,
                    por=self.por,
                    engine=self.engine,
                )
        system = self.system
        protocol = system.protocol
        pid_set = frozenset(pids)
        engine = self.engine
        if engine is not None:
            root = engine.intern(root)
        result = ExplorationResult(root=root, pids=pid_set)

        # Metric handles are hoisted once per exploration; under the
        # default observation each is one attribute increment.  The
        # quantities are engine-independent (see docs/THEORY.md):
        # edges = enabled steps taken, dedup hits = steps whose target
        # was already discovered, branching = enabled successors per
        # expanded configuration, frontier = discoveries per BFS depth.
        metrics = get_metrics()
        edges_c = metrics.counter("explorer.edges")
        dedup_c = metrics.counter("explorer.dedup_hits")
        pruned_c = metrics.counter("explorer.por_pruned")
        branching_h = metrics.histogram("explorer.branching", BRANCHING_EDGES)
        level_sizes: Dict[int, int] = {0: 1}

        # Deduplicate on the *query* key: configurations interchangeable
        # for P-only reachability (for symmetric protocols this quotients
        # by permutations fixing P setwise).  With an engine attached
        # the same pure functions are served from its memo tables.
        if engine is not None:
            # Bind the live per-pid_set key table once: hits become one
            # ``id()``-keyed probe.  The table object is stable (arena
            # generation changes clear it in place), and misses fall
            # back to ``engine.query_key`` which fills the same table.
            keys_table = engine.keys_for(pid_set)

            def key_of(config: Configuration) -> Hashable:
                entry = keys_table.get(id(config))
                if entry is not None:
                    return entry[1]
                return engine.query_key(config, pid_set)

            poised_of = engine.poised
            decided_of = engine.decided_values
            step_of = engine.step
        else:
            def key_of(config: Configuration) -> Hashable:
                return protocol.canonical_query_key(config, pid_set)

            poised_of = system.poised
            decided_of = system.decided_values

            def step_of(config: Configuration, pid: int) -> Configuration:
                return system.step(config, pid)[0]

        # parent[key] = (parent_key, pid) for witness reconstruction.
        parents: Dict[Hashable, Optional[Tuple[Hashable, int]]] = {}
        root_key = key_of(root)
        parents[root_key] = None
        # Queue entries carry the (pid, operation) edge over which the
        # configuration was first discovered (None at the root); the POR
        # skip condition is evaluated against it.
        queue = deque([(root, root_key, 0, None)])
        found: Dict[Hashable, Hashable] = {}  # value -> deciding key

        def record_decisions(config: Configuration, key: Hashable) -> None:
            for value in decided_of(config):
                if value not in found:
                    found[value] = key

        def finish(complete: bool) -> ExplorationResult:
            result.decided = {
                v: self._path(parents, k) for v, k in found.items()
            }
            result.visited = len(parents)
            result.complete = complete and not result.truncated
            metrics.counter("explorer.explorations").inc()
            metrics.counter("explorer.visited").inc(result.visited)
            frontier_h = metrics.histogram("explorer.frontier")
            for depth_level in sorted(level_sizes):
                frontier_h.observe(level_sizes[depth_level])
            metrics.gauge("explorer.frontier_peak").set_max(
                max(level_sizes.values())
            )
            get_tracer().event(
                "explore.done",
                engine="sequential",
                pids=sorted(pid_set),
                visited=result.visited,
                complete=result.complete,
                truncated=result.truncated,
                decided=sorted(found, key=repr),
            )
            if engine is not None and result.complete:
                # The whole P-only reachable graph was exhausted (no
                # truncation, no stop_when early exit): index its node
                # keys for frontier reuse.
                engine.register_graph(
                    pid_set, parents.keys(), frozenset(found)
                )
            return result

        record_decisions(root, root_key)
        if stop_when is not None and stop_when <= found.keys():
            return finish(complete=False)

        por = self.por
        if por:
            from repro.lint.independence import operations_commute

        sorted_pids = sorted(pid_set)
        while queue:
            config, key, depth, via = queue.popleft()
            if self.budget is not None:
                self.budget.tick()
            if self.max_depth is not None and depth >= self.max_depth:
                result.truncated = True
                continue
            branch = 0
            for pid in sorted_pids:
                op = poised_of(config, pid)
                if op is None:
                    continue
                if (
                    por
                    and via is not None
                    and pid < via[0]
                    and operations_commute(via[1], op)
                ):
                    # Commuting diamond: this successor was already
                    # derived through the earlier sibling (see module
                    # docstring); skip the step and the key.
                    pruned_c.inc()
                    continue
                branch += 1
                edges_c.inc()
                succ = step_of(config, pid)
                succ_key = key_of(succ)
                if succ_key in parents:
                    dedup_c.inc()
                    continue
                parents[succ_key] = (key, pid)
                if len(parents) > self.max_configs:
                    if self.strict:
                        get_tracer().event(
                            "exploration_limit",
                            visited=len(parents),
                            max_configs=self.max_configs,
                            pids=sorted(pid_set),
                        )
                        raise ExplorationLimitError(
                            f"exploration from root exceeded "
                            f"{self.max_configs} configurations "
                            f"(pids={sorted(pid_set)})",
                            visited=len(parents),
                        )
                    result.truncated = True
                    return finish(complete=False)
                record_decisions(succ, succ_key)
                if stop_when is not None and stop_when <= found.keys():
                    return finish(complete=False)
                level_sizes[depth + 1] = level_sizes.get(depth + 1, 0) + 1
                queue.append((succ, succ_key, depth + 1, (pid, op)))
            branching_h.observe(branch)

        return finish(complete=True)

    @staticmethod
    def _path(
        parents: Dict[Hashable, Optional[Tuple[Hashable, int]]],
        key: Hashable,
    ) -> Schedule:
        """Reconstruct the schedule from the root to ``key``."""
        return reconstruct_path(parents, key)

    def reachable_count(
        self, root: Configuration, pids: FrozenSet[int] | Tuple[int, ...]
    ) -> int:
        """Number of distinct canonical configurations reachable P-only."""
        return self.explore(root, pids).visited

    def iter_reachable(
        self, root: Configuration, pids: FrozenSet[int] | Tuple[int, ...]
    ) -> Iterator[Tuple[Configuration, Schedule]]:
        """Lazily yield (configuration, schedule-from-root) pairs, BFS order.

        Deduplicated by the protocol's canonical key, bounded by
        ``max_configs``/``max_depth`` like :meth:`explore`; the generator
        simply stops at the budget in non-strict mode.  Crash campaigns
        use this to quantify "for every reachable configuration, for
        every survivor subset ..." without materialising the graph.
        """
        system = self.system
        protocol = system.protocol
        pid_set = frozenset(pids)
        por = self.por
        if por:
            from repro.lint.independence import operations_commute
        seen = {protocol.canonical_query_key(root, pid_set)}
        queue = deque([(root, (), 0, None)])
        while queue:
            config, path, depth, via = queue.popleft()
            if self.budget is not None:
                self.budget.tick()
            yield config, path
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            for pid in sorted(pid_set):
                op = system.poised(config, pid)
                if op is None:
                    continue
                if (
                    por
                    and via is not None
                    and pid < via[0]
                    and operations_commute(via[1], op)
                ):
                    continue
                succ, _ = system.step(config, pid)
                succ_key = protocol.canonical_query_key(succ, pid_set)
                if succ_key in seen:
                    continue
                if len(seen) >= self.max_configs:
                    if self.strict:
                        get_tracer().event(
                            "exploration_limit",
                            visited=len(seen),
                            max_configs=self.max_configs,
                            pids=sorted(pid_set),
                        )
                        raise ExplorationLimitError(
                            f"reachable iteration exceeded "
                            f"{self.max_configs} configurations "
                            f"(pids={sorted(pid_set)})",
                            visited=len(seen),
                        )
                    return
                seen.add(succ_key)
                queue.append((succ, path + (pid,), depth + 1, (pid, op)))
