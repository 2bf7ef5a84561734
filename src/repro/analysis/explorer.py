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

Engine selection is by the system's type: an exact
:class:`~repro.model.system.System` runs on the compiled kernel
(:mod:`repro.kernel`), any subclass -- the reference
:class:`~repro.model.system.InterpretedSystem`, fault-injecting
wrappers -- runs on this module's object-walking loop.  Both return
bit-identical results.

The consensus checker (:mod:`repro.analysis.checker`) is this search
over all processes with a ``violates`` predicate over decided values:
it stops at the pop of the first violating discovery, so a violation
the budget cuts off before its pop goes unreported.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple

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
    contains.  ``violation`` is the schedule to the first configuration
    a ``violates`` predicate flagged, when the search reached its pop.
    """

    root: Configuration
    pids: FrozenSet[int]
    decided: Dict[Hashable, Schedule] = field(default_factory=dict)
    visited: int = 0
    complete: bool = False
    truncated: bool = False
    violation: Optional[Schedule] = None

    def can_decide(self, value: Hashable) -> bool:
        return value in self.decided

    def witness(self, value: Hashable) -> Schedule:
        return self.decided[value]

    def witnesses_replay(self, system: System) -> bool:
        """Replay every witness from the root on ``system``.

        True iff each recorded schedule, applied to the root
        configuration, reaches a configuration where its value is
        decided.  Used by the differential tests to check that kernel
        runs hand out schedules a fresh system accepts.
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

        The exploration engine is chosen by the system: one the kernel
        compiles runs on the packed-row kernel of :mod:`repro.kernel`
        (bit-identical by the differential contract), any other on this
        class's object-walking loop.  The reason a system runs on the
        interpreter is recorded in ``kernel.fallback.*`` counters, a
        ``kernel.fallback`` trace event, and
        :attr:`kernel_fallback_reason`."""
        self.system = system
        self.max_configs = max_configs
        self.max_depth = max_depth
        self.strict = strict
        self.budget = budget
        self.kernel_fallback_reason: Optional[str] = None
        self._kernel_explorer = None
        self._kernel_resolved = False

    def _resolve_kernel(self):
        """Build (once) the compiled kernel explorer, or record why not."""
        if self._kernel_resolved:
            return self._kernel_explorer
        self._kernel_resolved = True
        from repro.kernel import KernelExplorer, kernel_unsupported_reason

        reason = kernel_unsupported_reason(self.system)
        if reason is None:
            self._kernel_explorer = KernelExplorer(self.system)
            return self._kernel_explorer
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
        """Release the compiled kernel and its tables, if any."""
        if self._kernel_explorer is not None:
            self._kernel_explorer.close()
            self._kernel_explorer = None
            self._kernel_resolved = False

    def explore(
        self,
        root: Configuration,
        pids: FrozenSet[int] | Tuple[int, ...],
        stop_when: Optional[FrozenSet[Hashable]] = None,
        violates: Optional[Callable[[FrozenSet[Hashable]], bool]] = None,
    ) -> ExplorationResult:
        """BFS over P-only steps from ``root``.

        ``stop_when``: if given, exploration stops as soon as every value
        in the set has been found decidable (early exit for bivalence
        queries).  Without it, the reachable graph is exhausted up to the
        configured budgets.

        ``violates``: if given, a predicate over the set of values
        decided in a configuration, tested on the root and on every
        discovery.  The search stops when the first configuration it
        flagged is about to be popped, and reports the schedule to it as
        ``violation``; a budget reached before that pop wins.  It must
        flag no subset of a set it passes: a step that decides nothing
        only shrinks the set, so the kernel tests only deciding steps.

        In strict mode, raises :class:`ExplorationLimitError` if the
        number of distinct canonical configurations exceeds the budget
        before the search finished -- the caller must not treat a partial
        search as evidence of univalence.  Depth truncation and
        non-strict budget truncation are reported via ``truncated`` /
        ``complete`` on the result.
        """
        kernel_explorer = self._resolve_kernel()
        if kernel_explorer is not None:
            return kernel_explorer.explore(
                root,
                pids,
                stop_when,
                violates,
                max_configs=self.max_configs,
                max_depth=self.max_depth,
                strict=self.strict,
                budget=self.budget,
            )
        system = self.system
        protocol = system.protocol
        pid_set = frozenset(pids)
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
        branching_h = metrics.histogram("explorer.branching", BRANCHING_EDGES)
        level_sizes: Dict[int, int] = {0: 1}

        # Deduplicate on the *query* key: configurations interchangeable
        # for P-only reachability (for symmetric protocols this quotients
        # by permutations fixing P setwise).
        def key_of(config: Configuration) -> Hashable:
            return protocol.canonical_query_key(config, pid_set)

        # parent[key] = (parent_key, pid) for witness reconstruction.
        parents: Dict[Hashable, Optional[Tuple[Hashable, int]]] = {}
        root_key = key_of(root)
        parents[root_key] = None
        queue = deque([(root, root_key, 0)])
        found: Dict[Hashable, Hashable] = {}  # value -> deciding key
        violating: Hashable = None  # key of the first flagged discovery

        def record_decisions(config: Configuration, key: Hashable) -> None:
            nonlocal violating
            decided = system.decided_values(config)
            for value in decided:
                if value not in found:
                    found[value] = key
            if violates is not None and violating is None:
                if violates(decided):
                    violating = key

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
            return result

        record_decisions(root, root_key)
        if stop_when is not None and stop_when <= found.keys():
            return finish(complete=False)

        sorted_pids = sorted(pid_set)
        while queue:
            config, key, depth = queue.popleft()
            if key is violating:
                result.violation = self._path(parents, key)
                return finish(complete=False)
            if self.budget is not None:
                self.budget.tick()
            if self.max_depth is not None and depth >= self.max_depth:
                result.truncated = True
                continue
            branch = 0
            for pid in sorted_pids:
                if system.poised(config, pid) is None:
                    continue
                branch += 1
                edges_c.inc()
                succ, _ = system.step(config, pid)
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
                queue.append((succ, succ_key, depth + 1))
            branching_h.observe(branch)

        return finish(complete=True)

    def solo(
        self, config: Configuration, pid: int, limit: int
    ) -> Tuple[int, Optional[Hashable]]:
        """Run ``pid`` alone from ``config`` for at most ``limit`` steps.

        Returns ``(steps, value)``: ``value`` is what ``pid`` decided
        after its ``steps``-th step, or None if it halted undecided or
        was still running after ``limit`` steps.  Decisions already
        made in ``config`` are not reported.  The engine follows the
        system's type, like :meth:`explore`; both give the same pair.
        """
        kernel_explorer = self._resolve_kernel()
        if kernel_explorer is not None:
            return kernel_explorer.solo(config, pid, limit)
        system = self.system
        for steps in range(1, limit + 1):
            if not system.enabled(config, pid):
                return steps - 1, None
            config, _ = system.step(config, pid)
            value = system.decision(config, pid)
            if value is not None:
                return steps, value
        return limit, None

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
        seen = {protocol.canonical_query_key(root, pid_set)}
        queue = deque([(root, (), 0)])
        while queue:
            config, path, depth = queue.popleft()
            if self.budget is not None:
                self.budget.tick()
            yield config, path
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            for pid in sorted(pid_set):
                if system.poised(config, pid) is None:
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
                queue.append((succ, path + (pid,), depth + 1))
