"""Refined valency (Definition 1) as an exact, memoised oracle.

The paper refines Fischer-Lynch-Paterson valency from whole
configurations to *subsets of processes*: a non-empty set P can decide v
from a reachable configuration C if some P-only execution from C decides
v.  P is bivalent from C if it can decide both values, v-univalent if it
can decide v but not the other value.

The oracle answers these questions exactly by exploring the P-only
reachable graph (deduplicated by the protocol's canonical abstraction).
Positive answers come with witness schedules; negative answers are only
given after the graph has been exhausted -- if the budget runs out first,
:class:`~repro.errors.ExplorationLimitError` propagates.

``initial_bivalent_configuration`` is Proposition 2: the initial
configuration in which process p0 has input 0 and p1 has input 1 is one
from which {p0} is 0-univalent, {p1} is 1-univalent, and hence {p0, p1}
is bivalent.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Sequence, Tuple

from repro.errors import AdversaryError
from repro.analysis.explorer import Explorer
from repro.model.configuration import Configuration
from repro.model.schedule import Schedule
from repro.model.system import System
from repro.obs.runtime import get_metrics, get_tracer


class Valence(enum.Enum):
    """Classification of a process set from a configuration."""

    ZERO = 0
    ONE = 1
    BIVALENT = "bivalent"
    NONE = "none"  # cannot decide anything (broken/limited protocols only)


BIVALENT = Valence.BIVALENT


class ValencyOracle:
    """Answers refined-valency queries for one system, with memoisation.

    Values default to binary consensus's {0, 1}; pass ``values`` for
    multi-valued or k-set protocols.
    """

    def __init__(
        self,
        system: System,
        values: Sequence[Hashable] = (0, 1),
        max_configs: int = 200_000,
        max_depth: Optional[int] = None,
        strict: bool = True,
        memoize: bool = True,
        solo_probe: bool = True,
        budget=None,
        cache=None,
        cache_dir=None,
    ):
        """``strict`` oracles answer exactly: a "cannot decide" is backed
        by an exhausted reachable graph, and budget overruns raise
        :class:`~repro.errors.ExplorationLimitError`.

        Non-strict ("bounded") oracles are for protocols whose P-only
        graphs are infinite (every real obstruction-free consensus
        protocol has infinite races): a search truncated by
        ``max_configs``/``max_depth`` without finding v is reported as
        "cannot decide v".  Positive answers and their witnesses remain
        exact either way.  Constructions guided by a bounded oracle can
        take a wrong turn and fail -- but any certificate they *do*
        produce is validated by pure replay, independent of valency.

        ``cache`` (a :class:`repro.parallel.ValencyCache`) or
        ``cache_dir`` enables the persistent on-disk result cache;
        disk-loaded witnesses are replay-validated before use.

        The engine follows the system's type
        (:class:`~repro.analysis.explorer.Explorer`): a ``System`` runs
        its searches and solo probes on the compiled kernel, an
        :class:`~repro.model.system.InterpretedSystem` on the reference
        interpreter.  Answers, witnesses and certificates are
        bit-identical either way.
        """
        self.system = system
        self.values = tuple(values)
        self.strict = strict
        #: Disabled only by the memoisation ablation benchmark.
        self.memoize = memoize
        #: The solo-run fast path for positive queries; disabled only by
        #: the same ablation benchmark.  This is the single biggest
        #: performance lever of the adversary (it pushes Theorem 1 runs
        #: from n=4 to n=6): constructions ask overwhelmingly positive
        #: questions, and solo termination answers them in one path.
        self.solo_probe = solo_probe
        #: Optional global watchdog (``tick(cost)``); nearly all of a
        #: construction's work happens inside oracle queries, so ticking
        #: here bounds the adversaries end to end.
        self.budget = budget
        self.explorer = Explorer(
            system,
            max_configs=max_configs,
            max_depth=max_depth,
            strict=strict,
            budget=budget,
        )
        if cache is None and cache_dir is not None:
            from repro.parallel.cache import ValencyCache

            cache = ValencyCache(cache_dir)
        #: Optional persistent result cache (None = memory-only memo).
        self.cache = cache
        self._fingerprint: Optional[str] = None
        if cache is not None:
            from repro.parallel.fingerprint import oracle_fingerprint

            self._fingerprint = oracle_fingerprint(
                system,
                self.values,
                strict=strict,
                max_configs=max_configs,
                max_depth=max_depth,
                solo_probe=solo_probe,
            )
        # Memo of stable digests per query key (None = not addressable).
        self._disk_digest: Dict[Hashable, Optional[str]] = {}
        # Keys whose disk entry has already been consulted this run.
        self._disk_checked: set = set()
        # (canonical key, pid frozenset) -> value -> witness schedule.
        self._witnesses: Dict[Tuple[Hashable, FrozenSet[int]], Dict[Hashable, Schedule]] = {}
        # (canonical key, pid frozenset) -> full decidable value set.
        self._complete: Dict[Tuple[Hashable, FrozenSet[int]], FrozenSet[Hashable]] = {}
        # Bounded mode only: values searched for and not found (heuristic).
        self._bounded_negative: Dict[Tuple[Hashable, FrozenSet[int]], set] = {}
        self._closed = False
        #: Query counters, exposed for the memoisation ablation benchmark
        #: and the cache benchmarks: ``explorations`` counts actual
        #: graph searches, ``disk_hits`` the searches avoided by the
        #: persistent cache.
        self.stats = {
            "queries": 0,
            "cache_hits": 0,
            "explored_configs": 0,
            "explorations": 0,
            "disk_hits": 0,
            "disk_stores": 0,
        }

    def _bump(self, name: str, amount: int = 1) -> None:
        """Advance a stats counter and its ``oracle.*`` registry mirror."""
        self.stats[name] += amount
        get_metrics().counter(f"oracle.{name}").inc(amount)

    def _observe_exploration(self, visited: int) -> None:
        """Account one graph search (the oracle's unit of real work)."""
        self._bump("explorations")
        self._bump("explored_configs", visited)
        get_metrics().histogram("oracle.search_size").observe(visited)

    def close(self) -> None:
        """Release the explorer's resources and retire the oracle.

        A closed oracle refuses further queries
        (:class:`~repro.errors.AdversaryError`): answers computed after
        close would silently skip the persistent cache and the kernel's
        shared tables, so a late query is almost always a lifecycle bug
        in the caller.  ``close`` itself is idempotent.
        """
        self._closed = True
        self.explorer.close()

    def _check_open(self) -> None:
        if self._closed:
            raise AdversaryError(
                "valency oracle is closed: queries after close() would "
                "bypass the persistent cache and memo state; query before "
                "closing (or build a fresh oracle)"
            )

    def __enter__(self) -> "ValencyOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ------------------------------------------------------------
    def _key(self, config: Configuration, pids: Iterable[int]) -> Hashable:
        return self.system.protocol.canonical_query_key(
            config, frozenset(pids)
        )

    def charge(self, cost: int = 1) -> None:
        """Charge construction-level work to the watchdog budget.

        Constructions route their own loop ticks through the oracle so
        subclasses can refine the accounting -- the journaled resume
        oracle waives charges while it is replaying logged answers
        (otherwise a fixed budget could be spent entirely on re-walking
        the already-journaled prefix, and chained resumes would never
        make progress).
        """
        if self.budget is not None:
            self.budget.tick(cost)

    #: Step cap for the solo-probe fast path (nondeterministic solo
    #: termination makes solo runs decide quickly; this only bounds the
    #: probe, not the answer).
    SOLO_PROBE_STEPS = 600

    def _solo_probe(
        self, config: Configuration, pids: FrozenSet[int]
    ) -> None:
        """Record witnesses from plain solo runs of each member of P.

        Most positive valency queries are answered by somebody deciding
        alone -- a one-path probe that is orders of magnitude cheaper
        than BFS and whose witnesses are exact.  On a ``System`` the
        runs read the compiled kernel's plan and effect tables, so
        lemma scans that re-probe overlapping solo chains pay a few
        dictionary probes per step, not a model step.
        """
        key = self._key(config, pids)
        known = self._witnesses.setdefault(key, {})
        for value in self.system.decided_values(config):
            known.setdefault(value, ())
        for pid in sorted(pids):
            if self.budget is not None:
                self.budget.tick()
            steps, value = self.explorer.solo(
                config, pid, self.SOLO_PROBE_STEPS
            )
            if value is not None:
                known.setdefault(value, (pid,) * steps)

    # -- persistent cache plumbing -----------------------------------------
    def _digest_for(self, key: Hashable) -> Optional[str]:
        """The stable on-disk address of a query key (memoised)."""
        if key in self._disk_digest:
            return self._disk_digest[key]
        from repro.parallel.fingerprint import UnstableKeyError, stable_digest

        try:
            digest: Optional[str] = stable_digest(key)
        except UnstableKeyError:
            digest = None
        self._disk_digest[key] = digest
        return digest

    def _disk_load(
        self, config: Configuration, pids: FrozenSet[int], key: Hashable
    ) -> bool:
        """Populate the memo caches from disk; True if an entry was used.

        Loaded witnesses are replay-validated from *this* configuration
        before anything is believed -- an entry that fails replay (a
        permuted symmetry sibling, or a semantically stale file that
        still passed its checksum) is ignored and recomputed.
        """
        if self.cache is None or key in self._disk_checked:
            return False
        self._disk_checked.add(key)
        digest = self._digest_for(key)
        if digest is None:
            return False
        body = self.cache.load(self._fingerprint, digest)
        if body is None:
            return False
        from repro.parallel.cache import decode_entry

        try:
            witnesses, complete, negative = decode_entry(body)
        except (KeyError, TypeError, ValueError):
            return False
        for value, schedule in witnesses.items():
            if not self._witness_replays(config, schedule, value):
                return False
        known = self._witnesses.setdefault(key, {})
        for value, schedule in witnesses.items():
            known.setdefault(value, schedule)
        if complete:
            self._complete[key] = frozenset(witnesses)
        if not self.strict and negative:
            self._bounded_negative.setdefault(key, set()).update(negative)
        return True

    def _disk_store(self, key: Hashable) -> None:
        """Snapshot the memo state for ``key`` to the on-disk cache."""
        if self.cache is None:
            return
        digest = self._digest_for(key)
        if digest is None:
            return
        from repro.parallel.cache import encode_entry

        body = encode_entry(
            self._witnesses.get(key, {}),
            key in self._complete,
            self._bounded_negative.get(key, set()) if not self.strict else (),
        )
        if body is None:
            return
        self.cache.store(self._fingerprint, digest, body)
        self._bump("disk_stores")

    def _explore(
        self,
        config: Configuration,
        pids: FrozenSet[int],
        stop_when: Optional[FrozenSet[Hashable]],
    ) -> bool:
        """Answer ``stop_when`` for this key; True if a search ran."""
        key = self._key(config, pids)
        if self._disk_load(config, pids, key) and stop_when is not None:
            known = set(self._witnesses.get(key, {}))
            if key in self._complete or stop_when <= known:
                self._bump("disk_hits")
                return False
            if not self.strict and stop_when <= (
                known | self._bounded_negative.get(key, set())
            ):
                # Bounded mode: the cold run also answered "not found"
                # for these values under the same budgets.
                self._bump("disk_hits")
                return False
        if self.solo_probe:
            self._solo_probe(config, pids)
            if stop_when is not None and stop_when <= set(
                self._witnesses.get(key, {})
            ):
                return False
        with get_tracer().span(
            "oracle.explore",
            pids=sorted(pids),
            stop_when=None if stop_when is None else sorted(stop_when, key=repr),
        ):
            result = self.explorer.explore(
                config, pids, stop_when=stop_when
            )
        self._observe_exploration(result.visited)
        known = self._witnesses.setdefault(key, {})
        for value, witness in result.decided.items():
            known.setdefault(value, witness)
        if result.complete:
            self._complete[key] = frozenset(result.decided)
        return True

    # -- queries -----------------------------------------------------------------
    def can_decide(
        self, config: Configuration, pids: Iterable[int], value: Hashable
    ) -> bool:
        """Definition 1: is there a P-only execution from C deciding v?"""
        pid_set = frozenset(pids)
        if not pid_set:
            raise ValueError("valency is defined for non-empty process sets")
        self._check_open()
        self._bump("queries")
        key = self._key(config, pid_set)
        if self.memoize:
            known = self._witnesses.get(key, {})
            if value in known:
                self._bump("cache_hits")
                return True
            if key in self._complete:
                self._bump("cache_hits")
                return value in self._complete[key]
            if value in self._bounded_negative.get(key, ()):
                self._bump("cache_hits")
                return False
        explored = self._explore(config, pid_set, stop_when=frozenset({value}))
        known = self._witnesses.get(key, {})
        if value in known:
            if explored:
                self._disk_store(key)
            return True
        if not self.strict:
            self._bounded_negative.setdefault(key, set()).add(value)
        if explored:
            self._disk_store(key)
        return False

    def witness(
        self, config: Configuration, pids: Iterable[int], value: Hashable
    ) -> Schedule:
        """A P-only schedule from C after which some process decided v.

        Cached witnesses are validated by replay from *this*
        configuration: under a symmetry-quotiented canonical key the
        cache entry may come from a permuted sibling whose schedule
        names different pids.  On a replay mismatch the witness is
        recomputed from this configuration directly.
        """
        pid_set = frozenset(pids)
        if not self.can_decide(config, pid_set, value):
            raise AdversaryError(
                f"processes {sorted(pid_set)} cannot decide {value!r} from "
                "this configuration; no witness exists"
            )
        schedule = self._witnesses[self._key(config, pid_set)][value]
        if self._witness_replays(config, schedule, value):
            return schedule
        with get_tracer().span(
            "oracle.explore", pids=sorted(pid_set), stop_when=[value],
            reason="witness-replay-mismatch",
        ):
            result = self.explorer.explore(
                config, pid_set, stop_when=frozenset({value})
            )
        self._observe_exploration(result.visited)
        fresh = result.decided.get(value)
        if fresh is None or not self._witness_replays(config, fresh, value):
            raise AdversaryError(
                f"failed to reconstruct a replayable witness for {value!r}"
            )
        self._witnesses[self._key(config, pid_set)][value] = fresh
        return fresh

    def _witness_replays(
        self, config: Configuration, schedule: Schedule, value: Hashable
    ) -> bool:
        try:
            final, _ = self.system.run(config, schedule)
        except Exception:  # noqa: BLE001 - any replay failure means "no"
            return False
        return value in self.system.decided_values(final)

    def decidable(
        self, config: Configuration, pids: Iterable[int]
    ) -> FrozenSet[Hashable]:
        """All values in the domain that P can decide from C."""
        return frozenset(
            v for v in self.values if self.can_decide(config, pids, v)
        )

    def is_bivalent(self, config: Configuration, pids: Iterable[int]) -> bool:
        """Can P decide at least two distinct values from C?"""
        found = 0
        for value in self.values:
            if self.can_decide(config, pids, value):
                found += 1
                if found >= 2:
                    return True
        return False

    def is_univalent(
        self, config: Configuration, pids: Iterable[int], value: Hashable
    ) -> bool:
        """Can P decide v but no other value from C?"""
        if not self.can_decide(config, pids, value):
            return False
        return not any(
            self.can_decide(config, pids, other)
            for other in self.values
            if other != value
        )

    def valence(self, config: Configuration, pids: Iterable[int]) -> Valence:
        """Classify P from C (binary domains map to the enum directly)."""
        decidable = self.decidable(config, pids)
        if len(decidable) >= 2:
            return Valence.BIVALENT
        if not decidable:
            return Valence.NONE
        only = next(iter(decidable))
        if only == 0:
            return Valence.ZERO
        if only == 1:
            return Valence.ONE
        return Valence.NONE if only is None else Valence.BIVALENT

    def some_decidable_value(
        self, config: Configuration, pids: Iterable[int]
    ) -> Hashable:
        """Proposition 1(i): P can decide *some* value from C.

        Raises :class:`AdversaryError` if not -- which for a protocol
        satisfying nondeterministic solo termination cannot happen, so a
        failure here is evidence the protocol is broken.
        """
        for value in self.values:
            if self.can_decide(config, pids, value):
                return value
        raise AdversaryError(
            f"processes {sorted(set(pids))} cannot decide any value; the "
            "protocol violates solo termination (Proposition 1(i))"
        )


def initial_bivalent_configuration(
    system: System,
    others_input: Hashable = 0,
    oracle: Optional[ValencyOracle] = None,
) -> Tuple[Configuration, int, int]:
    """Proposition 2: an initial configuration bivalent for a process pair.

    Returns ``(I, p0, p1)`` where process p0 = 0 starts with input 0,
    process p1 = 1 starts with input 1 (remaining processes start with
    ``others_input``), so that {p0} is 0-univalent and {p1} is 1-univalent
    from I by the validity property -- hence {p0, p1} is bivalent from I.

    The univalence facts are *checked* against the protocol via the
    oracle; a failure means the protocol violates validity, and a
    :class:`~repro.errors.AdversaryError` is raised with details.
    """
    n = system.protocol.n
    if n < 2:
        raise AdversaryError("Proposition 2 needs at least two processes")
    inputs = [others_input] * n
    inputs[0] = 0
    inputs[1] = 1
    config = system.initial_configuration(inputs)
    if oracle is None:
        oracle = ValencyOracle(system)
    for pid, value in ((0, 0), (1, 1)):
        if not oracle.can_decide(config, frozenset({pid}), value):
            raise AdversaryError(
                f"validity violated: process {pid} with input {value} cannot "
                f"decide {value} running solo"
            )
    return config, 0, 1
