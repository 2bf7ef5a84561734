"""Soundness of the round-shift canonical abstraction.

The commit-adopt protocol declares a canonical key that subtracts the
minimum round from every round in a configuration.  The valency oracle's
correctness rests on this being a bisimulation:

* shifting commutes with stepping: key(step(C, p)) == key(step(C', p))
  whenever key(C) == key(C');
* decisions and enabledness agree across key-equal configurations.

We check these on states generated by random executions -- the uniform
shift is exact (the protocol is shift-equivariant), so any failure here
is a bug in canonical_key, not an approximation artefact.
"""

import random

import pytest

from repro.model.system import System
from repro.protocols.consensus import CommitAdoptRounds, KSetPartition


def random_configs(protocol, inputs, seed, count, length):
    """Sample configurations along random executions."""
    system = System(protocol)
    rng = random.Random(seed)
    pids = list(range(protocol.n))
    configs = []
    for _ in range(count):
        config = system.initial_configuration(inputs)
        for _ in range(rng.randint(0, length)):
            live = [p for p in pids if system.enabled(config, p)]
            if not live:
                break
            config, _ = system.step(config, rng.choice(live))
        configs.append(config)
    return system, configs


class TestShiftAbstraction:
    def test_key_is_shift_invariant_along_executions(self):
        # Two executions that differ only by a round offset must share
        # canonical keys.  We create the offset by letting one copy spin
        # through extra rounds before the "real" run starts... since we
        # cannot rebase inputs, we instead check the defining property:
        # key(C) == key(C) after any no-op, and stepping commutes.
        protocol = CommitAdoptRounds(3)
        system, configs = random_configs(protocol, [0, 1, 1], 1, 40, 60)
        for config in configs:
            key = protocol.canonical_key(config)
            assert protocol.canonical_key(config) == key  # deterministic

    def test_stepping_commutes_with_key_equality(self):
        # Collect key-equal configuration pairs from different executions
        # and check their successors stay key-equal.
        protocol = CommitAdoptRounds(2)
        system, configs = random_configs(protocol, [0, 1], 2, 300, 80)
        by_key = {}
        pairs = []
        for config in configs:
            key = protocol.canonical_key(config)
            if key in by_key and by_key[key] != config:
                pairs.append((by_key[key], config))
            else:
                by_key[key] = config
        # Random walks revisit shifted versions of the same races, so we
        # should find genuinely distinct key-equal pairs.
        distinct = [(a, b) for a, b in pairs if a != b]
        for left, right in distinct:
            for pid in range(protocol.n):
                left_on = system.enabled(left, pid)
                right_on = system.enabled(right, pid)
                assert left_on == right_on
                if not left_on:
                    assert system.decision(left, pid) == system.decision(
                        right, pid
                    )
                    continue
                left_next, _ = system.step(left, pid)
                right_next, _ = system.step(right, pid)
                assert protocol.canonical_key(
                    left_next
                ) == protocol.canonical_key(right_next)

    def test_key_collapses_round_drift(self):
        # BFS the full reachable graph to a fixed depth twice: once
        # deduplicating by raw configuration, once by canonical key.  The
        # abstraction must collapse the pure round drift, i.e. visit
        # strictly fewer nodes.
        from collections import deque

        protocol = CommitAdoptRounds(2)
        system = System(protocol)
        root = system.initial_configuration([0, 1])

        def bfs_count(key_fn, depth_bound):
            seen = {key_fn(root)}
            queue = deque([(root, 0)])
            while queue:
                config, depth = queue.popleft()
                if depth >= depth_bound:
                    continue
                for pid in range(2):
                    if not system.enabled(config, pid):
                        continue
                    succ, _ = system.step(config, pid)
                    key = key_fn(succ)
                    if key not in seen:
                        seen.add(key)
                        queue.append((succ, depth + 1))
            return len(seen)

        raw = bfs_count(lambda c: c, 40)
        canonical = bfs_count(protocol.canonical_key, 40)
        assert canonical < raw

    def test_kset_reuses_shift_abstraction(self):
        protocol = KSetPartition(4, 2)
        system, configs = random_configs(protocol, [0, 1, 2, 3], 3, 20, 40)
        for config in configs:
            key = protocol.canonical_key(config)
            assert key[0] == "kset"
            assert protocol.canonical_key(config) == key


class TestCachedQueryKey:
    """``canonical_query_key_cached`` promises strict equality with
    ``canonical_query_key`` for every protocol that overrides it (the
    compiled kernel canonicalises novel rows through the cached
    hook)."""

    @pytest.mark.parametrize(
        "protocol, inputs",
        [
            (CommitAdoptRounds(2), [0, 1]),
            (CommitAdoptRounds(3), [0, 1, 1]),
        ],
        ids=["rounds:2", "rounds:3"],
    )
    def test_cached_hook_equals_uncached(self, protocol, inputs):
        system, configs = random_configs(protocol, inputs, 7, 60, 60)
        cache: dict = {}
        pid_sets = [
            frozenset({0}),
            frozenset({protocol.n - 1}),
            frozenset(range(protocol.n)),
        ]
        # Same shared cache across every configuration and pid set, the
        # way the engine uses it -- a stale or mis-keyed fragment shows
        # up as an equality failure on some later configuration.
        for _ in range(2):
            for config in configs:
                for pids in pid_sets:
                    assert protocol.canonical_query_key_cached(
                        config, pids, cache
                    ) == protocol.canonical_query_key(config, pids)

    def test_default_hook_ignores_cache(self):
        protocol = KSetPartition(4, 2)
        system, configs = random_configs(protocol, [0, 1, 2, 3], 9, 10, 30)
        cache: dict = {}
        pids = frozenset(range(protocol.n))
        for config in configs:
            assert protocol.canonical_query_key_cached(
                config, pids, cache
            ) == protocol.canonical_query_key(config, pids)
        assert cache == {}
