"""Configurations: global states of the system.

A configuration of a protocol consists of the state of each process and
the contents of each register (paper, Section 2).  We additionally track
how many coin-tape bits each process has consumed, so that randomized
executions are replay-deterministic given the tapes.

Configurations are immutable values: hashing and equality are structural,
which is what lets the valency oracle memoise on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Tuple


@dataclass(frozen=True)
class Configuration:
    """Immutable global state: per-process states, memory, coin positions."""

    states: Tuple[Hashable, ...]
    memory: Tuple[Hashable, ...]
    coins: Tuple[int, ...]

    def __hash__(self) -> int:
        """Structural hash, computed once per instance.

        Configurations are dictionary keys everywhere (BFS dedup maps,
        the interner arena, valency memos), and the same instance is
        probed many times; caching turns every probe after the first
        into one attribute read.  Safe because every field is immutable.
        """
        try:
            return self._hash
        except AttributeError:
            cached = hash((self.states, self.memory, self.coins))
            object.__setattr__(self, "_hash", cached)
            return cached

    def __getstate__(self):
        """Pickle the fields only: ``hash()`` is salted per interpreter
        process, so a cached hash must never travel to another process."""
        return (self.states, self.memory, self.coins)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "states", state[0])
        object.__setattr__(self, "memory", state[1])
        object.__setattr__(self, "coins", state[2])

    @property
    def n(self) -> int:
        return len(self.states)

    def with_state(self, pid: int, state: Hashable) -> "Configuration":
        states = list(self.states)
        states[pid] = state
        return Configuration(tuple(states), self.memory, self.coins)

    def with_memory(self, obj: int, value: Hashable) -> "Configuration":
        memory = list(self.memory)
        memory[obj] = value
        return Configuration(self.states, tuple(memory), self.coins)

    def with_coin_consumed(self, pid: int) -> "Configuration":
        coins = list(self.coins)
        coins[pid] += 1
        return Configuration(self.states, self.memory, tuple(coins))

    def indistinguishable_to(
        self, other: "Configuration", pids: Iterable[int]
    ) -> bool:
        """True if ``pids`` cannot tell this configuration from ``other``.

        Paper, Section 2: C is indistinguishable from C' to a set of
        processes P if every process in P is in the same state and each
        register has the same contents.  (Coin positions of processes in
        P are part of their local state for this purpose.)
        """
        if self.memory != other.memory:
            return False
        for pid in pids:
            if self.states[pid] != other.states[pid]:
                return False
            if self.coins[pid] != other.coins[pid]:
                return False
        return True

    def describe(self) -> str:  # pragma: no cover - debugging aid
        mem = ", ".join(f"r{i}={v!r}" for i, v in enumerate(self.memory))
        return f"Configuration(memory=[{mem}])"


class ConfigurationInterner:
    """Arena mapping structurally-equal configurations to one instance.

    The valency engine re-derives the same configurations over and over
    (every query re-steps the same P-only graphs), and each derivation
    allocates a fresh :class:`Configuration` whose hash and equality are
    structural.  Interning collapses them: the first instance with a
    given structure becomes canonical, every later equal instance is
    swapped for it, and downstream memo tables can key on ``id()`` --
    one dict probe instead of re-hashing three tuples.

    The arena holds strong references, so the ``id`` of an interned
    configuration is stable for the arena's lifetime.  When the arena
    exceeds ``max_size`` it is cleared wholesale and ``generation`` is
    bumped; any table keyed by ``id()`` of interned configurations must
    be dropped when the generation changes (stale ids may be reused by
    the allocator once the arena's references are gone).
    """

    __slots__ = ("_arena", "max_size", "hits", "misses", "generation")

    def __init__(self, max_size: int = 1_000_000):
        # Keyed by the (states, memory, coins) triple rather than the
        # configuration itself, so :meth:`intern_parts` can resolve a
        # successor to its canonical instance without constructing a
        # throwaway Configuration first.  ``hash(config)`` equals the
        # triple's hash by definition, so both entry points agree.
        self._arena: Dict[tuple, Configuration] = {}
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self.generation = 0

    def intern(self, config: Configuration) -> Configuration:
        """The canonical instance structurally equal to ``config``."""
        key = (config.states, config.memory, config.coins)
        cached = self._arena.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if len(self._arena) >= self.max_size:
            self.clear()
        self.misses += 1
        self._arena[key] = config
        return config

    def intern_parts(
        self,
        states: Tuple[Hashable, ...],
        memory: Tuple[Hashable, ...],
        coins: Tuple[int, ...],
    ) -> Configuration:
        """Canonical instance for the given fields.

        Equivalent to ``intern(Configuration(states, memory, coins))``
        but skips the (frozen-dataclass) construction entirely when the
        configuration is already interned -- the common case on the
        incremental engine's memoised step path.
        """
        key = (states, memory, coins)
        cached = self._arena.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        if len(self._arena) >= self.max_size:
            self.clear()
        self.misses += 1
        config = Configuration(states, memory, coins)
        self._arena[key] = config
        return config

    def clear(self) -> None:
        """Drop the arena (invalidates every interned ``id``)."""
        self._arena.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._arena)

    def __contains__(self, config: Configuration) -> bool:
        return (config.states, config.memory, config.coins) in self._arena
