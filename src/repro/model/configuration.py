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
from typing import Hashable, Iterable, Tuple


@dataclass(frozen=True)
class Configuration:
    """Immutable global state: per-process states, memory, coin positions."""

    states: Tuple[Hashable, ...]
    memory: Tuple[Hashable, ...]
    coins: Tuple[int, ...]

    def __hash__(self) -> int:
        """Structural hash, computed once per instance.

        Configurations are dictionary keys everywhere (BFS dedup maps,
        valency memos), and the same instance is probed many times;
        caching turns every probe after the first into one attribute
        read.  Safe because every field is immutable.
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

