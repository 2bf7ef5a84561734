"""An immutable, hashable variable environment for process-local state.

Process states must be hashable values so configurations can be used as
dictionary keys by the valency oracle and the explorers.  ``Env`` is a
small persistent mapping: ``set`` returns a new environment, equality and
hashing are structural.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Mapping, Tuple


class Env(Mapping[str, Hashable]):
    """Immutable mapping from variable names to hashable values: one
    dict plus the hash of its sorted pairs, computed once."""

    __slots__ = ("_lookup", "_hash")

    def __init__(self, mapping: Mapping[str, Hashable] | None = None):
        self._adopt(dict(mapping) if mapping else {})

    @classmethod
    def of_dict(cls, lookup: Dict[str, Hashable]) -> "Env":
        """An environment over ``lookup`` itself, not a copy: the caller
        hands the dict over and must not touch it again."""
        env = cls.__new__(cls)
        env._adopt(lookup)
        return env

    def _adopt(self, lookup: Dict[str, Hashable]) -> None:
        object.__setattr__(self, "_lookup", lookup)
        # Names are unique, so sorting the pairs never compares values.
        object.__setattr__(self, "_hash", hash(tuple(sorted(lookup.items()))))

    def __reduce__(self):
        """Pickle the bindings only: ``hash()`` is salted per interpreter
        process, so the cached hash must never travel between processes."""
        return (Env, (self._lookup,))

    # -- Mapping interface -------------------------------------------------
    def __getitem__(self, key: str) -> Hashable:
        return self._lookup[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._lookup)

    def __len__(self) -> int:
        return len(self._lookup)

    def __contains__(self, key: object) -> bool:
        return key in self._lookup

    # -- persistence -------------------------------------------------------
    def set(self, key: str, value: Hashable) -> "Env":
        """Return a copy of this environment with ``key`` bound to ``value``."""
        if key in self._lookup and self._lookup[key] == value:
            return self
        new = dict(self._lookup)
        new[key] = value
        return Env.of_dict(new)

    def update(self, mapping: Mapping[str, Hashable]) -> "Env":
        """Return a copy with every binding in ``mapping`` applied."""
        if not mapping:
            return self
        new = dict(self._lookup)
        new.update(mapping)
        return Env.of_dict(new)

    # -- value semantics ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        # The same pairs, compared with ``==`` after an identity check,
        # as the sorted pair tuples the hash is taken of.
        if isinstance(other, Env):
            return self._lookup == other._lookup
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def items_tuple(self) -> Tuple[Tuple[str, Hashable], ...]:
        """The canonical sorted (name, value) tuple the hash is taken of."""
        return tuple(sorted(self._lookup.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v!r}" for k, v in self.items_tuple())
        return f"Env({body})"


EMPTY_ENV = Env()
