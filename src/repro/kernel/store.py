"""The visited arena: packed rows under dense ids, in RAM.

A :class:`RowStore` is an append-only sequence of packed rows (see
:mod:`repro.kernel.codec`), addressed by dense integer ids in append
order.  Each process set's visited space owns one; its ids are the
``gcid`` values the BFS frontier log records.  The rows live in one
list and, for exact-canonical protocols, the ``row -> id`` dedup index
in one dict.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class RowStore:
    """Append-only row sequence with an optional dedup index.

    ``get(rid)`` returns the row appended under id ``rid``.  An
    ``indexed`` store also answers ``find(row)``: the id of ``row``, or
    None.  Both are the list's and the dict's own bound lookups, so the
    hot loop probes them without an extra Python frame.  Unindexed
    stores (overridden-canonical spaces, which dedup through their own
    alias memo) have ``find = None``.
    """

    __slots__ = ("get", "find", "_rows", "_index")

    def __init__(self, *, indexed: bool = True):
        self._rows: List[int] = []
        self._index: Optional[Dict[int, int]] = {} if indexed else None
        self.get = self._rows.__getitem__
        self.find = None if self._index is None else self._index.get

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, row: int) -> int:
        """Append ``row`` (caller guarantees novelty when indexed)."""
        rid = len(self._rows)
        self._rows.append(row)
        if self._index is not None:
            self._index[row] = rid
        return rid
