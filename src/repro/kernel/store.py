"""The visited arena of one search: packed rows under dense ids, in RAM.

A :class:`RowStore` is an append-only sequence of packed rows (see
:mod:`repro.kernel.codec`), addressed by dense local ids (``lid``) in
append order, plus one dict from raw row to ``lid``.  Each
:meth:`~repro.kernel.explore.KernelExplorer.explore` call builds its
own and drops it on return: ``lid`` is the index of the row's record
in that search's frontier log, and the class id of every raw row the
dict holds -- a quotiented search records a raw row of a known class
as an alias of that class's ``lid``.
"""

from __future__ import annotations

from typing import Dict, List


class RowStore:
    """Append-only rows (``rows[lid]``) and their ``row -> lid`` index.

    The hot loop reads both containers directly, so probing them costs
    no extra Python frame.
    """

    __slots__ = ("rows", "index")

    def __init__(self):
        self.rows: List[int] = []
        self.index: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def append(self, row: int) -> int:
        """Store a row the index does not hold; returns its ``lid``."""
        lid = len(self.rows)
        self.rows.append(row)
        self.index[row] = lid
        return lid
