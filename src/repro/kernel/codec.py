"""Packed configuration codec: one big-int row per configuration.

A configuration ``(states, memory, coins)`` packs into a single Python
integer of 32-bit fields, little-field-first::

    field 0 .. n-1        state id of process pid        (interned)
    field n .. n+r-1      value id of register j         (interned)
    field n+r .. 2n+r-1   coins consumed by process pid  (raw count)

State and value ids are interned in first-seen order through plain
dict lookups, so interning follows Python ``==``/``hash`` semantics
exactly like :class:`~repro.model.configuration.Configuration` equality
does.  In particular ``True`` and ``1`` (equal, equal hashes) intern to
the *same* id -- the packed row and the object configuration can never
disagree about which configurations are duplicates.

Coin fields sit above every state and register field, and a Python int
stores no leading zero digits: a protocol that never flips a coin packs
to the int its states and registers alone would give.

Why one big int instead of ``array('I')``: successor computation
becomes a *single addition* of a precomputed delta (the compiler's
effect tables store ``(new_state - state) << state_shift +
(new_value - value) << value_shift``), and dedup is one dict probe on
an int.  Field extraction is a shift and a mask; no per-configuration
object allocation happens anywhere on the hot path.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import KernelError
from repro.model.configuration import Configuration

FIELD_BITS = 32
FIELD_MASK = (1 << FIELD_BITS) - 1


class PackedCodec:
    """Bidirectional packer between ``Configuration`` and int rows.

    ``on_new_state`` fires once per freshly interned state object (the
    compiler hooks decision probing there so the hot loop never calls
    ``protocol.decision``).
    """

    def __init__(
        self,
        n: int,
        registers: int,
        *,
        on_new_state: Optional[Callable[[object, int], None]] = None,
    ):
        self.n = n
        self.registers = registers
        self.field_count = 2 * n + registers
        self.width_bytes = self.field_count * (FIELD_BITS // 8)
        self.state_shifts = tuple(pid * FIELD_BITS for pid in range(n))
        self.mem_shifts = tuple((n + j) * FIELD_BITS for j in range(registers))
        self.coin_shifts = tuple(
            (n + registers + pid) * FIELD_BITS for pid in range(n)
        )
        # Interners: id -> object list, object -> id dict (== semantics).
        self.states: list = []
        self.values: list = []
        self._state_ids: dict = {}
        self._value_ids: dict = {}
        self._on_new_state = on_new_state

    # -- interning ----------------------------------------------------

    def state_id(self, state) -> int:
        sid = self._state_ids.get(state)
        if sid is None:
            sid = len(self.states)
            if sid > FIELD_MASK:
                raise KernelError(
                    f"state interner overflowed a {FIELD_BITS}-bit field"
                )
            self._state_ids[state] = sid
            self.states.append(state)
            if self._on_new_state is not None:
                self._on_new_state(state, sid)
        return sid

    def value_id(self, value) -> int:
        vid = self._value_ids.get(value)
        if vid is None:
            vid = len(self.values)
            if vid > FIELD_MASK:
                raise KernelError(
                    f"value interner overflowed a {FIELD_BITS}-bit field"
                )
            self._value_ids[value] = vid
            self.values.append(value)
        return vid

    # -- pack / unpack ------------------------------------------------

    def pack(self, config: Configuration) -> int:
        """Pack a configuration; interns novel states/values on the way."""
        row = 0
        for pid, state in enumerate(config.states):
            row |= self.state_id(state) << self.state_shifts[pid]
        for j, value in enumerate(config.memory):
            row |= self.value_id(value) << self.mem_shifts[j]
        for pid, count in enumerate(config.coins):
            if count > FIELD_MASK:
                raise KernelError(
                    f"coin counter overflowed a {FIELD_BITS}-bit field"
                )
            row |= count << self.coin_shifts[pid]
        return row

    def unpack(self, row: int) -> Configuration:
        """Inverse of :meth:`pack`, up to ``==`` on interned values.

        The returned configuration is built from the interned
        *representatives* (first-seen objects), so it is ``==`` to --
        and hashes identically to -- every configuration that packs to
        ``row``.
        """
        mask = FIELD_MASK
        states = tuple(
            self.states[(row >> shift) & mask] for shift in self.state_shifts
        )
        memory = tuple(
            self.values[(row >> shift) & mask] for shift in self.mem_shifts
        )
        coins = tuple((row >> shift) & mask for shift in self.coin_shifts)
        return Configuration(states=states, memory=memory, coins=coins)
