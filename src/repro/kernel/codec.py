"""Packed configuration codec: one big-int row per configuration.

A configuration ``(states, memory, coins)`` packs into a single Python
integer of 32-bit fields, little-field-first::

    field 0 .. n-1        state id of process pid        (interned)
    field n .. n+r-1      value id of register j         (interned)
    field n+r .. 2n+r-1   coins consumed by process pid  (raw count,
                          present only when the codec tracks coins)

State and value ids are interned in first-seen order through plain
dict lookups, so interning follows Python ``==``/``hash`` semantics
exactly like :class:`~repro.model.configuration.Configuration` equality
does.  In particular ``True`` and ``1`` (equal, equal hashes) intern to
the *same* id -- the packed row and the object configuration can never
disagree about which configurations are duplicates.

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

#: Field widths the codec may pack with.  32 is the compatibility
#: default; 8/16 are chosen by the compiler when the abstract
#: interpreter proves the state/value universes fit
#: (see ``CompiledProgram``'s static narrowing).
NARROW_BITS = (8, 16, 32)


class PackedCodec:
    """Bidirectional packer between ``Configuration`` and int rows.

    ``on_new_state`` fires once per freshly interned state object (the
    compiler hooks decision probing there so the hot loop never calls
    ``protocol.decision``).

    ``field_bits`` narrows every field from the default 32 bits; the
    per-field delta arithmetic stays exact at any width because effect
    tables are keyed by the actual old field value, so a successor add
    never borrows across field boundaries.  ``state_universe`` /
    ``value_universe`` optionally pin the closed universes the narrowing
    was derived from: interning anything outside them raises
    :class:`KernelError` — the lint-style cross-check that the abstract
    value sets really contain every concretely reached value.
    """

    def __init__(
        self,
        n: int,
        registers: int,
        *,
        track_coins: bool,
        on_new_state: Optional[Callable[[object, int], None]] = None,
        field_bits: int = FIELD_BITS,
        state_universe=None,
        value_universe=None,
    ):
        if field_bits not in NARROW_BITS:
            raise KernelError(
                f"unsupported field width {field_bits} (expected one of "
                f"{NARROW_BITS})"
            )
        self.n = n
        self.registers = registers
        self.track_coins = track_coins
        self.field_bits = field_bits
        self.field_mask = (1 << field_bits) - 1
        self.field_count = n + registers + (n if track_coins else 0)
        self.width_bytes = self.field_count * (field_bits // 8)
        self.state_shifts = tuple(pid * field_bits for pid in range(n))
        self.mem_shifts = tuple((n + j) * field_bits for j in range(registers))
        self.coin_shifts = tuple(
            (n + registers + pid) * field_bits for pid in range(n)
        ) if track_coins else ()
        self.state_universe = (
            None if state_universe is None else frozenset(state_universe)
        )
        self.value_universe = (
            None if value_universe is None else frozenset(value_universe)
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
            if self.state_universe is not None and state not in self.state_universe:
                raise KernelError(
                    f"narrowing unsound: state {state!r} was reached "
                    "concretely but lies outside its static abstract set"
                )
            sid = len(self.states)
            if sid > self.field_mask:
                raise KernelError(
                    f"state interner overflowed a {self.field_bits}-bit field"
                )
            self._state_ids[state] = sid
            self.states.append(state)
            if self._on_new_state is not None:
                self._on_new_state(state, sid)
        return sid

    def value_id(self, value) -> int:
        vid = self._value_ids.get(value)
        if vid is None:
            if self.value_universe is not None and value not in self.value_universe:
                raise KernelError(
                    f"narrowing unsound: register value {value!r} was "
                    "reached concretely but lies outside its static "
                    "abstract set"
                )
            vid = len(self.values)
            if vid > self.field_mask:
                raise KernelError(
                    f"value interner overflowed a {self.field_bits}-bit field"
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
        coins = config.coins
        if self.track_coins:
            for pid, count in enumerate(coins):
                if count > self.field_mask:
                    raise KernelError(
                        f"coin counter overflowed a {self.field_bits}-bit field"
                    )
                row |= count << self.coin_shifts[pid]
        elif any(coins):
            raise KernelError(
                "codec compiled without coin tracking cannot pack a "
                "configuration with consumed coins"
            )
        return row

    def unpack(self, row: int) -> Configuration:
        """Inverse of :meth:`pack`, up to ``==`` on interned values.

        The returned configuration is built from the interned
        *representatives* (first-seen objects), so it is ``==`` to --
        and hashes identically to -- every configuration that packs to
        ``row``.
        """
        mask = self.field_mask
        states = tuple(
            self.states[(row >> shift) & mask] for shift in self.state_shifts
        )
        memory = tuple(
            self.values[(row >> shift) & mask] for shift in self.mem_shifts
        )
        if self.track_coins:
            coins = tuple((row >> shift) & mask for shift in self.coin_shifts)
        else:
            coins = (0,) * self.n
        return Configuration(states=states, memory=memory, coins=coins)
