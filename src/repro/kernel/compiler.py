"""Lowering protocols to flat delta tables over packed rows.

A successor under the compiled kernel is ``row + delta`` -- one big-int
addition.  The compiler builds, per ``(pid, state-id)``, a *plan*::

    None                            process halted/decided
    (shift, table, op, pid, sid)    poised at ``op``

``cur = (row >> shift) & MASK`` reads the field the step depends on,
and ``table[cur]`` is the precomputed delta.  For a shared operation
that field is the register's value id, for a coin flip the pid's coin
counter; a table miss falls back to :meth:`CompiledProgram.effect_miss`,
which consults the object model once and memoises the delta forever.
A marker's response is constant, so its plan has the same shape with
no field to read: ``shift`` points past the row's last field, where
every row reads 0, and the table is ``{0: delta}`` from the start.
Every plan is therefore probed the same way.

Every protocol -- ``TableProtocol`` automata, DSL programs such as
``CommitAdoptRounds``, randomized protocols with coin flips -- lowers
the same way, on demand: plans and deltas are discovered through the
miss handlers, relying only on the model's purity contracts
(``poised``/``transition``/``decision`` and the coin tape are pure
functions of their arguments).  Ids are assigned in first-seen order;
a row is only ever compared for equality, inside the process that
packed it, so that order never shows (docs/THEORY.md, "One lowering
path").  The explorer's BFS and its solo runs read the same tables.

Decision probing rides on state interning: the moment a novel state is
interned the compiler asks ``protocol.decision(pid, state)`` for every
pid and records the verdicts in per-pid tables, so the explorer's
record-decisions step is dictionary probes only.
"""

from __future__ import annotations

from math import inf
from struct import Struct
from typing import List, Optional

from repro.errors import KernelError, ModelError
from repro.kernel.codec import FIELD_BITS, PackedCodec
from repro.model.operations import CoinFlip, Marker
from repro.model.process import Protocol
from repro.model.registers import apply_operation
from repro.model.system import System

#: Fallback reason slugs, also used as ``kernel.fallback.<slug>`` metric
#: suffixes and recorded in trace events.
REASON_SYSTEM_SUBCLASS = "system-subclass"


class _Table(dict):
    """A dict that fills a missing key from ``fill(key)`` on first probe;
    hits stay plain dict lookups, so ``map(table.__getitem__, ids)``
    probes a row's fields without a Python-level loop."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def kernel_unsupported_reason(system) -> Optional[str]:
    """Why ``system`` cannot run on the compiled kernel (None if it can).

    The kernel applies shared-memory semantics through
    :func:`apply_operation` directly; a ``System`` subclass may override
    ``_apply_shared`` (the fault-injecting ``FaultyMemorySystem``) or
    ask for the interpreter by its type (the reference
    ``InterpretedSystem``), so only exact ``System`` instances compile.
    """
    if type(system) is not System:
        return REASON_SYSTEM_SUBCLASS
    return None


class CompiledProgram:
    """A system lowered to packed-row delta tables."""

    def __init__(self, system: System):
        reason = kernel_unsupported_reason(system)
        if reason is not None:
            raise KernelError(f"system not compilable: {reason}")
        protocol = system.protocol
        self.protocol = protocol
        self.tape = system.tape
        self.n = protocol.n
        self.kinds = tuple(spec.kind for spec in protocol.object_specs())
        self.codec = PackedCodec(
            self.n, len(self.kinds), on_new_state=self._on_new_state
        )
        self.plans: List[dict] = [{} for _ in range(self.n)]
        self.decisions: List[dict] = [{} for _ in range(self.n)]
        # Canonical handling, read from the protocol's class: default keys
        # dedup on rows (packing is injective w.r.t. configuration
        # equality), a declared round-shift hook pair on canonical rows
        # from the tables below, any other override through the protocol.
        cls = type(protocol)
        derived = (
            cls.canonical_key is Protocol.canonical_key
            and cls.canonical_query_key is Protocol.canonical_query_key
        )
        self.round_shift = derived and cls.rounds_of is not Protocol.rounds_of
        self.exact_canonical = derived and not self.round_shift
        if self.round_shift:
            self._tabulate_rounds(protocol)

    # -- interning hooks ----------------------------------------------

    def _on_new_state(self, state, sid: int) -> None:
        # Fires from PackedCodec on every novel state: capture decisions
        # now so the hot loop never calls into the protocol.
        protocol = self.protocol
        for pid in range(self.n):
            value = protocol.decision(pid, state)
            if value is not None:
                self.decisions[pid][sid] = value

    def close(self) -> None:
        """Detach the codec's state hook, a bound method of this program.

        The program and its codec otherwise form a reference cycle that
        only the cyclic garbage collector frees; detached, a closed
        kernel is freed as soon as its explorer drops it.  A closed
        program must not intern new states: their decisions would go
        unrecorded.
        """
        self.codec._on_new_state = None

    # -- miss handlers (cold path) ------------------------------------

    def plan_miss(self, pid: int, sid: int):
        """Build (and memoise) the plan for ``(pid, sid)``."""
        codec = self.codec
        state = codec.states[sid]
        op = self.protocol.poised(pid, state)
        if op is None:
            plan = None
        elif isinstance(op, CoinFlip):
            plan = (codec.coin_shifts[pid], {}, op, pid, sid)
        elif isinstance(op, Marker):
            new_state = self.protocol.transition(pid, state, None)
            delta = (codec.state_id(new_state) - sid) << codec.state_shifts[pid]
            past_last_field = codec.field_count * FIELD_BITS
            plan = (past_last_field, {0: delta}, op, pid, sid)
        else:
            obj = op.obj
            if obj is None or not 0 <= obj < len(self.kinds):
                raise ModelError(f"operation {op!r} names bad object {obj!r}")
            plan = (codec.mem_shifts[obj], {}, op, pid, sid)
        self.plans[pid][sid] = plan
        return plan

    def effect_miss(self, plan, cur: int) -> int:
        """Compute (and memoise) the delta for ``plan`` at field ``cur``."""
        codec = self.codec
        shift, table, op, pid, sid = plan
        state = codec.states[sid]
        if isinstance(op, CoinFlip):
            # ``cur`` is the pid's coin counter; the tape is pure.
            response = self.tape(pid, cur)
            new_state = self.protocol.transition(pid, state, response)
            delta = (
                (codec.state_id(new_state) - sid) << codec.state_shifts[pid]
            ) + (1 << shift)
        else:
            value = codec.values[cur]
            new_value, response = apply_operation(self.kinds[op.obj], value, op)
            new_state = self.protocol.transition(pid, state, response)
            delta = (
                (codec.state_id(new_state) - sid) << codec.state_shifts[pid]
            ) + ((codec.value_id(new_value) - cur) << shift)
        table[cur] = delta
        return delta

    # -- round-shift quotient (cold path) -----------------------------

    def _tabulate_rounds(self, protocol: Protocol) -> None:
        """Lazy tables of the round-shift hook pair (docs/THEORY.md).

        ``state_rounds``/``value_rounds``: id -> least round its object
        carries (``inf``, the identity of ``min``, for none).
        ``shifted[base]``: state and value ids -> ids of their objects
        shifted down by ``base``, interned here, not in the codec, so no
        decision probe fires for them.  The fills close over the codec
        and protocol, not the program: :meth:`close` still frees it.
        """
        codec = self.codec
        interned: dict = {}

        def least(objects):
            return _Table(
                lambda i: min(protocol.rounds_of(objects[i]), default=inf)
            )

        def shifted(objects, base):
            # A row without rounds has base ``inf``; its objects carry
            # none, so they shift to themselves.
            return _Table(
                lambda i: interned.setdefault(
                    protocol.shift_rounds(objects[i], base), len(interned)
                )
            )

        self.state_rounds = least(codec.states)
        self.value_rounds = least(codec.values)
        self.shifted = _Table(
            lambda base: (
                shifted(codec.states, base),
                shifted(codec.values, base),
            )
        )
        # Rows convert to and from their fields in one C call each.
        self._fields = Struct(f"<{codec.field_count}I")

    def canonical_row(self, row: int) -> int:
        """``row`` under the round-shift quotient, as an integer row.

        Its state and register fields hold the ids of their objects
        shifted down by the row's least round; coin fields are copied.
        Two rows get equal canonical rows iff their configurations get
        equal ``Protocol.canonical_key`` values (docs/THEORY.md).
        """
        codec = self.codec
        fields = self._fields.unpack(row.to_bytes(codec.width_bytes, "little"))
        n = codec.n
        end = n + codec.registers
        sids = fields[:n]
        vids = fields[n:end]
        base = min(
            min(map(self.state_rounds.__getitem__, sids)),
            min(map(self.value_rounds.__getitem__, vids), default=inf),
        )
        states, values = self.shifted[base]
        return int.from_bytes(
            self._fields.pack(
                *map(states.__getitem__, sids),
                *map(values.__getitem__, vids),
                *fields[end:],
            ),
            "little",
        )
