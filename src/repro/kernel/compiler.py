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

``TableProtocol`` lowers *statically*: the whole state/value universe
is enumerated from the rule/transition/decision tables in a
deterministic (repr-sorted) order and every table is pre-populated, so
the hot loop runs with zero misses and the codec's id assignment -- and
therefore every packed row -- is process-stable.  Any other
protocol (DSL programs such as ``CommitAdoptRounds``, randomized
protocols with coin flips) lowers *dynamically*: plans and deltas are
discovered through the miss handlers.  Both paths rely only on the
model's purity contracts (``poised``/``transition``/``decision`` and
the coin tape are pure functions of their arguments).  The explorer's
BFS and its solo runs read the same tables.

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
from repro.kernel.codec import FIELD_BITS, NARROW_BITS, PackedCodec
from repro.model.operations import CoinFlip, Marker
from repro.model.process import Protocol
from repro.model.registers import apply_operation
from repro.model.system import System
from repro.model.table import TableProtocol
from repro.obs.runtime import get_metrics

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


def _narrow_bits(universe_size: int) -> int:
    """Smallest supported field width whose id space fits the universe."""
    for bits in NARROW_BITS:
        if universe_size <= (1 << bits):
            return bits
    raise KernelError(
        f"universe of {universe_size} entries exceeds every supported "
        "field width"
    )


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
        self.static = type(protocol) is TableProtocol
        # Static protocols are abstractly interpreted up front: the
        # fixpoint's state/value universes pick the narrowest packed
        # field width that fits, and double as closed interning
        # universes — any concrete value escaping them is a
        # :class:`KernelError` (abstract ⊇ concrete, checked live).
        self.reach = None
        field_bits = FIELD_BITS
        state_universe = value_universe = None
        if self.static:
            from repro.absint import analyze_table

            self.reach = analyze_table(protocol)
            state_universe = frozenset(self.reach.states.values)
            value_universe = frozenset().union(
                *(v.values for v in self.reach.memory)
            )
            field_bits = _narrow_bits(
                max(len(state_universe), len(value_universe))
            )
        # TableProtocol never issues coin flips (rules are read/write/
        # swap/tas only); everything else gets coin fields defensively.
        self.codec = PackedCodec(
            self.n,
            len(self.kinds),
            track_coins=not self.static,
            on_new_state=self._on_new_state,
            field_bits=field_bits,
            state_universe=state_universe,
            value_universe=value_universe,
        )
        if field_bits < FIELD_BITS:
            metrics = get_metrics()
            metrics.counter("kernel.narrowed").inc()
            metrics.counter("kernel.narrow.saved_bytes").inc(
                self.codec.field_count * (FIELD_BITS - field_bits) // 8
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
        if self.static:
            self._precompile(protocol)

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
            past_last_field = codec.field_count * codec.field_bits
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
        code = {8: "B", 16: "H", 32: "I"}[codec.field_bits]
        self._fields = Struct(f"<{codec.field_count}{code}")

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

    # -- static lowering ----------------------------------------------

    def _precompile(self, protocol: TableProtocol) -> None:
        """Pre-populate tables from the abstract reachability universes.

        The interpreter's fixpoint (``self.reach``) already enumerated
        every abstractly reachable state and every value each register
        can hold; interning exactly those — in repr-sorted order, so id
        assignment (hence every packed row) is process-stable — is what lets
        the codec pack narrower fields.  Effect tables are populated
        only for ``(plan, cur)`` pairs whose value is abstractly
        possible *for that plan's register*: any other pair can only be
        demanded by an execution the analysis missed, and then the
        interning cross-check fails loudly instead of silently widening.
        """
        codec = self.codec
        reach = self.reach
        for state in sorted(reach.states.values, key=repr):
            codec.state_id(state)
        value_universe = frozenset().union(*(v.values for v in reach.memory))
        for value in sorted(value_universe, key=repr):
            codec.value_id(value)
        possible_ids = [
            frozenset(codec.value_id(v) for v in vset.values)
            for vset in reach.memory
        ]
        for pid in range(self.n):
            for sid in range(len(codec.states)):
                plan = self.plan_miss(pid, sid)
                if plan is None:
                    continue
                for cur in sorted(possible_ids[plan[2].obj]):
                    self.effect_miss(plan, cur)
