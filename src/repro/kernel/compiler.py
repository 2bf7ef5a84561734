"""Lowering protocols to flat delta tables over packed rows.

A successor under the compiled kernel is ``row + delta`` -- one big-int
addition.  The compiler builds, per ``(pid, state-id)``, a *plan*::

    None                                   process halted/decided
    (PROBE, shift, table, op, pid, sid)
        shared op or coin flip: ``cur = (row >> shift) & MASK`` reads
        the affected field (register value id, or the pid's coin
        counter); ``table[cur]`` is the precomputed delta.  A table
        miss falls back to :meth:`CompiledProgram.effect_miss`, which
        consults the object model once and memoises the delta forever.
    (FIXED, 0, delta, op, pid, sid)
        marker/local op with a constant response: one fixed delta.

``TableProtocol`` lowers *statically*: the whole state/value universe
is enumerated from the rule/transition/decision tables in a
deterministic (repr-sorted) order and every table is pre-populated, so
the hot loop runs with zero misses and the codec's id assignment -- and
therefore every row fingerprint -- is process-stable.  Any other
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

from typing import List, Optional

from repro.errors import KernelError, ModelError
from repro.kernel.codec import FIELD_BITS, NARROW_BITS, PackedCodec
from repro.model.operations import CoinFlip, Marker
from repro.model.process import Protocol
from repro.model.registers import apply_operation
from repro.model.system import System
from repro.model.table import TableProtocol
from repro.obs.runtime import get_metrics

#: Plan modes (plan[0]).
PROBE = 0
FIXED = 1

#: Fallback reason slugs, also used as ``kernel.fallback.<slug>`` metric
#: suffixes and recorded in trace events.
REASON_SYSTEM_SUBCLASS = "system-subclass"


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
        self.system = system
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
        self.deciding = False
        # Canonical handling: protocols with the default exact canonical
        # key dedup directly on rows (packing is injective w.r.t.
        # configuration equality); protocols overriding the hooks get a
        # per-row canonicalisation memo in the explorer's spaces.
        self.exact_canonical = (
            type(protocol).canonical_key is Protocol.canonical_key
            and type(protocol).canonical_query_key
            is Protocol.canonical_query_key
        )
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
                self.deciding = True

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
            plan = (PROBE, codec.coin_shifts[pid], {}, op, pid, sid)
        elif isinstance(op, Marker):
            new_state = self.protocol.transition(pid, state, None)
            delta = (codec.state_id(new_state) - sid) << codec.state_shifts[pid]
            plan = (FIXED, 0, delta, op, pid, sid)
        else:
            obj = op.obj
            if obj is None or not 0 <= obj < len(self.kinds):
                raise ModelError(f"operation {op!r} names bad object {obj!r}")
            plan = (PROBE, codec.mem_shifts[obj], {}, op, pid, sid)
        self.plans[pid][sid] = plan
        return plan

    def effect_miss(self, plan, cur: int) -> int:
        """Compute (and memoise) the delta for ``plan`` at field ``cur``."""
        codec = self.codec
        _, shift, table, op, pid, sid = plan
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

    # -- static lowering ----------------------------------------------

    def _precompile(self, protocol: TableProtocol) -> None:
        """Pre-populate tables from the abstract reachability universes.

        The interpreter's fixpoint (``self.reach``) already enumerated
        every abstractly reachable state and every value each register
        can hold; interning exactly those — in repr-sorted order, so id
        assignment (hence fingerprints) is process-stable — is what lets
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
                if plan is None or plan[0] != PROBE:
                    continue
                for cur in sorted(possible_ids[plan[3].obj]):
                    self.effect_miss(plan, cur)
