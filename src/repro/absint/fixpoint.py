"""The fixpoint engine: abstract reachability for whole protocols.

For a :class:`~repro.model.table.TableProtocol` the abstract state is a
pair ``(S, V)``: the set of automaton states any process may occupy and
one :class:`~repro.absint.domains.ValueSet` per register.  Both start
from the initial configuration for a chosen input set and grow
monotonically under the transfer functions until nothing changes; the
universes are finite (states and values appearing in the tables), so
termination is immediate.  Soundness is by induction over concrete
executions: the initial configuration is contained in ``(S₀, V₀)``, and
:func:`~repro.absint.transfer.table_rule_effect` covers every concrete
step a contained configuration can take, so every reachable
configuration stays contained — abstract ⊇ concrete, the direction the
differential soundness oracle (:mod:`repro.fuzz.oracle`) re-checks
dynamically on every engine.

DSL programs get the flow-insensitive transfer with ⊤ local state; any
other protocol is fully widened.  Precision degrades, soundness never
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.model.program import ProgramProtocol
from repro.model.table import TableProtocol
from repro.obs.runtime import get_metrics

from repro.absint.domains import ValueSet, atom
from repro.absint.transfer import program_effects, table_rule_effect

__all__ = [
    "AbstractReachability",
    "analyze_table",
    "analyze_program_protocol",
    "analyze_protocol",
    "top_reachability",
]


@dataclass(frozen=True)
class AbstractReachability:
    """Everything the fixpoint learned about one protocol + input set.

    ``states`` over-approximates the local states any process can
    occupy, ``memory[j]`` the contents of register ``j``, ``decisions``
    the decidable values, and ``writes`` the indices of registers some
    execution may overwrite (``widened_writes`` flags that the write set
    was smeared to the full universe and carries no information).
    """

    protocol: str
    n: int
    universe: int
    inputs: Tuple[Hashable, ...]
    states: ValueSet
    memory: Tuple[ValueSet, ...]
    decisions: ValueSet
    writes: FrozenSet[int]
    widened_writes: bool = False
    iterations: int = 0

    @property
    def is_top(self) -> bool:
        """True when the analysis learned nothing (hand-written code)."""
        return self.states.is_top() and all(v.is_top() for v in self.memory)

    def violation_for(self, config) -> Optional[str]:
        """A containment violation for one concrete configuration, or None.

        This is the machine side of "abstract ⊇ concrete": every process
        state and every register value of a *reachable* configuration
        must lie in the abstract sets.  A non-None answer is always an
        analyzer bug (or injected sabotage), never a protocol finding.
        """
        for pid, state in enumerate(config.states):
            if state not in self.states:
                return (
                    f"process {pid} occupies state {state!r}, outside the "
                    f"abstract state set {self.states.describe()}"
                )
        for index, value in enumerate(config.memory):
            if index >= self.universe:
                return f"register r{index} outside the declared universe"
            if value not in self.memory[index]:
                return (
                    f"register r{index} holds {value!r}, outside its "
                    f"abstract value set {self.memory[index].describe()}"
                )
        return None

    def to_json_dict(self) -> Dict:
        """Deterministic JSON form (shared atom convention)."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "universe": self.universe,
            "inputs": [atom(v) for v in self.inputs],
            "states": self.states.to_json(),
            "memory": [v.to_json() for v in self.memory],
            "decisions": self.decisions.to_json(),
            "writes": sorted(self.writes),
            "widened_writes": self.widened_writes,
            "iterations": self.iterations,
        }


def _sorted_inputs(values) -> Tuple[Hashable, ...]:
    return tuple(sorted(set(values), key=repr))


def _initial_memory(protocol: TableProtocol) -> List[Set[Hashable]]:
    return [{spec.initial} for spec in protocol.object_specs()]


def analyze_table(
    protocol: TableProtocol, inputs: Optional[Tuple[Hashable, ...]] = None
) -> AbstractReachability:
    """Run the fixpoint over a table automaton for one input set.

    ``inputs`` restricts which start states seed the analysis (default:
    every declared input).  Iteration order is repr-sorted everywhere,
    so results are bit-reproducible across processes — the differential
    layer depends on that.
    """
    if inputs is None:
        inputs = tuple(protocol.initial)
    inputs = _sorted_inputs(inputs)
    universe = protocol.registers
    memory = _initial_memory(protocol)
    states: Set[Hashable] = {
        protocol.initial[v] for v in inputs if v in protocol.initial
    }
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        for state in sorted(states, key=repr):
            if state in protocol.decisions:
                continue  # deciding states are halted: no rule fires
            rule = protocol.rules.get(state)
            if rule is None:
                continue  # stateless halt
            # Table universes are finite by construction, so the table
            # side never widens: exact ValueSets, no cardinality cap.
            possible = ValueSet(frozenset(memory[effect_reg(rule, universe)]))
            effect = table_rule_effect(rule, universe, possible)
            if effect.writes and effect.written not in memory[effect.register]:
                memory[effect.register].add(effect.written)
                changed = True
            for response in effect.responses:
                successor = protocol.transition(0, state, response)
                if successor not in states:
                    states.add(successor)
                    changed = True
    decide = ValueSet(
        frozenset(protocol.decisions[s] for s in states if s in protocol.decisions)
    )
    writes = frozenset(
        int(rule[1]) % universe
        for state, rule in protocol.rules.items()
        if state in states and state not in protocol.decisions
        and rule[0] != "read"
    )
    reach = AbstractReachability(
        protocol=protocol.name,
        n=protocol.n,
        universe=universe,
        inputs=inputs,
        states=ValueSet(frozenset(states)),
        memory=tuple(ValueSet(frozenset(v)) for v in memory),
        decisions=decide,
        writes=writes,
        widened_writes=False,
        iterations=iterations,
    )
    get_metrics().counter("absint.analyses").inc()
    return reach


def effect_reg(rule: Tuple, universe: int) -> int:
    """The register index a table rule targets (runtime modulo contract)."""
    return int(rule[1]) % universe


def analyze_program_protocol(
    protocol: ProgramProtocol, inputs: Optional[Tuple[Hashable, ...]] = None
) -> AbstractReachability:
    """Flow-insensitive analysis of a DSL protocol (⊤ local states).

    Local states of program processes are ``ProcState(pc, env)`` pairs
    with unbounded environments, so the state component widens to ⊤
    outright; the per-register value sets still carry information
    whenever every stored operand is a constant, which is what the
    value-aware write bound consumes.
    """
    universe = protocol.num_objects
    if inputs is None:
        inputs = ()
    inputs = _sorted_inputs(inputs)
    values: List[ValueSet] = [
        ValueSet.of(spec.initial) for spec in protocol.object_specs()
    ]
    decisions = ValueSet.bottom()
    seen = set()
    for pid in range(protocol.n):
        program = protocol.program(pid)
        if id(program) in seen:
            continue
        seen.add(id(program))
        effects = program_effects(program, universe)
        values = [v.join(e) for v, e in zip(values, effects.register_values)]
        decisions = decisions.join(effects.decisions)
    from repro.lint.footprint import protocol_footprint

    footprint = protocol_footprint(protocol)
    reach = AbstractReachability(
        protocol=getattr(protocol, "name", type(protocol).__name__),
        n=protocol.n,
        universe=universe,
        inputs=inputs,
        states=ValueSet.top_set(),
        memory=tuple(values),
        decisions=decisions,
        writes=footprint.writes,
        widened_writes=footprint.widened_writes,
        iterations=1,
    )
    get_metrics().counter("absint.analyses").inc()
    return reach


def top_reachability(protocol, inputs=()) -> AbstractReachability:
    """The all-⊤ element: sound for any protocol, informative for none."""
    universe = protocol.num_objects
    return AbstractReachability(
        protocol=getattr(protocol, "name", type(protocol).__name__),
        n=protocol.n,
        universe=universe,
        inputs=_sorted_inputs(inputs),
        states=ValueSet.top_set(),
        memory=tuple(ValueSet.top_set() for _ in range(universe)),
        decisions=ValueSet.top_set(),
        writes=frozenset(range(universe)),
        widened_writes=True,
        iterations=0,
    )


def analyze_protocol(
    protocol, inputs: Optional[Tuple[Hashable, ...]] = None
) -> AbstractReachability:
    """Dispatch on protocol representation, widening when unsure.

    Table analysis requires the *exact* transition semantics of
    :class:`TableProtocol` (the same ``type is`` discipline the kernel
    compiler uses for its static fast path), so subclasses fall through
    to the conservative branches.
    """
    if type(protocol) is TableProtocol:
        return analyze_table(protocol, inputs)
    if isinstance(protocol, ProgramProtocol):
        return analyze_program_protocol(protocol, inputs)
    return top_reachability(protocol, inputs or ())
