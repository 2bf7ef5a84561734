"""Differential proof-by-test that partial-order reduction changes
nothing observable.

``por=True`` may only skip *work* (step and canonical-key computations),
never results: parents maps, witnesses, visited counts, decision sets,
truncation flags must be bit-identical between the unpruned and the
POR search on arbitrary hypothesis-generated automata, and the
adversary must emit byte-identical certificates.
"""

from hypothesis import given
import hypothesis.strategies as st

from repro.analysis.explorer import Explorer
from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.core.valency import ValencyOracle
from repro.model.system import System
from repro.obs import MetricsRegistry, observe
from repro.protocols.consensus import CommitAdoptRounds, TasConsensus

from tests.test_parallel_differential import (
    DIFFERENTIAL,
    fresh_system,
    table_protocols,
)


def _explore(explorer, system, inputs_seed, protocol, stop_when=None):
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    root = system.initial_configuration(inputs)
    return explorer.explore(
        root, frozenset(range(protocol.n)), stop_when=stop_when
    )


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@DIFFERENTIAL
def test_sequential_por_is_bit_identical(protocol, inputs_seed):
    system = System(protocol)
    base = _explore(
        Explorer(system, max_configs=50_000), system, inputs_seed, protocol
    )
    por = _explore(
        Explorer(system, max_configs=50_000, por=True),
        system, inputs_seed, protocol,
    )
    assert por.decided == base.decided  # values AND witness schedules
    assert por.visited == base.visited
    assert por.complete == base.complete
    assert por.truncated == base.truncated
    assert por.witnesses_replay(fresh_system(protocol))


@given(protocol=table_protocols(), value=st.sampled_from((0, 1)))
@DIFFERENTIAL
def test_por_early_exit_is_bit_identical(protocol, value):
    """stop_when fires at the same logical point with pruning on."""
    system = System(protocol)
    target = frozenset({value})
    base = _explore(
        Explorer(system, max_configs=50_000), system, 1, protocol,
        stop_when=target,
    )
    por = _explore(
        Explorer(system, max_configs=50_000, por=True), system, 1, protocol,
        stop_when=target,
    )
    assert por.decided == base.decided
    assert por.visited == base.visited


def test_pruned_plus_stepped_edges_equals_unpruned_edges():
    """POR accounting is conservation-of-edges: every edge the baseline
    steps is either stepped or counted as pruned under POR."""
    system = System(CommitAdoptRounds(2))
    root = system.initial_configuration([0, 1])
    pids = frozenset(range(2))

    def edges(por):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            Explorer(system, max_configs=50_000, por=por).explore(root, pids)
        counters = registry.snapshot()["counters"]
        return (
            counters.get("explorer.edges", 0),
            counters.get("explorer.por_pruned", 0),
        )

    base_edges, base_pruned = edges(por=False)
    por_edges, por_pruned = edges(por=True)
    assert base_pruned == 0
    assert por_pruned > 0  # the reduction must actually reduce
    assert por_edges + por_pruned == base_edges


def test_adversary_certificate_is_identical_under_por():
    for protocol_maker in (lambda: CommitAdoptRounds(2), lambda: TasConsensus(2)):
        plain = space_lower_bound(System(protocol_maker()))
        pruned = space_lower_bound(System(protocol_maker()), por=True)
        assert to_json(plain) == to_json(pruned)


def test_oracle_answers_are_identical_under_por():
    protocol = CommitAdoptRounds(2)
    system = System(protocol)
    root = system.initial_configuration([0, 1])
    subsets = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
    plain = ValencyOracle(system)
    por = ValencyOracle(System(CommitAdoptRounds(2)), por=True)
    for pids in subsets:
        for value in (0, 1):
            decidable = plain.can_decide(root, pids, value)
            assert decidable == por.can_decide(root, pids, value)
            if decidable:
                assert plain.witness(root, pids, value) == por.witness(
                    root, pids, value
                )


def test_iter_reachable_yields_identical_paths():
    system = System(TasConsensus(2))
    root = system.initial_configuration([0, 1])
    pids = frozenset(range(2))
    base = list(Explorer(system).iter_reachable(root, pids))
    por = list(Explorer(system, por=True).iter_reachable(root, pids))
    assert por == base
