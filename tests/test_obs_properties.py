"""Property-based tests: explorer metrics are a function of the search.

Every engine that claims to run the same breadth-first search must
count the same events: each enabled step once (as an accepted edge or a
dedup hit), the same branching per configuration, and the same
frontier widths.  Hypothesis drives arbitrary small table protocols
through the interpreter and the compiled kernel under separate
registries and demands equal counters and histograms -- and equal
snapshots when the same search runs twice.
"""

from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.analysis.explorer import Explorer
from repro.model.system import InterpretedSystem, System
from repro.obs import MetricsRegistry, observe

from tests.test_parallel_differential import table_protocols

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The engine-independent instruments the equality argument covers.
COMPARED_COUNTERS = (
    "explorer.edges",
    "explorer.dedup_hits",
    "explorer.explorations",
    "explorer.visited",
)
COMPARED_HISTOGRAMS = ("explorer.branching", "explorer.frontier")


def explore_with_metrics(make_explorer, root, pids):
    registry = MetricsRegistry()
    with observe(metrics=registry):
        result = make_explorer().explore(root, pids)
    return result, registry.snapshot()


def assert_metrics_equal(expected, got):
    for name in COMPARED_COUNTERS:
        assert got["counters"].get(name) == expected["counters"].get(
            name
        ), name
    for name in COMPARED_HISTOGRAMS:
        want_h = expected["histograms"].get(name)
        got_h = got["histograms"].get(name)
        assert (want_h is None) == (got_h is None), name
        if want_h is not None:
            assert got_h["counts"] == want_h["counts"], name
            assert got_h["count"] == want_h["count"], name
            assert got_h["sum"] == want_h["sum"], name
    assert got["gauges"].get("explorer.frontier_peak") == expected[
        "gauges"
    ].get("explorer.frontier_peak")


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@PROPERTY
def test_compiled_kernel_metrics_equal_interpreter(protocol, inputs_seed):
    system = System(protocol)
    interpreted = InterpretedSystem(protocol)
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    root = system.initial_configuration(inputs)
    pids = frozenset(range(protocol.n))

    _, interp_snap = explore_with_metrics(
        lambda: Explorer(interpreted, max_configs=50_000), root, pids
    )
    _, compiled_snap = explore_with_metrics(
        lambda: Explorer(system, max_configs=50_000), root, pids
    )
    assert_metrics_equal(interp_snap, compiled_snap)


@given(protocol=table_protocols())
@PROPERTY
def test_metrics_are_deterministic_across_repeats(protocol):
    system = System(protocol)
    root = system.initial_configuration([0, 1] + [0] * (protocol.n - 2))
    pids = frozenset(range(protocol.n))

    def once():
        _, snap = explore_with_metrics(
            lambda: Explorer(system, max_configs=50_000), root, pids
        )
        return snap

    assert once() == once()
