"""Hypothesis strategies and helpers shared by the differential suites.

``table_protocols`` generates small arbitrary protocol automata
(:class:`repro.model.table.TableProtocol` -- well-formed step machines,
not necessarily correct consensus protocols).  The kernel
differential, the codec tests and the observability properties draw
their automata from it.  ``random_configs`` samples the configurations
of any protocol along seeded random executions, and
``assert_metrics_equal`` compares the explorer instruments two engines
must count alike.
"""

import random

from hypothesis import HealthCheck, settings
import hypothesis.strategies as st

from repro.model.system import System
from repro.model.table import TableProtocol

VALUES = (0, 1)
RESPONSES = (None, 0, 1)

DIFFERENTIAL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def table_protocols(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    num_states = draw(st.integers(min_value=2, max_value=4))
    registers = draw(st.integers(min_value=1, max_value=2))
    state = st.integers(min_value=0, max_value=num_states - 1)
    reg = st.integers(min_value=0, max_value=registers - 1)
    initial = {0: draw(state), 1: draw(state)}
    rules = {}
    decisions = {}
    for s in range(num_states):
        role = draw(st.sampled_from(["read", "write", "decide", "halt"]))
        if role == "decide":
            decisions[s] = draw(st.sampled_from(VALUES))
        elif role == "read":
            rules[s] = ("read", draw(reg))
        elif role == "write":
            rules[s] = ("write", draw(reg), draw(st.sampled_from(VALUES)))
    defaults = {s: draw(state) for s in rules}
    transitions = {}
    for s in rules:
        for response in RESPONSES:
            if draw(st.booleans()):
                transitions[(s, response)] = draw(state)
    return TableProtocol(
        n=n,
        registers=registers,
        initial=initial,
        rules=rules,
        transitions=transitions,
        defaults=defaults,
        decisions=decisions,
    )


def fresh_system(protocol, system_class=System):
    """Rebuild the protocol from its constructor recipe -- a genuinely
    fresh system, as a later run would see it."""
    args, kwargs = protocol._ctor_args
    return system_class(type(protocol)(*args, **kwargs))


def random_configs(protocol, inputs, seed, count, length):
    """Sample configurations along random executions."""
    system = System(protocol)
    rng = random.Random(seed)
    pids = list(range(protocol.n))
    configs = []
    for _ in range(count):
        config = system.initial_configuration(inputs)
        for _ in range(rng.randint(0, length)):
            live = [p for p in pids if system.enabled(config, p)]
            if not live:
                break
            config, _ = system.step(config, rng.choice(live))
        configs.append(config)
    return system, configs


#: The engine-independent instruments the equality argument covers.
COMPARED_COUNTERS = (
    "explorer.edges",
    "explorer.dedup_hits",
    "explorer.explorations",
    "explorer.visited",
)
COMPARED_HISTOGRAMS = ("explorer.branching", "explorer.frontier")


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
