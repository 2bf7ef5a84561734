"""Property-based differential tests: the valency cache changes nothing.

Hypothesis generates small arbitrary protocol automata
(:class:`repro.model.table.TableProtocol` -- well-formed step machines,
not necessarily correct consensus protocols) and checks that the
cache-backed oracle answers *exactly* the same cold and warm.  The
strategy and helpers here are shared by the other differential suites
(kernel, incremental, POR, obs).
"""

import tempfile

from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.core.valency import ValencyOracle
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


def fresh_system(protocol):
    """Rebuild the protocol from its constructor recipe -- a genuinely
    fresh system, as a later run would see it."""
    args, kwargs = protocol._ctor_args
    return System(type(protocol)(*args, **kwargs))


@given(protocol=table_protocols())
@DIFFERENTIAL
def test_cache_cold_and_warm_answers_are_identical(protocol):
    def query_all(oracle):
        root = oracle.system.initial_configuration(
            [0, 1] + [0] * (oracle.system.protocol.n - 2)
        )
        subsets = [frozenset({pid}) for pid in range(protocol.n)]
        subsets.append(frozenset(range(protocol.n)))
        return {
            (pids, value): oracle.can_decide(root, pids, value)
            for pids in subsets
            for value in VALUES
        }

    with tempfile.TemporaryDirectory() as cache_dir:
        cold = ValencyOracle(
            System(protocol), cache_dir=cache_dir, max_configs=50_000
        )
        cold_answers = query_all(cold)
        cold.close()
        warm = ValencyOracle(
            fresh_system(protocol), cache_dir=cache_dir, max_configs=50_000
        )
        warm_answers = query_all(warm)
        assert warm_answers == cold_answers
        # Every search the cold run performed is a disk hit now.
        assert warm.stats["explorations"] == 0
        warm.close()
