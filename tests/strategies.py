"""Hypothesis strategies and helpers shared by the differential suites.

``table_protocols`` generates small arbitrary protocol automata
(:class:`repro.model.table.TableProtocol` -- well-formed step machines,
not necessarily correct consensus protocols).  The kernel
differential, the codec tests and the observability properties draw
their automata from it.
"""

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
