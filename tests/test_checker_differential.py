"""The exhaustive checker equals its reference, field for field.

``check_consensus_exhaustive`` is one explorer search over all pids
with a violation predicate; ``tests/checker_reference.py`` keeps the
checker's own object-model BFS.  Hypothesis draws a protocol (a
generated table automaton, or a CLI consensus spec with n <= 4), an
input vector from ``input_vectors(n)``, a cap (2-200, or one that
exhausts the small graphs), ``strict`` either way and a system type:
``System`` (the compiled kernel), ``InterpretedSystem`` (the explorer's
object loop) or a ``FaultyMemorySystem`` under a seeded fault plan.
Every ``CheckResult`` field must equal the reference's, and a strict
search must raise at the same ``visited`` count.

The pinned cases cover what random draws reach only by luck: a
violation at the root, a violation discovered within the cap but
popped after it (unreported, as the reference's pop-time test has it),
and the kernel's generic and canonical-row dedup paths.
"""

from collections import deque

from hypothesis import example, given, settings
import hypothesis.strategies as st

import pytest

from repro.analysis.checker import check_consensus_exhaustive
from repro.analysis.explorer import Explorer
from repro.analysis.symmetry import SymmetricKey
from repro.cli import parse_protocol
from repro.errors import ExplorationLimitError
from repro.faults.harness import DEFAULT_FAULT_PLANS
from repro.faults.registers import FaultyMemorySystem
from repro.fuzz.oracle import input_vectors
from repro.model.system import InterpretedSystem, System
from repro.model.table import TableProtocol
from repro.obs import MetricsRegistry, observe
from repro.protocols.consensus import SplitBrainConsensus

from tests.checker_reference import check_consensus_reference
from tests.strategies import (
    DIFFERENTIAL,
    assert_metrics_equal,
    table_protocols,
)

#: The CLI's consensus specs with at most four processes.
SPECS = (
    "cas:2", "cas:3", "cas:4", "tas:2",
    "rounds:2", "rounds:3", "racing:2", "racing:3",
    "randomized:2", "randomized:3",
    "split-brain:2", "split-brain:3", "split-brain:4",
    "optimistic:2", "optimistic:3", "optimistic:4",
    "shared:3:2", "shared:4:2", "kset:3:2", "kset:4:2", "kset:4:3",
)

#: A cap that exhausts every generated automaton and the small specs.
EXHAUSTING = 3_000

SYSTEM_KINDS = ("kernel", "interpreter") + tuple(
    name for name, _ in DEFAULT_FAULT_PLANS
)

caps = st.one_of(st.integers(2, 200), st.just(EXHAUSTING))


def build(make_protocol, kind, seed):
    """A fresh system of the named kind over a fresh protocol."""
    protocol = make_protocol()
    if kind == "kernel":
        return System(protocol)
    if kind == "interpreter":
        return InterpretedSystem(protocol)
    make_plan = dict(DEFAULT_FAULT_PLANS)[kind]
    return FaultyMemorySystem(protocol, make_plan(seed=seed))


def outcome(check, system, inputs, cap, strict):
    """Every field of a check, or the visited count of its limit."""
    k = getattr(system.protocol, "k", 1)
    try:
        result = check(system, inputs, k=k, max_configs=cap, strict=strict)
    except ExplorationLimitError as exc:
        return ("limit", exc.visited)
    return (
        result.ok,
        result.configs_visited,
        result.exhaustive,
        result.note,
        [(v.kind, tuple(v.schedule), v.detail) for v in result.violations],
    )


def assert_matches_reference(make_protocol, kind, seed, inputs, cap, strict):
    got = outcome(
        check_consensus_exhaustive,
        build(make_protocol, kind, seed), inputs, cap, strict,
    )
    want = outcome(
        check_consensus_reference,
        build(make_protocol, kind, seed), inputs, cap, strict,
    )
    assert got == want
    return got


def recipe(protocol):
    """A maker of fresh copies of ``protocol``, from its ctor recipe."""
    args, kwargs = protocol._ctor_args
    return lambda: type(protocol)(*args, **kwargs)


@given(
    protocol=table_protocols(),
    data=st.data(),
    cap=caps,
    strict=st.booleans(),
    kind=st.sampled_from(SYSTEM_KINDS),
    seed=st.integers(0, 3),
)
@settings(DIFFERENTIAL, max_examples=120)
def test_table_protocols_match_reference(
    protocol, data, cap, strict, kind, seed
):
    inputs = data.draw(st.sampled_from(input_vectors(protocol.n)))
    assert_matches_reference(recipe(protocol), kind, seed, inputs, cap, strict)


@given(
    spec=st.sampled_from(SPECS),
    data=st.data(),
    cap=caps,
    strict=st.booleans(),
    kind=st.sampled_from(SYSTEM_KINDS),
    seed=st.integers(0, 3),
)
@settings(DIFFERENTIAL, max_examples=60)
def test_cli_specs_match_reference(spec, data, cap, strict, kind, seed):
    n = parse_protocol(spec).n
    inputs = data.draw(st.sampled_from(input_vectors(n)))
    assert_matches_reference(
        lambda: parse_protocol(spec), kind, seed, inputs, cap, strict
    )


def agreement_broken(decided):
    return len(decided) > 1


#: Makers of fresh protocols: generated automata, which seldom break
#: agreement, and the CLI specs, many of which do.
makers = st.one_of(
    table_protocols().map(recipe),
    st.sampled_from(SPECS).map(lambda spec: lambda: parse_protocol(spec)),
)


@given(
    make_protocol=makers,
    vector=st.integers(0, 2),
    cap=st.integers(2, 200),
    max_depth=st.one_of(st.none(), st.integers(0, 8)),
)
@example(
    make_protocol=lambda: SplitBrainConsensus(3),
    vector=2,
    cap=50,
    max_depth=None,
)
@settings(DIFFERENTIAL, max_examples=80)
def test_violation_search_is_bit_identical_across_engines(
    make_protocol, vector, cap, max_depth
):
    """The kernel asks its handler only when a step decides; the object
    loop tests every discovery.  Both stop at the same pop, with depth
    truncation in play too, and count the same search events on the
    way.  The pinned example ends on a partially popped level."""
    n = make_protocol().n
    inputs = input_vectors(n)[vector]
    results = []
    snapshots = []
    for system_class in (InterpretedSystem, System):
        system = system_class(make_protocol())
        explorer = Explorer(
            system, max_configs=cap, max_depth=max_depth, strict=False
        )
        registry = MetricsRegistry()
        with observe(metrics=registry):
            result = explorer.explore(
                system.initial_configuration(inputs),
                range(n),
                violates=agreement_broken,
            )
        explorer.close()
        results.append((
            result.visited,
            result.complete,
            result.truncated,
            result.violation,
            dict(result.decided),
        ))
        snapshots.append(registry.snapshot())
    assert results[0] == results[1]
    assert_metrics_equal(*snapshots)


# -- pinned cases -------------------------------------------------------


def deciding_root_protocol():
    """Input 0 decides 0 and input 1 decides 1 before any step."""
    return TableProtocol(
        n=2,
        registers=1,
        initial={0: 0, 1: 1},
        rules={2: ("read", 0)},
        decisions={0: 0, 1: 1},
    )


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_violation_at_the_root(kind):
    got = assert_matches_reference(
        deciding_root_protocol, kind, 0, (0, 1), 100, True
    )
    assert got == (
        False,
        1,
        False,
        "",
        [(
            "agreement",
            (),
            "2 distinct values decided: [0, 1] (allowed: 1)",
        )],
    )


def discovery_count(system, inputs, schedule):
    """How many configurations the checker's BFS knows when it first
    discovers the configuration ``schedule`` reaches."""
    protocol = system.protocol
    root = system.initial_configuration(inputs)
    target = protocol.canonical_key(system.run(root, schedule)[0])
    seen = {protocol.canonical_key(root)}
    queue = deque([root])
    while target not in seen:
        config = queue.popleft()
        for pid in range(protocol.n):
            if system.enabled(config, pid):
                succ, _ = system.step(config, pid)
                key = protocol.canonical_key(succ)
                if key not in seen:
                    seen.add(key)
                    queue.append(succ)
                    if key == target:
                        break
    return len(seen)


@pytest.mark.parametrize("kind", ["kernel", "interpreter"])
def test_violation_discovered_within_the_cap_but_popped_after_it(kind):
    inputs = (0, 1, 1)
    system = build(lambda: SplitBrainConsensus(3), kind, 0)
    full = check_consensus_exhaustive(system, inputs)
    witness = full.first_violation().schedule
    cap = full.configs_visited - 1
    assert discovery_count(system, inputs, witness) <= cap
    got = assert_matches_reference(
        lambda: SplitBrainConsensus(3), kind, 0, inputs, cap, False
    )
    assert got[:3] == (True, cap + 1, False)
    assert got[4] == []
    assert assert_matches_reference(
        lambda: SplitBrainConsensus(3), kind, 0, inputs, cap, True
    ) == ("limit", cap + 1)


def dedup_paths(make_protocol, inputs, cap):
    """The kernel's ``kernel.dedup.*`` counts over one check."""
    registry = MetricsRegistry()
    with observe(metrics=registry):
        assert_matches_reference(
            make_protocol, "kernel", 0, inputs, cap, False
        )
    counters = registry.snapshot()["counters"]
    return {
        name: count for name, count in counters.items()
        if name.startswith("kernel.dedup.")
    }


@pytest.mark.parametrize("inputs", input_vectors(3))
@pytest.mark.parametrize("cap", [5, 40, EXHAUSTING])
def test_symmetric_key_takes_the_generic_path(inputs, cap):
    assert dedup_paths(
        lambda: SymmetricKey(SplitBrainConsensus(3)), inputs, cap
    ) == {"kernel.dedup.generic": 1}


@pytest.mark.parametrize("cap", [50, 500])
def test_rounds_takes_the_canonical_row_path(cap):
    assert dedup_paths(
        lambda: parse_protocol("rounds:3"), (0, 1, 1), cap
    ) == {"kernel.dedup.canonical": 1}
