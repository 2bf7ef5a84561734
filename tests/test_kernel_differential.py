"""Property-based differentials: the compiled kernel changes nothing.

Hypothesis generates small arbitrary protocol automata (the shared
strategy in tests/strategies.py) and checks that the compiled
packed-integer kernel (:mod:`repro.kernel`) returns *exactly*
what the interpreted explorer returns: identical reachable-set
fingerprints (decided values, witness schedules, visited counts,
completeness flags), identical solo runs, identical oracle answers and
witnesses, identical certificates, identical guarded exit codes -- on a
fresh and on a warmed kernel.  The interpreter legs run on
:class:`InterpretedSystem`, the kernel legs on ``System``: the engine
follows the system's type.  Any divergence is a soundness bug in the
lowering, found here on a five-state automaton instead of inside a
lemma driver.
"""

import json

from hypothesis import given
import hypothesis.strategies as st

import pytest

from repro.analysis.explorer import Explorer
from repro.analysis.symmetry import SymmetricKey
from repro.cli import parse_protocol
from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.core.valency import ValencyOracle
from repro.errors import BudgetExhausted, ExplorationLimitError
from repro.faults.budget import Budget
from repro.fuzz.oracle import input_vectors
from repro.model.system import InterpretedSystem, System
from repro.mutex import BakeryMutex, PetersonFilter, TournamentMutex
from repro.protocols.consensus import (
    CasConsensus,
    CommitAdoptRounds,
    KSetPartition,
    RandomizedRounds,
)

from tests.strategies import (
    DIFFERENTIAL,
    VALUES,
    assert_metrics_equal,
    fresh_system,
    random_configs,
    table_protocols,
)


def result_fingerprint(result):
    """Everything the exploration contract promises, as one value."""
    return (
        result.visited,
        result.complete,
        result.truncated,
        {value: tuple(schedule) for value, schedule in result.decided.items()},
    )


def explore_with(protocol, system_class, *, inputs, stop_when=None,
                 max_configs=50_000):
    system = fresh_system(protocol, system_class)
    explorer = Explorer(system, max_configs=max_configs, strict=False)
    root = system.initial_configuration(inputs)
    result = explorer.explore(
        root, frozenset(range(protocol.n)), stop_when=stop_when
    )
    explorer.close()
    return result


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@DIFFERENTIAL
def test_compiled_exploration_is_bit_identical(protocol, inputs_seed):
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    interp = explore_with(protocol, InterpretedSystem, inputs=inputs)
    compiled = explore_with(protocol, System, inputs=inputs)
    assert result_fingerprint(compiled) == result_fingerprint(interp)
    assert compiled.witnesses_replay(fresh_system(protocol))


@given(protocol=table_protocols(), value=st.sampled_from(VALUES))
@DIFFERENTIAL
def test_compiled_stop_when_is_bit_identical(protocol, value):
    inputs = [0, 1] + [0] * (protocol.n - 2)
    target = frozenset({value})
    interp = explore_with(
        protocol, InterpretedSystem, inputs=inputs, stop_when=target
    )
    compiled = explore_with(protocol, System, inputs=inputs, stop_when=target)
    assert result_fingerprint(compiled) == result_fingerprint(interp)


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@DIFFERENTIAL
def test_compiled_warm_space_is_bit_identical(protocol, inputs_seed):
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    interp = explore_with(protocol, InterpretedSystem, inputs=inputs)
    system = fresh_system(protocol)
    explorer = Explorer(system, max_configs=50_000, strict=False)
    pids = frozenset(range(protocol.n))
    root = system.initial_configuration(inputs)
    # Twice on one explorer: each search builds its own arena, so the
    # second must see nothing the first one left behind.
    first = explorer.explore(root, pids)
    second = explorer.explore(root, pids)
    explorer.close()
    assert result_fingerprint(first) == result_fingerprint(interp)
    assert result_fingerprint(second) == result_fingerprint(interp)


def solo_runs(system, limit):
    """``Explorer.solo`` for every pid from every ``input_vectors`` root."""
    explorer = Explorer(system)
    n = system.protocol.n
    try:
        return [
            explorer.solo(system.initial_configuration(list(inputs)), pid, limit)
            for inputs in input_vectors(n)
            for pid in range(n)
        ]
    finally:
        explorer.close()


SOLO_LIMITS = (1, ValencyOracle.SOLO_PROBE_STEPS)


@given(protocol=table_protocols())
@DIFFERENTIAL
def test_compiled_solo_run_equals_interpreter(protocol):
    for limit in SOLO_LIMITS:
        assert solo_runs(fresh_system(protocol), limit) == solo_runs(
            fresh_system(protocol, InterpretedSystem), limit
        )


@pytest.mark.parametrize("spec", ["randomized:3", "rounds:3", "racing:3", "tas:2"])
def test_compiled_solo_run_equals_interpreter_on_protocol_families(spec):
    """Table protocols never flip coins; ``randomized`` does."""
    for limit in SOLO_LIMITS:
        assert solo_runs(System(parse_protocol(spec)), limit) == solo_runs(
            InterpretedSystem(parse_protocol(spec)), limit
        )


def query_all(oracle):
    """The full query battery: every singleton plus the whole set, both
    values, with witnesses for every positive answer."""
    n = oracle.system.protocol.n
    root = oracle.system.initial_configuration([0, 1] + [0] * (n - 2))
    subsets = [frozenset({pid}) for pid in range(n)]
    subsets.append(frozenset(range(n)))
    answers = {}
    witnesses = {}
    for pids in subsets:
        for value in VALUES:
            answers[(pids, value)] = oracle.can_decide(root, pids, value)
            if answers[(pids, value)]:
                witnesses[(pids, value)] = oracle.witness(root, pids, value)
    return answers, witnesses


@given(protocol=table_protocols())
@DIFFERENTIAL
def test_compiled_oracle_equals_interpreted_oracle(protocol):
    interp = ValencyOracle(
        fresh_system(protocol, InterpretedSystem), max_configs=50_000
    )
    interp_answers, interp_witnesses = query_all(interp)
    interp.close()
    compiled = ValencyOracle(fresh_system(protocol), max_configs=50_000)
    answers, witnesses = query_all(compiled)
    compiled.close()
    assert answers == interp_answers
    assert witnesses == interp_witnesses
    # Witnesses replay in a genuinely fresh system.
    for (pids, value), schedule in witnesses.items():
        system = fresh_system(protocol)
        root = system.initial_configuration([0, 1] + [0] * (protocol.n - 2))
        final, _ = system.run(root, schedule)
        assert value in system.decided_values(final)


@pytest.mark.parametrize(
    "protocol, inputs",
    [
        (KSetPartition(4, 2), [0, 1, 2, 3]),
        (RandomizedRounds(3), [0, 1, 1]),
        # No hook pair: novel rows key through the override itself.
        (SymmetricKey(CasConsensus(3)), [0, 1, 1]),
    ],
    ids=["kset:4:2", "randomized:3", "symmetric-cas:3"],
)
def test_quotiented_exploration_is_bit_identical(protocol, inputs):
    """Canonical keys coarser than the configuration: the round-shift
    tables and the generic ``canonical_query_key`` path."""
    interp = explore_with(
        protocol, InterpretedSystem, inputs=inputs, max_configs=5_000
    )
    compiled = explore_with(protocol, System, inputs=inputs, max_configs=5_000)
    assert result_fingerprint(compiled) == result_fingerprint(interp)


def observed_explore(
    protocol, system_class, roots, pid_sets, max_configs, targets=(None,)
):
    """Every (root, P, stop_when) search on one explorer, with the run's
    counters."""
    from repro.obs import MetricsRegistry, observe

    registry = MetricsRegistry()
    system = fresh_system(protocol, system_class)
    explorer = Explorer(system, max_configs=max_configs, strict=False)
    with observe(metrics=registry):
        results = [
            result_fingerprint(explorer.explore(root, pids, target))
            for root in roots
            for pids in pid_sets
            for target in targets
        ]
    explorer.close()
    return results, registry.snapshot()["counters"]


@pytest.mark.parametrize(
    "protocol, inputs, visited",
    [
        (CommitAdoptRounds(2), [0, 1], 1_010),
        (KSetPartition(3, 2), [0, 1, 2], 2_020),
    ],
    ids=["rounds:2", "kset:3:2"],
)
def test_round_shift_quotient_merges_rows(protocol, inputs, visited):
    """P = everyone: no process is frozen, so the kernel must quotient.
    Deduplicated on raw rows, the round drift runs to the budget
    (20,001 visited) instead of closing at ``visited``."""
    results = {}
    for system_class in (System, InterpretedSystem):
        result = explore_with(
            protocol, system_class, inputs=inputs, max_configs=20_000
        )
        results[system_class] = result_fingerprint(result)
        assert result.complete and result.visited == visited
    assert results[System] == results[InterpretedSystem]


def test_unpinned_subset_search_quotients():
    """P = {1, 2} of kset:3:2: the one process outside P decides at
    once and carries no round, so nothing pins the shift and the kernel
    must quotient a proper subset too."""
    protocol = KSetPartition(3, 2)
    pids = [frozenset({1, 2})]
    roots = [System(protocol).initial_configuration([0, 1, 2])]
    compiled, counters = observed_explore(
        protocol, System, roots, pids, max_configs=20_000
    )
    interp, _ = observed_explore(
        protocol, InterpretedSystem, roots, pids, max_configs=20_000
    )
    assert compiled == interp
    assert compiled[0][:2] == (1_010, True)
    assert counters.get("kernel.dedup.canonical") == 1


def advanced_roots(protocol, inputs, seeds, steps=20):
    """Roots ``steps`` seeded random steps in, each with a process past
    round 1, so a frozen process pins a shift base above 1."""
    import random

    system = System(protocol)
    roots = []
    for seed in seeds:
        rng = random.Random(seed)
        config = system.initial_configuration(inputs)
        for _ in range(steps):
            live = [p for p in range(protocol.n) if system.enabled(config, p)]
            config, _ = system.step(config, rng.choice(live))
        rounds = [r for state in config.states for r in protocol.rounds_of(state)]
        assert max(rounds) > 1
        roots.append(config)
    return roots


@pytest.mark.parametrize(
    "protocol, inputs",
    [
        (CommitAdoptRounds(3), [0, 1, 1]),
        (RandomizedRounds(3), [0, 1, 1]),
        (KSetPartition(4, 2), [0, 1, 2, 3]),
    ],
    ids=["rounds:3", "randomized:3", "kset:4:2"],
)
def test_pinned_searches_are_bit_identical(protocol, inputs):
    """Every proper non-empty P: a search whose root has a process
    outside P carrying a round dedups raw rows on the kernel, and must
    still return the interpreter's quotiented answer -- also when a
    ``stop_when`` target ends it early, which only the stepping
    process's decision can trigger."""
    from itertools import combinations

    roots = advanced_roots(protocol, inputs, seeds=range(3))
    pid_sets = [
        frozenset(pids)
        for size in range(1, protocol.n)
        for pids in combinations(range(protocol.n), size)
    ]
    targets = (None, frozenset({0}), frozenset({1}))
    compiled, counters = observed_explore(
        protocol, System, roots, pid_sets, 500, targets
    )
    interp, _ = observed_explore(
        protocol, InterpretedSystem, roots, pid_sets, 500, targets
    )
    assert compiled == interp
    assert counters.get("kernel.dedup.raw", 0) > 0


#: (label, Explorer keywords, stop_when): every way a search ends early.
SEARCH_CUTS = [
    ("depth-4", {"max_depth": 4, "max_configs": 50_000}, None),
    ("depth-9", {"max_depth": 9, "max_configs": 50_000}, None),
    ("limit-300", {"max_configs": 300}, None),
    ("limit-777", {"max_configs": 777}, None),
    ("stop-0", {"max_configs": 2_000}, frozenset({0})),
    ("stop-1", {"max_configs": 2_000}, frozenset({1})),
]


def metered_search(system, root, pids, stop_when, cut):
    """One non-strict search under its own registry: the fingerprint
    and the metrics snapshot."""
    from repro.obs import MetricsRegistry, observe

    registry = MetricsRegistry()
    explorer = Explorer(system, strict=False, **cut)
    try:
        with observe(metrics=registry):
            result = explorer.explore(root, pids, stop_when)
    finally:
        explorer.close()
    return result_fingerprint(result), registry.snapshot()


def assert_cut_searches_match(protocol, roots, pid_sets, cut, stop_when):
    compiled = System(protocol)
    interpreted = InterpretedSystem(protocol)
    for root in roots:
        for pids in pid_sets:
            got, got_metrics = metered_search(compiled, root, pids, stop_when, cut)
            want, want_metrics = metered_search(
                interpreted, root, pids, stop_when, cut
            )
            assert got == want, (root, sorted(pids))
            assert_metrics_equal(want_metrics, got_metrics)


@pytest.mark.parametrize(
    "cut, stop_when",
    [(cut, stop_when) for _, cut, stop_when in SEARCH_CUTS],
    ids=[label for label, _, _ in SEARCH_CUTS],
)
@pytest.mark.parametrize("spec", ["rounds:3", "racing:3", "randomized:3"])
def test_cut_searches_match_interpreter(spec, cut, stop_when):
    """Fingerprints and the explorer metrics of searches that end at
    the depth bound, the non-strict limit or a ``stop_when`` target --
    the exits every CLI search (depth 60) can take -- from seeded
    roots, with P = {0, 1} (raw rows) and P = everyone."""
    protocol = parse_protocol(spec)
    _, roots = random_configs(protocol, [0, 1, 1], 3, 3, 12)
    pid_sets = [frozenset({0, 1}), frozenset(range(protocol.n))]
    assert_cut_searches_match(protocol, roots, pid_sets, cut, stop_when)


@pytest.mark.parametrize(
    "cut, stop_when",
    [(cut, stop_when) for _, cut, stop_when in SEARCH_CUTS],
    ids=[label for label, _, _ in SEARCH_CUTS],
)
@pytest.mark.parametrize(
    "make",
    [PetersonFilter, TournamentMutex, BakeryMutex],
    ids=["peterson:2", "tournament-mutex:2", "bakery:2"],
)
def test_marker_searches_match_interpreter(make, cut, stop_when):
    """Mutex programs step through markers, whose plans have no field
    to read; no table protocol issues one."""
    protocol = make(2)
    _, roots = random_configs(protocol, [None, None], 3, 3, 12)
    pid_sets = [frozenset(range(protocol.n))]
    assert_cut_searches_match(protocol, roots, pid_sets, cut, stop_when)


def test_search_frees_its_arena():
    """A search's rows are freed when it returns: the second search,
    on an explorer the first one warmed, keeps a small share of its own
    peak (the program's tables grow; the visited rows must not stay)."""
    import tracemalloc

    system = System(CommitAdoptRounds(5))
    explorer = Explorer(system, max_configs=20_000, max_depth=60, strict=False)
    explorer.explore(
        system.initial_configuration([0, 1, 0, 1, 0]), frozenset({0, 1})
    )
    root = system.initial_configuration([1, 0, 0, 1, 1])
    tracemalloc.start()
    try:
        result = explorer.explore(root, frozenset({0, 1, 2}))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        explorer.close()
    assert result.visited == 20_001
    assert retained < peak / 4, (retained, peak)


def test_strict_limit_error_is_byte_identical():
    """Same exception type, message bytes, and visited payload."""
    def overrun(system_class):
        system = system_class(CommitAdoptRounds(3))
        explorer = Explorer(system, max_configs=10, strict=True)
        root = system.initial_configuration([0, 1, 1])
        try:
            explorer.explore(root, frozenset(range(3)))
        except ExplorationLimitError as exc:
            return str(exc), exc.visited
        finally:
            explorer.close()
        raise AssertionError("limit did not trip")

    assert overrun(System) == overrun(InterpretedSystem)


def test_budget_exhaustion_tick_parity():
    """The kernel bills the budget at the same pop as the interpreter."""
    def exhaust(system_class):
        system = system_class(CommitAdoptRounds(3))
        budget = Budget(max_steps=7)
        explorer = Explorer(
            system, max_configs=50_000, strict=False, budget=budget
        )
        root = system.initial_configuration([0, 1, 1])
        try:
            explorer.explore(root, frozenset(range(3)))
        except BudgetExhausted:
            pass
        finally:
            explorer.close()
        return budget.spent

    assert exhaust(System) == exhaust(InterpretedSystem)


def test_rounds_certificate_is_byte_identical():
    """The real protocol family: full adversary, serialized bytes."""
    interp = space_lower_bound(InterpretedSystem(CommitAdoptRounds(3)))
    compiled = space_lower_bound(System(CommitAdoptRounds(3)))
    assert to_json(compiled) == to_json(interp)


def test_guarded_outcome_exit_codes_match():
    """The CLI exit-code contract is kernel-independent, bytes and all."""
    from repro.fuzz.oracle import EngineSpec, guarded_outcome

    protocol = CommitAdoptRounds(3)
    interp = guarded_outcome(
        protocol, EngineSpec("sequential", InterpretedSystem)
    )
    compiled = guarded_outcome(protocol, EngineSpec("compiled"))
    assert compiled["status"] == interp["status"]
    assert compiled["exit_code"] == interp["exit_code"]
    assert json.dumps(compiled["payload"], sort_keys=True) == json.dumps(
        interp["payload"], sort_keys=True
    )


def test_compiled_engine_fingerprint_matches_sequential_leg():
    """The compiled oracle leg agrees with the baseline on a zoo-style
    specimen (the full differential runs in tests/test_fuzz.py and the
    zoo replay)."""
    from repro.fuzz.oracle import (
        DEFAULT_ENGINES,
        engine_fingerprint,
        fingerprint_bytes,
    )
    from repro.fuzz.generator import GeneratorConfig, generate_protocol
    import random

    compiled_spec = DEFAULT_ENGINES[-1]
    assert compiled_spec.name == "compiled"
    assert compiled_spec.system_class is System
    for seed in range(5):
        protocol = generate_protocol(
            random.Random(seed), config=GeneratorConfig(), name=f"k{seed}"
        )
        base = engine_fingerprint(protocol, DEFAULT_ENGINES[0])
        leg = engine_fingerprint(protocol, compiled_spec)
        assert fingerprint_bytes(leg) == fingerprint_bytes(base)


def test_metrics_parity_on_fixed_protocol():
    """Counter/gauge/histogram totals match the interpreter exactly
    (kernel.* instruments excluded -- they are the kernel's own)."""
    from repro.obs import MetricsRegistry, observe

    def observed(system_class):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            explore_with(CommitAdoptRounds(3), system_class, inputs=[0, 1, 1])
        snapshot = registry.snapshot()
        snapshot["counters"] = {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith("kernel.")
        }
        snapshot["histograms"] = {
            name: body
            for name, body in snapshot["histograms"].items()
            if not name.startswith("kernel.")
        }
        return snapshot

    assert observed(System) == observed(InterpretedSystem)


def _split_brain_violates(decided):
    return len(decided) > 1 or not decided <= {0, 1}


#: One pinned search per way a search can end: the pops the kernel's
#: ``kernel.batch`` histogram records, and 1 if the search ends inside a
#: record (popped, then left mid-expansion), else 0.
BATCH_SEARCHES = [
    pytest.param("rounds:2", [0, 1], {}, None, None, 1_010, 0, id="complete"),
    pytest.param("rounds:3", [0, 1, 1], {"max_depth": 6}, None, None, 88, 0,
                 id="depth-truncated"),
    pytest.param("racing:3", [0, 1, 1], {"max_configs": 500}, None, None,
                 373, 1, id="limit"),
    pytest.param("rounds:3", [0, 1, 1], {}, frozenset({0, 1}), None, 239, 1,
                 id="stopped"),
    pytest.param("split-brain:3", [0, 1, 1], {}, None, _split_brain_violates,
                 28, 0, id="violation"),
]


@pytest.mark.parametrize(
    "spec, inputs, cut, stop_when, violates, pops, ends_inside", BATCH_SEARCHES
)
def test_kernel_batch_counts_the_interpreters_expansions(
    spec, inputs, cut, stop_when, violates, pops, ends_inside
):
    """``kernel.batch`` (pops per search) has no interpreter twin, so
    the engine differentials cannot see it: check it against the
    interpreter's expansions, one ``explorer.branching`` observation
    per popped record it expanded in full."""
    from repro.obs import MetricsRegistry, observe

    protocol = parse_protocol(spec)
    outcomes, histograms = {}, {}
    for system_class in (System, InterpretedSystem):
        system = system_class(protocol)
        explorer = Explorer(system, strict=False, **cut)
        registry = MetricsRegistry()
        try:
            with observe(metrics=registry):
                result = explorer.explore(
                    system.initial_configuration(inputs),
                    frozenset(range(protocol.n)), stop_when, violates,
                )
        finally:
            explorer.close()
        outcomes[system_class] = (
            result_fingerprint(result), result.violation
        )
        histograms[system_class] = registry.snapshot()["histograms"]
    assert outcomes[System] == outcomes[InterpretedSystem]
    batch = histograms[System]["kernel.batch"]
    assert (batch["count"], batch["sum"]) == (1, pops)
    expanded = histograms[InterpretedSystem]["explorer.branching"]["count"]
    assert batch["sum"] == expanded + ends_inside
