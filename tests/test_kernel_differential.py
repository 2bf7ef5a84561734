"""Property-based differentials: the compiled kernel changes nothing.

Hypothesis generates small arbitrary protocol automata (the same
strategy as tests/test_parallel_differential.py) and checks that the
compiled packed-integer kernel (:mod:`repro.kernel`) returns *exactly*
what the interpreted explorer returns: identical reachable-set
fingerprints (decided values, witness schedules, visited counts,
completeness flags), identical solo runs, identical oracle answers and
witnesses, identical certificates, identical guarded exit codes -- on a
fresh and on a warmed kernel, and with the out-of-core spill forced
down to a one-configuration threshold.  The interpreter legs run on
:class:`InterpretedSystem`, the kernel legs on ``System``: the engine
follows the system's type.  Any divergence is a soundness bug in the
lowering, found here on a five-state automaton instead of inside a
lemma driver.
"""

import json
import os

from hypothesis import given
import hypothesis.strategies as st

import pytest

from repro.analysis.explorer import Explorer
from repro.cli import parse_protocol
from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.core.valency import ValencyOracle
from repro.errors import BudgetExhausted, ExplorationLimitError
from repro.faults.budget import Budget
from repro.fuzz.oracle import input_vectors
from repro.model.system import InterpretedSystem, System
from repro.protocols.consensus import CommitAdoptRounds

from tests.test_parallel_differential import (
    DIFFERENTIAL,
    VALUES,
    fresh_system,
    table_protocols,
)

SPILL_ENV = "REPRO_KERNEL_SPILL_THRESHOLD"
FP_ENV = "REPRO_KERNEL_FP_BITS"


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


def forced_spill(body):
    """Run ``body()`` with the spill threshold forced to 1 configuration
    and the fingerprint index narrowed to 8 bits (collision-heavy, so
    the fetch-verify path is actually exercised)."""
    saved = {name: os.environ.get(name) for name in (SPILL_ENV, FP_ENV)}
    os.environ[SPILL_ENV] = "1"
    os.environ[FP_ENV] = "8"
    try:
        return body()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


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
    # Twice: the second pass runs on the persistent space the first
    # one warmed.
    first = explorer.explore(root, pids)
    second = explorer.explore(root, pids)
    explorer.close()
    assert result_fingerprint(first) == result_fingerprint(interp)
    assert result_fingerprint(second) == result_fingerprint(interp)


@given(protocol=table_protocols(), inputs_seed=st.integers(0, 7))
@DIFFERENTIAL
def test_compiled_forced_spill_is_bit_identical(protocol, inputs_seed):
    inputs = [(inputs_seed >> pid) & 1 for pid in range(protocol.n)]
    interp = explore_with(protocol, InterpretedSystem, inputs=inputs)
    compiled = forced_spill(
        lambda: explore_with(protocol, System, inputs=inputs)
    )
    assert result_fingerprint(compiled) == result_fingerprint(interp)
    assert compiled.witnesses_replay(fresh_system(protocol))


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


def test_rounds_certificate_byte_identical_under_forced_spill():
    interp = space_lower_bound(InterpretedSystem(CommitAdoptRounds(3)))
    compiled = forced_spill(
        lambda: space_lower_bound(System(CommitAdoptRounds(3)))
    )
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
