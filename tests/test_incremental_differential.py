"""Property-based differentials: the incremental engine changes nothing.

Hypothesis generates small arbitrary protocol automata (the same
strategy as tests/test_parallel_differential.py) and checks that an
incremental oracle -- interned memo tables, frontier reuse -- returns
*exactly* what a cold oracle returns: identical answers, identical
witness schedules (replayed in a fresh sequential system), identical
behaviour under partial-order reduction.  Any
divergence is a soundness bug in the memo layer, found here on a
five-state automaton instead of inside a lemma driver.
"""

from hypothesis import given
import hypothesis.strategies as st

from repro.core.valency import ValencyOracle
from repro.model.system import System

from tests.test_parallel_differential import (
    DIFFERENTIAL,
    VALUES,
    fresh_system,
    table_protocols,
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
def test_incremental_oracle_equals_cold_oracle(protocol):
    cold = ValencyOracle(
        System(protocol), max_configs=50_000, incremental=False
    )
    cold_answers, cold_witnesses = query_all(cold)
    cold.close()
    incremental = ValencyOracle(
        fresh_system(protocol), max_configs=50_000, incremental=True
    )
    incr_answers, incr_witnesses = query_all(incremental)
    assert incr_answers == cold_answers
    assert incr_witnesses == cold_witnesses
    # Witnesses replay in a genuinely fresh system.
    for (pids, value), schedule in incr_witnesses.items():
        system = fresh_system(protocol)
        cursor = system.initial_configuration(
            [0, 1] + [0] * (protocol.n - 2)
        )
        for pid in schedule:
            cursor, _ = system.step(cursor, pid)
        assert value in system.decided_values(cursor) or any(
            system.decision(cursor, pid) == value for pid in pids
        )
    incremental.close()


@given(protocol=table_protocols())
@DIFFERENTIAL
def test_incremental_with_por_equals_cold_without(protocol):
    cold = ValencyOracle(
        System(protocol), max_configs=50_000, incremental=False, por=False
    )
    cold_answers, cold_witnesses = query_all(cold)
    cold.close()
    tuned = ValencyOracle(
        fresh_system(protocol), max_configs=50_000, incremental=True, por=True
    )
    tuned_answers, tuned_witnesses = query_all(tuned)
    assert tuned_answers == cold_answers
    assert tuned_witnesses == cold_witnesses
    tuned.close()
