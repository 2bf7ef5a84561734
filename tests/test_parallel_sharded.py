"""Contracts first pinned against the sharded explorer, which outlive it.

The multi-process exploration plane is gone, but two guarantees its
tests pinned still bind the sequential engines:

* BFS discovers the pinned lexicographically-least witness schedules,
  and they replay in a fresh system;
* the payload-carrying errors the CLI exit-code contract reads keep
  their types and payloads through pickling and across a real process
  boundary (the ``picklable-errors`` self-lint rule checks the static
  side of the same promise).
"""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import (
    BudgetExhausted,
    ExplorationLimitError,
    ViolationError,
)
from repro.analysis.explorer import Explorer
from repro.model.system import InterpretedSystem, System
from repro.protocols.consensus import CommitAdoptRounds

BOUNDED = dict(max_configs=20_000, max_depth=12, strict=False)


class TestWitnessReplayRegression:
    # Pinned: BFS with sorted-pid child order always discovers these
    # exact lexicographically-least witness schedules for rounds:3 under
    # the bounded budgets -- any engine change that reorders discovery
    # breaks this test before it breaks a proof.
    PINNED = {0: (0,) * 8, 1: (1,) * 8}

    @pytest.mark.parametrize(
        "system_class", [InterpretedSystem, System], ids=["interp", "compiled"]
    )
    def test_bfs_witnesses_are_pinned(self, system_class):
        system = system_class(CommitAdoptRounds(3))
        root = system.initial_configuration([0, 1, 0])
        explorer = Explorer(system, **BOUNDED)
        result = explorer.explore(root, frozenset({0, 1, 2}))
        explorer.close()
        assert result.decided == self.PINNED

    def test_pinned_schedules_replay_in_a_fresh_system(self):
        fresh = System(CommitAdoptRounds(3))
        root = fresh.initial_configuration([0, 1, 0])
        for value, schedule in self.PINNED.items():
            final, _ = fresh.run(root, schedule)
            assert value in fresh.decided_values(final)


def _raise_in_child(kind):
    """Module-level so a spawned interpreter can import and run it."""
    if kind == "budget":
        raise BudgetExhausted(
            "spent inside a child", spent_steps=7, elapsed=1.5
        )
    if kind == "violation":
        raise ViolationError("found inside a child", witness=(0, 1, 1, 0))
    raise ExplorationLimitError("overran inside a child", visited=123)


@pytest.fixture(scope="module")
def child_process():
    """One spawned interpreter; whatever it raises comes back pickled."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        yield pool


class TestErrorMarshalling:
    def test_errors_pickle_losslessly(self):
        budget = BudgetExhausted("b", spent_steps=9, elapsed=2.5)
        budget2 = pickle.loads(pickle.dumps(budget))
        assert (budget2.spent_steps, budget2.elapsed) == (9, 2.5)
        violation = pickle.loads(
            pickle.dumps(ViolationError("v", witness=(1, 0)))
        )
        assert violation.witness == (1, 0)
        limit = pickle.loads(
            pickle.dumps(ExplorationLimitError("l", visited=42))
        )
        assert limit.visited == 42

    @pytest.mark.parametrize("kind", ["budget", "violation", "limit"])
    def test_errors_cross_the_process_boundary_intact(
        self, child_process, kind
    ):
        expected = {
            "budget": BudgetExhausted,
            "violation": ViolationError,
            "limit": ExplorationLimitError,
        }[kind]
        with pytest.raises(expected) as excinfo:
            child_process.submit(_raise_in_child, kind).result(timeout=60)
        exc = excinfo.value
        if kind == "budget":
            assert (exc.spent_steps, exc.elapsed) == (7, 1.5)
        elif kind == "violation":
            assert exc.witness == (0, 1, 1, 0)
        else:
            assert exc.visited == 123
