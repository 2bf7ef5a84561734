"""k-set agreement from n-k+1 registers (the conclusion's reference point).

k-set agreement relaxes consensus: at most k distinct values may be
decided.  The paper's conclusion asks whether the techniques extend to a
lower bound of n-k registers and cites protocols using n-k+1 registers
[BRS15].  This module implements the matching upper bound by the
partition construction:

* processes 0 .. k-2 decide their own input immediately (0 registers,
  k-1 potential extra values);
* the remaining n-k+1 processes run full consensus among themselves on
  n-k+1 single-writer registers (1 more value).

Total distinct decisions <= (k-1) + 1 = k; every decision is an input;
termination is inherited.  Register count: n-k+1, matching BRS15.
"""

from __future__ import annotations

from typing import Hashable

from repro.model.program import ProgramBuilder, ProgramProtocol
from repro.model.registers import register
from repro.protocols.consensus.commit_adopt import CommitAdoptRounds, build_round_program


def _free_rider_program():
    """Decide own input without touching shared memory.

    A decide is not a scheduled step in this model, so the process must
    take one (local) marker step before its decision becomes visible --
    keeping "every process takes at least one step" uniform across the
    protocol.
    """
    builder = ProgramBuilder()
    builder.marker("free-ride")
    builder.decide(lambda e: e["v"])
    return builder.build()


class KSetPartition(ProgramProtocol):
    """k-set agreement for n processes from n-k+1 registers."""

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        group = n - k + 1  # processes running real consensus
        free_riders = k - 1
        rider = _free_rider_program()
        racer = build_round_program()
        programs = [rider] * free_riders + [racer] * group

        def initial_env(pid: int, value: Hashable):
            if pid < free_riders:
                return {"v": value}
            return {
                "reg": pid - free_riders,
                "nregs": group,
                "r": 1,
                "v": value,
                "j": 0,
                "scan": (),
                "tmp": None,
                "out": None,
                "mark": "",
            }

        super().__init__(
            name=f"kset-partition(k={k})",
            n=n,
            specs=[register(None, name=f"R{i}") for i in range(group)],
            programs=programs,
            initial_env=initial_env,
        )
        self._free_riders = free_riders

    # The racers run the round loop and the free riders carry no rounds,
    # so the round protocol's quotient applies as it stands.
    rounds_of = CommitAdoptRounds.rounds_of
    shift_rounds = CommitAdoptRounds.shift_rounds
