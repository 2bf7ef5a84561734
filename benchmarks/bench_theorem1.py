"""E1 -- Theorem 1: the adversary pins n-1 registers (the headline claim).

Paper: every nondeterministic solo terminating binary consensus protocol
for n processes uses at least n-1 registers.  Measured: the executable
adversary, run against the n-register commit-adopt protocol, constructs
an execution with n-1 distinct registers covered/poised, for each n.

Standalone:  python benchmarks/bench_theorem1.py [max_n]
Benchmark:   pytest benchmarks/bench_theorem1.py --benchmark-only

The valency oracle's solo-probe fast path (positive queries answered by
plain solo runs) is what makes n = 6 feasible: the construction is
recursive over valency queries and nearly all of them are positive.
Runs take the compiled kernel, the engine the CLI runs, because
``System`` selects it: BFS and solo probes both read its per-``(pid,
state)`` tables, which keeps n = 7 in the default sweep.  The ``time``
column times that path.
"""

import sys
import time

from repro.analysis.report import print_table
from repro.core.construction import ConstructionStats
from repro.core.theorem import space_lower_bound
from repro.model.system import System
from repro.protocols.consensus import CommitAdoptRounds, RacingCounters

#: Oracle budgets per n (bigger constructions need deeper witnesses).
BUDGETS = {
    2: (5_000, 30),
    3: (40_000, 80),
    4: (40_000, 80),
    5: (80_000, 100),
    6: (80_000, 100),
    7: (80_000, 100),
}


def run_adversary(n: int, family=CommitAdoptRounds):
    system = System(family(n))
    configs, depth = BUDGETS.get(n, (80_000, 100))
    stats = ConstructionStats()
    certificate = space_lower_bound(
        system,
        strict=False,
        max_configs=configs,
        max_depth=depth,
        stats=stats,
    )
    certificate.validate(System(family(n)))
    return certificate, stats


def main(max_n: int = 7) -> None:
    rows = []
    for family, family_max in (
        (CommitAdoptRounds, max_n),
        (RacingCounters, min(4, max_n)),
    ):
        for n in range(2, family_max + 1):
            start = time.perf_counter()
            certificate, stats = run_adversary(n, family)
            elapsed = time.perf_counter() - start
            rows.append(
                [
                    certificate.protocol_name,
                    n,
                    n - 1,
                    certificate.bound,
                    len(certificate.alpha)
                    + len(certificate.phi)
                    + len(certificate.zeta),
                    stats.lemma4_calls,
                    stats.lemma3_calls,
                    f"{elapsed:.2f}s",
                    "validated",
                ]
            )
    print_table(
        "E1: Theorem 1 -- registers pinned by the adversary, two "
        "independent protocol families",
        [
            "protocol",
            "n",
            "bound n-1",
            "pinned",
            "adversary steps",
            "lemma4 calls",
            "lemma3 calls",
            "time",
            "certificate",
        ],
        rows,
        note="certificates are replay-validated; pinned == n-1 throughout; "
        "the adversary is protocol-agnostic (rounds vs racing counters)",
    )


def test_theorem1_n3(benchmark):
    certificate, _ = benchmark(run_adversary, 3)
    assert certificate.bound == 2


def test_theorem1_n4(benchmark):
    certificate, _ = benchmark.pedantic(
        run_adversary, args=(4,), rounds=1, iterations=1
    )
    assert certificate.bound == 3


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
