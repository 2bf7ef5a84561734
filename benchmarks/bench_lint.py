"""E17 -- static analysis cost.

``repro lint`` is cheap: full static analysis of a bundled protocol
(CFG construction, reachability, register footprints, Theorem 1
contrapositive) costs well under the budget of a single exploration
step, so linting before every adversary run is free in context.

Standalone:  python benchmarks/bench_lint.py [repeats]
Benchmark:   pytest benchmarks/bench_lint.py --benchmark-only
Writes:      BENCH_lint.json next to the repo root (CI artifact).
"""

import gc
import json
import time
from pathlib import Path

from repro.analysis.report import print_table
from repro.lint import lint_protocol
from repro.protocols.consensus import (
    CommitAdoptRounds,
    SplitBrainConsensus,
    TasConsensus,
)

#: (name, protocol factory) for the lint-cost table.
LINT_WORKLOADS = [
    ("rounds:3", lambda: CommitAdoptRounds(3)),
    ("tas:2", lambda: TasConsensus(2)),
    ("split-brain:4", lambda: SplitBrainConsensus(4)),
]

RESULT_FILE = Path(__file__).parent.parent / "BENCH_lint.json"


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def timed(thunk, repeats: int) -> float:
    """Median wall-clock of ``repeats`` calls, GC parked."""
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            thunk()
            samples.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return median(samples)


def measure_lint(repeats: int):
    rows = []
    for name, make in LINT_WORKLOADS:
        protocol = make()
        report = lint_protocol(protocol)  # warm + capture diagnostics
        cost = timed(lambda: lint_protocol(protocol), repeats)
        rows.append(
            {
                "protocol": name,
                "lint_ms": cost * 1e3,
                "diagnostics": len(report),
                "blocking": report.blocking,
            }
        )
    return rows


def main(repeats: int = 9) -> None:
    lint_rows = measure_lint(repeats)
    print_table(
        f"E17a: static analysis cost (median of {repeats})",
        ["protocol", "lint (ms)", "diagnostics", "blocking"],
        [
            [
                row["protocol"],
                f"{row['lint_ms']:.2f}",
                str(row["diagnostics"]),
                "yes" if row["blocking"] else "no",
            ]
            for row in lint_rows
        ],
        note="full static pass: CFG + reachability + footprints + "
        "Theorem 1 contrapositive.",
    )

    RESULT_FILE.write_text(
        json.dumps(
            {
                "bench": "lint",
                "repeats": repeats,
                "lint": lint_rows,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"results written to {RESULT_FILE}")


def test_lint_cost_is_bounded():
    """Linting any bundled protocol stays under 250 ms."""
    rows = measure_lint(repeats=3)
    assert all(row["lint_ms"] < 250.0 for row in rows), rows


def test_lint_protocol_benchmark(benchmark):
    protocol = CommitAdoptRounds(3)
    benchmark(lambda: lint_protocol(protocol))


if __name__ == "__main__":
    import sys

    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
