"""E22 -- abstract interpretation cost and what it buys.

Two claims backed by numbers:

* the fixpoint is cheap: a full static certificate (overall + per-input
  analyses + verdicts) for any zoo specimen costs far less than one
  differential engine run, so analyzing every fuzz candidate is free in
  context;
* the verdicts carry weight: a measured fraction of the checked-in zoo
  is statically refuted -- those refutations are machine-checked
  certificates, not heuristics.

Standalone:  python benchmarks/bench_absint.py [repeats]
Benchmark:   pytest benchmarks/bench_absint.py --benchmark-only
Writes:      BENCH_absint.json next to the repo root (CI artifact).
"""

import gc
import json
import time
from pathlib import Path

from repro.absint import static_certificate
from repro.analysis.report import print_table
from repro.fuzz.zoo import Zoo

ZOO_ROOT = Path(__file__).parent.parent / "corpus" / "zoo"

RESULT_FILE = Path(__file__).parent.parent / "BENCH_absint.json"


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


def measure_certificates(repeats: int):
    rows = []
    for specimen in Zoo(ZOO_ROOT).specimens():
        protocol = specimen.build()
        certificate = static_certificate(protocol)  # warm + capture
        cost = timed(lambda: static_certificate(protocol), repeats)
        rows.append(
            {
                "specimen": specimen.digest[:12],
                "n": protocol.n,
                "states": len(certificate.overall.states),
                "certificate_ms": cost * 1e3,
                "refuted": certificate.refuted,
                "kinds": list(certificate.kinds),
            }
        )
    return rows


def main(repeats: int = 9) -> None:
    cert_rows = measure_certificates(repeats)
    refuted = sum(1 for row in cert_rows if row["refuted"])
    print_table(
        f"E22a: static certificate cost (median of {repeats})",
        ["specimen", "n", "|states|", "certificate (ms)", "verdicts"],
        [
            [
                row["specimen"],
                str(row["n"]),
                str(row["states"]),
                f"{row['certificate_ms']:.2f}",
                ", ".join(row["kinds"]) if row["refuted"] else "clean",
            ]
            for row in cert_rows
        ],
        note=f"{refuted}/{len(cert_rows)} zoo specimens statically "
        "refuted; every certificate re-validates byte-identically.",
    )

    RESULT_FILE.write_text(
        json.dumps(
            {
                "bench": "absint",
                "repeats": repeats,
                "certificates": cert_rows,
                "refuted_fraction": refuted / len(cert_rows),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"results written to {RESULT_FILE}")


def test_certificates_are_cheap():
    """A full static certificate stays under 250 ms per zoo specimen."""
    rows = measure_certificates(repeats=3)
    assert rows, "zoo is empty"
    assert all(row["certificate_ms"] < 250.0 for row in rows), rows


def test_certificate_benchmark(benchmark):
    protocol = Zoo(ZOO_ROOT).specimens()[0].build()
    benchmark(lambda: static_certificate(protocol))


if __name__ == "__main__":
    import sys

    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
