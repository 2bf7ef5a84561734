"""E18 -- incremental valency engine: speedup with identical certificates.

The incremental engine (:mod:`repro.core.incremental`) memoises the
pure model functions under the valency oracle -- process-state step
effects, canonical query keys, decisions -- and interns configurations
so every memo is one dictionary probe.  Memoising pure functions is
invisible to the search, so the *only* observable difference against a
cold oracle must be wall-clock.  Measured, per workload:

* paired-median adversary wall-clock, cold
  (``ValencyOracle(incremental=False)``) vs incremental (the default),
  interleaved rounds so drift cancels.  Both legs run on the reference
  interpreter (:class:`~repro.model.system.InterpretedSystem`), the
  engine the memo tables were built for; on the compiled kernel the
  engine's share is smaller (EXPERIMENTS.md E18);
* byte-equality of the serialized certificates (asserted before any
  timing is believed);
* the engine's own hit counters (``intern.hits``, ``incremental.*``)
  from an observed run.

Target (asserted): paired-median speedup >= 2x on the n=4 adversary.
The n=5 row of E1 runs >= 5x but takes a minute cold, so the default
table stops at n=4; pass a higher ``max_n`` to reproduce the E1 row.

Standalone:  python benchmarks/bench_incremental.py [max_n]
Benchmark:   pytest benchmarks/bench_incremental.py --benchmark-only
Writes:      BENCH_incremental.json next to the repo root (CI artifact).
"""

import gc
import json
import sys
import time
from pathlib import Path

from repro.analysis.report import print_table
from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.core.valency import ValencyOracle
from repro.model.system import InterpretedSystem
from repro.obs import MetricsRegistry, observe
from repro.protocols.consensus import CommitAdoptRounds

#: Paired-median speedup the suite asserts on the n=4 adversary.
MIN_SPEEDUP_N4 = 2.0

#: Oracle budgets per n (matches benchmarks/bench_theorem1.py).
BUDGETS = {
    3: (40_000, 80),
    4: (40_000, 80),
    5: (80_000, 100),
}

RESULT_FILE = Path(__file__).parent.parent / "BENCH_incremental.json"


def adversary(n: int, incremental: bool):
    configs, depth = BUDGETS.get(n, (80_000, 100))
    system = InterpretedSystem(CommitAdoptRounds(n))
    with ValencyOracle(
        system,
        strict=False,
        max_configs=configs,
        max_depth=depth,
        incremental=incremental,
    ) as oracle:
        return space_lower_bound(system, oracle=oracle)


def certificates_identical(n: int) -> bool:
    """Byte-equality gate: timing a wrong answer is meaningless."""
    return to_json(adversary(n, False)) == to_json(adversary(n, True))


def paired_medians(n: int, repeats: int = 5):
    """Median cold and incremental wall-clock over interleaved rounds.

    Interleaving puts both legs under the same slow drift (CPU
    frequency, cache warmth); comparing medians of paired rounds is
    what the CI gate asserts, so one noisy round cannot flip it.
    """
    cold_samples, incr_samples = [], []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for incremental, samples in (
                (False, cold_samples),
                (True, incr_samples),
            ):
                gc.collect()
                start = time.perf_counter()
                adversary(n, incremental)
                samples.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return median(cold_samples), median(incr_samples)


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def engine_counters(n: int):
    """Intern/seed counters of one observed incremental run."""
    registry = MetricsRegistry()
    with observe(metrics=registry):
        adversary(n, True)
    snapshot = registry.snapshot()
    counters = snapshot.get("counters", snapshot)
    return {
        name: counters.get(name, 0)
        for name in (
            "intern.hits",
            "intern.misses",
            "incremental.seeded",
            "incremental.cold",
        )
    }


def measure(max_n: int = 4, repeats: int = 5):
    rows, payload = [], {}
    for n in range(3, max_n + 1):
        assert certificates_identical(n), (
            f"incremental engine changed the n={n} certificate"
        )
        cold_s, incr_s = paired_medians(n, repeats)
        speedup = cold_s / incr_s if incr_s else float("inf")
        counters = engine_counters(n)
        hits, misses = counters["intern.hits"], counters["intern.misses"]
        intern_rate = hits / (hits + misses) if hits + misses else 0.0
        rows.append(
            [
                f"rounds:{n}",
                f"{cold_s * 1e3:.0f}",
                f"{incr_s * 1e3:.0f}",
                f"{speedup:.1f}x",
                f"{intern_rate * 100:.0f}%",
                counters["incremental.seeded"],
                counters["incremental.cold"],
                "identical",
            ]
        )
        payload[f"rounds:{n}"] = {
            "cold_s": cold_s,
            "incremental_s": incr_s,
            "speedup": speedup,
            "certificates_identical": True,
            **counters,
        }
    return rows, payload


def main(max_n: int = 4, repeats: int = 5) -> None:
    rows, payload = measure(max_n, repeats)
    print_table(
        f"E18: incremental valency engine (paired medians of {repeats} "
        "interleaved rounds)",
        [
            "workload",
            "cold (ms)",
            "incremental (ms)",
            "speedup",
            "intern hit rate",
            "seeded",
            "cold searches",
            "certificate",
        ],
        rows,
        note="certificates byte-identical before timing is believed; "
        "CI asserts >= 2x at n=4 (the E1 n=5 row runs >= 5x, see "
        "EXPERIMENTS.md E18).",
    )
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {RESULT_FILE.name}")


def test_certificates_identical_n3():
    assert certificates_identical(3)


def test_incremental_speedup_n4():
    """CI gate: paired-median speedup >= 2x with identical certificates."""
    assert certificates_identical(4)
    cold_s, incr_s = paired_medians(4, repeats=3)
    assert cold_s / incr_s >= MIN_SPEEDUP_N4, (cold_s, incr_s)


def test_adversary_benchmark(benchmark):
    certificate = benchmark(adversary, 3, True)
    assert certificate.bound == 2


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
