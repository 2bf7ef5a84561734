"""E21 -- compiled exploration kernel: speedup with identical certificates.

The compiled kernel (:mod:`repro.kernel`) lowers a protocol to flat
per-``(pid, state)`` effect tables over packed-integer configurations
and expands whole BFS frontiers per call; the interpreted explorer
walks ``Configuration`` objects.  Lowering is invisible to the search
by construction (``tests/test_kernel_differential.py``), so the *only*
observable difference must be wall-clock.  Measured, per workload:

* paired-median adversary wall-clock, interpreted
  (:class:`~repro.model.system.InterpretedSystem`) vs compiled
  (``System``): the engine follows the system, for searches and solo
  probes alike; interleaved rounds so drift cancels;
* byte-equality of the serialized certificates (asserted before any
  timing is believed);
* the raw exploration ratio on one large flat BFS (the >= 10x
  record);
* the kernel's own counters (compiles, batch sizes, fallbacks) from an
  observed run.

Target (asserted): paired-median speedup >= 5x on the n=5 adversary.
Raw exploration runs >= 10x (recorded in the payload); the compiled
kernel also brings rounds:8 into the default sweep (~1 minute, vs
~13 minutes interpreted -- recorded compiled-only for that reason).

Standalone:  python benchmarks/bench_kernel.py [max_n]
Benchmark:   pytest benchmarks/bench_kernel.py --benchmark-only
Writes:      BENCH_kernel.json next to the repo root (CI artifact).
"""

import gc
import json
import sys
import time
from pathlib import Path

from repro.analysis.explorer import Explorer
from repro.analysis.report import print_table
from repro.core.serialize import to_json
from repro.core.theorem import space_lower_bound
from repro.core.valency import ValencyOracle
from repro.model.system import InterpretedSystem, System
from repro.obs import MetricsRegistry, observe
from repro.protocols.consensus import CommitAdoptRounds

#: Paired-median speedup the suite asserts on the n=5 adversary.
MIN_SPEEDUP_N5 = 5.0

#: Raw-exploration speedup recorded (and asserted loosely) at n=3.
MIN_RAW_SPEEDUP = 10.0

#: Oracle budgets per n.
BUDGETS = {
    3: (40_000, 80),
    4: (40_000, 80),
    5: (80_000, 100),
    8: (80_000, 100),
}

#: Raw-exploration workload: one flat BFS over this many configurations.
RAW_N = 3
RAW_CONFIGS = 100_000

RESULT_FILE = Path(__file__).parent.parent / "BENCH_kernel.json"


def adversary(n: int, system_class=System):
    configs, depth = BUDGETS.get(n, (80_000, 100))
    system = system_class(CommitAdoptRounds(n))
    with ValencyOracle(
        system, strict=False, max_configs=configs, max_depth=depth
    ) as oracle:
        return space_lower_bound(system, oracle=oracle)


def certificates_identical(n: int) -> bool:
    """Byte-equality gate: timing a wrong answer is meaningless."""
    return to_json(adversary(n, InterpretedSystem)) == to_json(
        adversary(n, System)
    )


def paired_medians(n: int, repeats: int = 5):
    """Median interpreted and compiled wall-clock, interleaved rounds.

    Interleaving puts both legs under the same slow drift (CPU
    frequency, cache warmth); comparing medians of paired rounds is
    what the CI gate asserts, so one noisy round cannot flip it.
    """
    interp_samples, compiled_samples = [], []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for system_class, samples in (
                (InterpretedSystem, interp_samples),
                (System, compiled_samples),
            ):
                gc.collect()
                start = time.perf_counter()
                adversary(n, system_class)
                samples.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return median(interp_samples), median(compiled_samples)


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def timed_adversary(n: int, system_class) -> float:
    start = time.perf_counter()
    adversary(n, system_class)
    return time.perf_counter() - start


def raw_exploration(system_class, n: int = RAW_N, configs: int = RAW_CONFIGS):
    """One flat bounded BFS -- the kernel's headline workload."""
    system = system_class(CommitAdoptRounds(n))
    explorer = Explorer(system, max_configs=configs, strict=False)
    root = system.initial_configuration([0] + [1] * (n - 1))
    start = time.perf_counter()
    result = explorer.explore(root, tuple(range(n)))
    elapsed = time.perf_counter() - start
    explorer.close()
    return elapsed, result.visited


def kernel_counters(n: int):
    """Compile/batch/fallback counters of one observed compiled run."""
    registry = MetricsRegistry()
    with observe(metrics=registry):
        adversary(n, System)
    counters = registry.snapshot()["counters"]
    histograms = registry.snapshot()["histograms"]
    batch = histograms.get("kernel.batch", {})
    return {
        "kernel.compiles": counters.get("kernel.compiles", 0),
        "kernel.fallbacks": counters.get("kernel.fallbacks", 0),
        "batch.count": batch.get("count", 0),
        "batch.sum": batch.get("sum", 0),
    }


def measure(max_n: int = 5, repeats: int = 5):
    rows, payload = [], {}
    # n >= 8 is sweep-only (see sweep_n8): pairing it would spend ~13
    # interpreted minutes per round proving what rounds:5 already gates.
    for n in range(3, min(max_n, 5) + 1):
        if n not in BUDGETS:
            continue
        assert certificates_identical(n), (
            f"compiled kernel changed the n={n} certificate"
        )
        interp_s, compiled_s = paired_medians(n, repeats)
        speedup = interp_s / compiled_s if compiled_s else float("inf")
        counters = kernel_counters(n)
        batches = counters["batch.count"]
        mean_batch = counters["batch.sum"] / batches if batches else 0.0
        rows.append(
            [
                f"rounds:{n}",
                f"{interp_s * 1e3:.0f}",
                f"{compiled_s * 1e3:.0f}",
                f"{speedup:.1f}x",
                f"{mean_batch:.0f}",
                counters["kernel.fallbacks"],
                "identical",
            ]
        )
        payload[f"rounds:{n}"] = {
            "interp_s": interp_s,
            "compiled_s": compiled_s,
            "speedup": speedup,
            "certificates_identical": True,
            **counters,
        }
    raw_interp_s, visited = raw_exploration(InterpretedSystem)
    raw_compiled_s, visited_c = raw_exploration(System)
    assert visited == visited_c, (visited, visited_c)
    payload["raw_exploration"] = {
        "workload": f"rounds:{RAW_N} flat BFS, {visited} configurations",
        "interp_s": raw_interp_s,
        "compiled_s": raw_compiled_s,
        "speedup": (
            raw_interp_s / raw_compiled_s if raw_compiled_s else float("inf")
        ),
    }
    return rows, payload


def sweep_n8(payload) -> list:
    """rounds:8 joins the default sweep compiled-only (the interpreted
    leg would take ~13 minutes; the whole point of the row is that the
    kernel makes the workload routine)."""
    elapsed = timed_adversary(8, System)
    payload["rounds:8"] = {"compiled_s": elapsed, "interp_s": None}
    return [
        "rounds:8", "(skipped)", f"{elapsed * 1e3:.0f}", "-", "-",
        0, "compiled-only",
    ]


def main(max_n: int = 5, repeats: int = 5) -> None:
    rows, payload = measure(max_n, repeats)
    if max_n >= 8:
        rows.append(sweep_n8(payload))
    raw = payload["raw_exploration"]
    print_table(
        f"E21: compiled exploration kernel (paired medians of {repeats} "
        "interleaved rounds)",
        [
            "workload",
            "interp (ms)",
            "compiled (ms)",
            "speedup",
            "mean batch",
            "fallbacks",
            "certificate",
        ],
        rows,
        note="certificates byte-identical before timing is believed; CI "
        f"asserts >= {MIN_SPEEDUP_N5:.0f}x at n=5; raw flat BFS "
        f"({raw['workload']}) ran {raw['speedup']:.1f}x "
        "(see EXPERIMENTS.md E21).",
    )
    RESULT_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {RESULT_FILE.name}")


def test_certificates_identical_n3():
    assert certificates_identical(3)


def test_kernel_speedup_n5():
    """CI gate: paired-median speedup >= 5x with identical certificates."""
    assert certificates_identical(5)
    interp_s, compiled_s = paired_medians(5, repeats=3)
    assert interp_s / compiled_s >= MIN_SPEEDUP_N5, (interp_s, compiled_s)


def test_raw_exploration_speedup():
    """The flat-BFS record: >= 10x on one large exploration."""
    interp_s, visited = raw_exploration(InterpretedSystem)
    compiled_s, visited_c = raw_exploration(System)
    assert visited == visited_c
    assert interp_s / compiled_s >= MIN_RAW_SPEEDUP, (interp_s, compiled_s)


def test_adversary_benchmark(benchmark):
    certificate = benchmark(adversary, 3, System)
    assert certificate.bound == 2


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
