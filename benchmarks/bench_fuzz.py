"""E20 -- fuzzing campaign throughput and oracle hit rates.

The corpus engine only pays for itself if campaigns get through enough
automata per unit budget to stand a chance of catching an engine
regression.  Measured, for a fixed-seed campaign at each shape preset:

* ``generated``/``filtered``/``explored`` -- corpus volume and the
  boring-filter's hit rate (a filter that never fires wastes its lint
  pass; one that eats everything starves the oracle);
* ``divergent`` -- must be 0 on honest engines (asserted): a nightly
  nonzero here is an engine soundness regression, not noise;
* ``states_per_second`` -- differential throughput (all engine legs)
  over wall-clock;
* the injected-sabotage leg -- the oracle must catch a lying engine
  within the same budget (asserted), which keeps the nightly campaign
  falsifiable rather than vacuously green.

Standalone:  python benchmarks/bench_fuzz.py [count]
Benchmark:   pytest benchmarks/bench_fuzz.py --benchmark-only
Writes:      BENCH_fuzz.json next to the repo root (CI artifact).
"""

import json
import sys
import time
from pathlib import Path

from repro.analysis.report import print_table
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.generator import GeneratorConfig

#: (preset name, generator shape).
PRESETS = [
    ("tiny-2p", GeneratorConfig(n=(2, 2), states=(3, 5), registers=(1, 2))),
    ("mixed-ops", GeneratorConfig(
        n=(2, 3), states=(3, 6), registers=(1, 3),
        op_weights=(("read", 2), ("write", 2), ("swap", 2), ("tas", 2)),
    )),
    ("decide-sparse", GeneratorConfig(
        n=(2, 2), states=(4, 7), registers=(1, 2), decide_density=0.08,
    )),
]

RESULT_FILE = Path(__file__).parent.parent / "BENCH_fuzz.json"


def campaign_config(generator, count, **overrides) -> CampaignConfig:
    return CampaignConfig(
        seed=20,
        count=count,
        mutants=1,
        generator=generator,
        max_configs=1_500,
        max_depth=24,
        **overrides,
    )


def measure(count: int = 12, tmp_root: Path = None):
    import tempfile

    tmp_root = tmp_root or Path(tempfile.mkdtemp(prefix="bench-fuzz-"))
    results = []
    for name, generator in PRESETS:
        config = campaign_config(
            generator, count, zoo_root=tmp_root / name
        )
        start = time.perf_counter()
        outcome = run_campaign(config)
        elapsed = time.perf_counter() - start
        stats = outcome.stats
        assert stats["divergent"] == 0, (
            f"{name}: honest engines diverged: {outcome.divergent}"
        )
        results.append({
            "preset": name,
            "generated": stats["generated"],
            "filtered": stats["filtered"],
            "explored": stats["explored"],
            "divergent": stats["divergent"],
            "zoo_added": stats["zoo_added"],
            "spent_states": stats["spent"],
            "elapsed_s": round(elapsed, 4),
            "states_per_second": round(stats["spent"] / elapsed, 1)
            if elapsed > 0 else 0.0,
        })
    # The falsifiability leg: a sabotaged engine must be caught.
    config = campaign_config(
        PRESETS[0][1], count,
        zoo_root=tmp_root / "inject", inject="forget-value",
    )
    start = time.perf_counter()
    outcome = run_campaign(config)
    elapsed = time.perf_counter() - start
    assert outcome.stats["divergent"] > 0, (
        "the oracle failed to catch the sabotaged engine"
    )
    results.append({
        "preset": "inject:forget-value",
        "generated": outcome.stats["generated"],
        "filtered": outcome.stats["filtered"],
        "explored": outcome.stats["explored"],
        "divergent": outcome.stats["divergent"],
        "zoo_added": outcome.stats["zoo_added"],
        "spent_states": outcome.stats["spent"],
        "elapsed_s": round(elapsed, 4),
        "states_per_second": round(
            outcome.stats["spent"] / elapsed, 1
        ) if elapsed > 0 else 0.0,
    })
    return results


def main(count: int = 12) -> None:
    results = measure(count)
    print_table(
        f"E20: fuzz campaign throughput (count={count}, seed=20)",
        ["preset", "generated", "filtered", "explored", "divergent",
         "zoo", "states", "states/s"],
        [
            [
                row["preset"], row["generated"], row["filtered"],
                row["explored"], row["divergent"], row["zoo_added"],
                row["spent_states"], f"{row['states_per_second']:.0f}",
            ]
            for row in results
        ],
        note="honest presets must show divergent=0; the inject leg "
        "must show divergent>0 (oracle falsifiability).",
    )
    RESULT_FILE.write_text(
        json.dumps(
            {
                "bench": "fuzz-campaign",
                "count": count,
                "seed": 20,
                "results": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"results written to {RESULT_FILE}")


def test_campaign_rates_and_falsifiability():
    """The satellite gate: honest engines clean, saboteur caught."""
    results = measure(count=6)
    honest = [r for r in results if not r["preset"].startswith("inject")]
    inject = [r for r in results if r["preset"].startswith("inject")]
    assert all(r["divergent"] == 0 for r in honest), results
    assert all(r["divergent"] > 0 for r in inject), results
    assert all(r["explored"] > 0 for r in honest), results


def test_campaign_throughput(benchmark):
    import tempfile

    tmp = Path(tempfile.mkdtemp(prefix="bench-fuzz-pt-"))

    def run():
        run_campaign(campaign_config(PRESETS[0][1], 6, zoo_root=tmp / "z"))

    benchmark(run)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
