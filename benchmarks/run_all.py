#!/usr/bin/env python3
"""Regenerate every experiment table in EXPERIMENTS.md order.

    python benchmarks/run_all.py [--quick]

``--quick`` caps the Theorem 1 sweep at n=4 (the full sweep's n=5
through n=7 rows take from seconds to a minute each even with the
incremental engine); everything else runs in full.
"""

import sys
import time

import bench_theorem1
import bench_upper_bound
import bench_usage
import bench_violations
import bench_valency
import bench_bound_growth
import bench_perturbable
import bench_mutex_cost
import bench_encoding
import bench_leader_election
import bench_unbounded_values
import bench_kset
import bench_randomized
import bench_step_complexity
import bench_faults
import bench_obs
import bench_lint
import bench_incremental
import bench_ablation_memo
import bench_ablation_historyless
import bench_ablation_symmetry


def main() -> None:
    quick = "--quick" in sys.argv
    stages = [
        ("E1", lambda: bench_theorem1.main(4 if quick else 7)),
        ("E2", bench_upper_bound.main),
        ("E2b", bench_usage.main),
        ("E3", bench_violations.main),
        ("E4", bench_valency.main),
        ("E5", lambda: bench_bound_growth.main(4)),
        ("E6", bench_perturbable.main),
        ("E7", bench_mutex_cost.main),
        ("E8", bench_encoding.main),
        ("E9", bench_leader_election.main),
        ("E10", bench_unbounded_values.main),
        ("E11", bench_kset.main),
        ("E12", bench_randomized.main),
        ("E13", bench_step_complexity.main),
        ("E14", bench_faults.main),
        ("E16", lambda: bench_obs.main(3 if quick else 7)),
        ("E17", lambda: bench_lint.main(3 if quick else 9)),
        ("E18", lambda: bench_incremental.main(3 if quick else 4)),
        ("ablations A/B", bench_ablation_memo.main),
        ("ablation C", bench_ablation_historyless.main),
        ("ablation D", bench_ablation_symmetry.main),
    ]
    total_start = time.time()
    for label, stage in stages:
        start = time.time()
        stage()
        print(f"[{label} done in {time.time() - start:.1f}s]\n")
    print(f"all experiments regenerated in {time.time() - total_start:.1f}s")


if __name__ == "__main__":
    main()
