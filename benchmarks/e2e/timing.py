"""The benchmark's only timing helper.

Parent side: :func:`spawn` starts one fresh child process per repeat,
runs one child at a time, and reads the child's resource usage from
``os.wait4``; :func:`interleave` orders repeats round-robin across
workloads.  Child side: :func:`run_pass` collects garbage once before a
pass, leaves the collector on, and times every call of the pass.
:func:`median`, :func:`quartiles` and :func:`spread` summarise samples.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence


@dataclass
class Child:
    """One finished child process."""

    spawned: float  # time.monotonic() just before the spawn
    seconds: float  # spawn to reaped
    status: int  # exit code; negative for a signal
    maxrss_mb: float  # ru_maxrss from os.wait4
    stdout: bytes


def spawn(
    argv: Sequence[str],
    env: Dict[str, str],
    cwd: str,
    timeout: float,
) -> Child:
    """Run ``argv`` to completion in a fresh process and reap it.

    The child is killed when it outlives ``timeout`` seconds (or when
    the parent is interrupted); either way it is waited for, so no
    process outlives this call.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        list(argv),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=env,
        cwd=cwd,
    )
    watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Child(
        spawned=spawned,
        seconds=time.monotonic() - spawned,
        status=proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out,
    )


def interleave(names: Sequence[str], repeats: int, rng: random.Random) -> List[str]:
    """Round-robin order: every workload once per round, shuffled per round."""
    order: List[str] = []
    for _ in range(repeats):
        round_ = list(names)
        rng.shuffle(round_)
        order.extend(round_)
    return order


def run_pass(call: Callable[[object], object], items: Sequence[object]):
    """Time ``call(item)`` for every item; returns (results, seconds, wall).

    Collects garbage once before the pass so earlier allocations are not
    charged to it, and leaves the collector on, as users run it.
    """
    gc.collect()
    results = []
    seconds = []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        results.append(call(item))
        seconds.append(time.perf_counter() - t0)
    return results, seconds, time.perf_counter() - start


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]):
    """(first, third) quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample >= ``pct``% of them.

    Always an observed sample, so a pass mixing fast and slow specs
    reports one spec's latency instead of a blend that moves with the
    number of samples.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]
