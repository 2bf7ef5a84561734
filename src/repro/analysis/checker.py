"""Model checking of consensus specifications.

``check_consensus_exhaustive`` walks the *entire* reachable configuration
graph of a protocol (all processes enabled, all interleavings) and checks
at every configuration:

* **Agreement** (or k-agreement): at most ``k`` distinct decided values;
* **Validity**: every decided value is some process's input.

The walk is one :meth:`~repro.analysis.explorer.Explorer.explore` over
all pids with a violation predicate, so a ``System`` runs it on the
compiled kernel and ``InterpretedSystem``/``FaultyMemorySystem`` on the
explorer's object-walking loop.  The search stops at the pop of the
first violating configuration, as a checker that tests what it pops
would (docs/THEORY.md, "One BFS for the checker"); the witness is
replayed on the object model, so the violation details read the
configuration itself.

When the reachable graph is finite (possibly after the protocol's
canonical abstraction) this is a proof for the given input assignment;
the caller typically iterates over all input assignments.  Solo
termination is checked from the initial configuration by
``check_solo_termination``, and from every reachable configuration by
the crash sweep (:func:`repro.faults.crash.check_consensus_crashes`).

``check_consensus_random`` drives randomized bursty schedules for sizes
where exhaustive checking is out of reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, List, Optional, Sequence

from repro.analysis.explorer import Explorer
from repro.model.configuration import Configuration
from repro.model.schedule import Schedule, random_bursty_schedule
from repro.model.system import System


@dataclass
class Violation:
    """A specification violation with a witness schedule from the start."""

    kind: str
    schedule: Schedule
    detail: str


@dataclass
class CheckResult:
    """Outcome of a consensus check."""

    ok: bool
    configs_visited: int = 0
    violations: List[Violation] = field(default_factory=list)
    exhaustive: bool = False
    note: str = ""

    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


def _config_violations(
    system: System,
    config: Configuration,
    inputs: Sequence[Hashable],
    schedule: Schedule,
    k: int,
) -> List[Violation]:
    """Agreement/validity violations visible in a single configuration."""
    out: List[Violation] = []
    decided = system.decided_values(config)
    if len(decided) > k:
        out.append(
            Violation(
                kind="agreement",
                schedule=schedule,
                detail=f"{len(decided)} distinct values decided: "
                f"{sorted(decided, key=repr)} (allowed: {k})",
            )
        )
    bad = decided - set(inputs)
    if bad:
        out.append(
            Violation(
                kind="validity",
                schedule=schedule,
                detail=f"decided values {sorted(bad, key=repr)} are not inputs "
                f"{list(inputs)}",
            )
        )
    return out


def check_consensus_exhaustive(
    system: System,
    inputs: Sequence[Hashable],
    k: int = 1,
    max_configs: int = 500_000,
    strict: bool = True,
) -> CheckResult:
    """Exhaustively check (k-set) agreement + validity for one input vector.

    Raises :class:`ExplorationLimitError` when the reachable graph (after
    the protocol's canonical abstraction) exceeds ``max_configs``.  With
    ``strict=False`` the budget overrun instead ends the search: the
    result reports no violation among the configurations visited, with
    ``exhaustive=False`` and an explanatory note (bounded verification).
    """
    allowed = frozenset(inputs)

    def violates(decided: FrozenSet[Hashable]) -> bool:
        return len(decided) > k or not decided <= allowed

    root = system.initial_configuration(inputs)
    explorer = Explorer(system, max_configs=max_configs, strict=strict)
    try:
        search = explorer.explore(
            root, range(system.protocol.n), violates=violates
        )
    finally:
        explorer.close()
    result = CheckResult(ok=True, configs_visited=search.visited)
    if search.violation is not None:
        final, _ = system.run(root, search.violation)
        result.violations = _config_violations(
            system, final, inputs, search.violation, k
        )
        result.ok = False
    elif search.complete:
        result.exhaustive = True
    else:
        result.note = (
            f"bounded verification: no violation within the first "
            f"{max_configs} configurations (graph not exhausted)"
        )
    return result


def _solo_violations(
    system: System,
    config: Configuration,
    prefix: Schedule,
    max_steps: int,
) -> List[Violation]:
    """Check solo termination of every live process from ``config``."""
    out: List[Violation] = []
    for pid in range(system.protocol.n):
        if not system.enabled(config, pid):
            continue
        try:
            final, trace = system.solo_run(config, pid, max_steps)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            out.append(
                Violation(
                    kind="solo-termination",
                    schedule=prefix + (pid,) * max_steps,
                    detail=f"process {pid} solo run failed: {exc}",
                )
            )
            continue
        if system.decision(final, pid) is None and system.enabled(final, pid):
            out.append(
                Violation(
                    kind="solo-termination",
                    schedule=prefix + (pid,) * len(trace),
                    detail=f"process {pid} ran {len(trace)} solo steps "
                    "without deciding",
                )
            )
    return out


def check_consensus_random(
    system: System,
    inputs: Sequence[Hashable],
    k: int = 1,
    runs: int = 200,
    schedule_length: int = 2_000,
    seed: int = 0,
    require_all_decide: bool = True,
) -> CheckResult:
    """Randomized bursty-schedule testing for larger systems.

    Each run applies a random bursty schedule then lets every remaining
    process run solo to completion; agreement and validity are checked on
    the final configuration.  Bursts both exercise contention and give
    obstruction-free protocols room to decide.
    """
    protocol = system.protocol
    rng = random.Random(seed)
    pids = list(range(protocol.n))
    result = CheckResult(ok=True)
    for run_index in range(runs):
        schedule = random_bursty_schedule(pids, schedule_length, rng)
        config = system.initial_configuration(inputs)
        config, _ = system.run(config, schedule, skip_halted=True)
        tail: List[int] = []
        for pid in pids:
            final, trace = system.solo_run(config, pid, max_steps=100_000)
            config = final
            tail.extend([pid] * len(trace))
        full = schedule + tuple(tail)
        result.violations.extend(
            _config_violations(system, config, inputs, full, k)
        )
        if require_all_decide:
            undecided = [
                pid for pid in pids if system.decision(config, pid) is None
            ]
            if undecided:
                result.violations.append(
                    Violation(
                        kind="termination",
                        schedule=full,
                        detail=f"processes {undecided} undecided after solo "
                        f"completion (run {run_index})",
                    )
                )
        if result.violations:
            result.ok = False
            break
        result.configs_visited += len(full)
    return result


def check_solo_termination(
    system: System,
    inputs: Sequence[Hashable],
    max_steps: int = 10_000,
) -> CheckResult:
    """Check that every process decides when run alone from the start."""
    result = CheckResult(ok=True)
    base = system.initial_configuration(inputs)
    violations = _solo_violations(system, base, (), max_steps)
    if violations:
        result.ok = False
        result.violations = violations
    return result
