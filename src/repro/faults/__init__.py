"""Fault injection and hardened adversary harnesses.

The paper's adversary controls scheduling *and* up to n-1 crashes; this
package makes both -- plus misbehaving shared memory -- first-class,
injectable events, and hardens every adversary entry point so runs end
in a certificate, a violation witness, or a resumable budget report
rather than a stall:

* :mod:`repro.faults.crash` -- crash plans at the schedule layer and the
  crash-quantified consensus checker;
* :mod:`repro.faults.registers` -- seeded stale-read / lost-write /
  corruption wrappers over shared memory (negative testing for the
  safety checkers);
* :mod:`repro.faults.budget` -- deterministic step budgets and
  wall-clock deadlines (the watchdog);
* :mod:`repro.faults.resume` -- journaled valency oracles and
  serializable partial-progress checkpoints;
* :mod:`repro.faults.harness` -- the guarded adversary driver and the
  crash/corruption campaigns behind ``python -m repro faults``.
"""

from repro.faults.budget import Budget, BudgetExhausted
from repro.faults.chaos import (
    ChaosScenarioRow,
    chaos_campaign,
    corrupt_cache_entry,
    truncate_tail,
)
from repro.faults.crash import (
    CrashCheckResult,
    CrashPlan,
    all_crash_plans,
    check_consensus_crashes,
    crash_sets,
)
from repro.faults.harness import (
    AdversaryOutcome,
    CorruptionCampaignRow,
    CrashCampaignRow,
    corruption_campaign,
    crash_campaign,
    find_violation,
    run_adversary_auto,
    run_adversary_guarded,
)
from repro.faults.registers import (
    FaultyMemorySystem,
    RegisterFaultPlan,
    corruption_plan,
    lost_write_plan,
    stale_read_plan,
)
from repro.faults.resume import (
    JournaledOracle,
    PartialProgress,
    QueryJournal,
    ResumeError,
)

__all__ = [
    "AdversaryOutcome",
    "Budget",
    "BudgetExhausted",
    "ChaosScenarioRow",
    "CorruptionCampaignRow",
    "CrashCampaignRow",
    "CrashCheckResult",
    "CrashPlan",
    "FaultyMemorySystem",
    "JournaledOracle",
    "PartialProgress",
    "QueryJournal",
    "RegisterFaultPlan",
    "ResumeError",
    "all_crash_plans",
    "chaos_campaign",
    "check_consensus_crashes",
    "corrupt_cache_entry",
    "corruption_campaign",
    "corruption_plan",
    "crash_campaign",
    "crash_sets",
    "find_violation",
    "lost_write_plan",
    "run_adversary_auto",
    "run_adversary_guarded",
    "stale_read_plan",
    "truncate_tail",
]
