"""Guarded adversary entry points and fault-injection campaigns.

``run_adversary_guarded`` is the hardened front door to the Theorem 1
adversary: every run terminates under its budget and ends in exactly one
of three outcomes --

* ``certificate``: a replay-validated :class:`SpaceBoundCertificate`;
* ``violation``: a :class:`~repro.errors.ViolationError` whose witness
  schedule replays to the violation (construction failures without a
  witness are converted by hunting one with the model checker);
* ``budget``: a :class:`PartialProgress` report, serializable via
  :mod:`repro.core.serialize` and resumable by a later invocation.

``run_adversary_auto`` retries the guarded run at escalating oracle
budgets and ends in the same three outcomes.

The campaign functions drive the fault models of this package over the
bundled protocols: crash campaigns prove the correct protocols survive
every explored <= (n-1)-crash plan, and corruption campaigns prove the
safety checker actually catches injected memory faults (negative
testing for the checker itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

from repro.errors import (
    AdversaryError,
    BudgetExhausted,
    ExplorationLimitError,
    ViolationError,
)
from repro.analysis.checker import check_consensus_exhaustive
from repro.core.certificate import SpaceBoundCertificate
from repro.core.theorem import space_lower_bound
from repro.model.process import Protocol
from repro.model.system import System
from repro.faults.budget import Budget
from repro.faults.crash import CrashCheckResult, check_consensus_crashes
from repro.faults.registers import (
    FaultyMemorySystem,
    RegisterFaultPlan,
    corruption_plan,
    lost_write_plan,
    stale_read_plan,
)
from repro.faults.resume import JournaledOracle, PartialProgress, QueryJournal
from repro.obs.runtime import get_tracer


@dataclass
class AdversaryOutcome:
    """Exactly one of: certificate, violation witness, partial progress."""

    status: str  # "certificate" | "violation" | "budget"
    certificate: Optional[SpaceBoundCertificate] = None
    violation: Optional[ViolationError] = None
    partial: Optional[PartialProgress] = None

    def describe(self) -> str:
        if self.status == "certificate":
            return self.certificate.summary()
        if self.status == "violation":
            return f"violation: {self.violation}"
        return self.partial.summary()


def run_adversary_guarded(
    system: System,
    budget: Optional[Budget] = None,
    resume: Optional[PartialProgress] = None,
    max_configs: int = 30_000,
    max_depth: Optional[int] = 60,
    strict: bool = False,
    verify: bool = True,
    spec: str = "",
    checkpoint=None,
) -> AdversaryOutcome:
    """Run the Theorem 1 adversary to one of the three outcomes.

    ``resume`` replays a prior invocation's journal (its oracle budgets
    override ``max_configs``/``max_depth``/``strict``: bounded-mode
    answers are only reproducible under the parameters that produced
    them).  ``spec`` labels the partial-progress report so the CLI can
    refuse to resume a checkpoint against a different protocol.

    The oracle's engine follows the system's type: a ``System`` runs on
    the compiled kernel of :mod:`repro.kernel`, an ``InterpretedSystem``
    on the reference interpreter.  Certificates, violation witnesses and
    partial-progress reports are bit-identical either way.

    ``checkpoint`` names a journal file persisted *live*
    (:class:`repro.resilience.CheckpointJournal`): every computed oracle
    answer is flushed and fsynced as it happens, so a SIGKILL at any
    moment leaves a resumable file, not just budget exhaustion.  The
    journal holds a writer lock until the run returns or raises.
    """
    return _run_guarded(
        system, find_violation, budget, resume, max_configs, max_depth,
        strict, verify, spec, checkpoint,
    )


def _run_guarded(
    system: System,
    hunt: Callable[[System], Optional[ViolationError]],
    budget: Optional[Budget],
    resume: Optional[PartialProgress],
    max_configs: int,
    max_depth: Optional[int],
    strict: bool,
    verify: bool,
    spec: str,
    checkpoint,
) -> AdversaryOutcome:
    """:func:`run_adversary_guarded`, with ``hunt`` as the search that
    explains a construction failure that came without a witness."""
    if resume is not None:
        entries = list(resume.queries)
        max_configs = resume.max_configs
        max_depth = resume.max_depth
        strict = resume.strict
    else:
        entries = []
    if checkpoint is not None:
        from repro.resilience.checkpoint import CheckpointJournal

        journal: QueryJournal = CheckpointJournal(
            checkpoint,
            protocol=spec or system.protocol.name,
            n=system.protocol.n,
            max_configs=max_configs,
            max_depth=max_depth,
            strict=strict,
            entries=entries,
        )
    else:
        journal = QueryJournal(entries)
    try:
        oracle = JournaledOracle(
            system,
            journal=journal,
            budget=budget,
            max_configs=max_configs,
            max_depth=max_depth,
            strict=strict,
        )
    except BaseException:
        # The journal's writer lock must not outlive a failed setup, or
        # every later run on this path is refused as "open elsewhere".
        journal.close()
        raise

    def partial(note: str) -> PartialProgress:
        return PartialProgress(
            protocol=spec or system.protocol.name,
            n=system.protocol.n,
            queries=list(journal.entries),
            spent_steps=budget.spent if budget is not None else 0,
            elapsed=budget.elapsed() if budget is not None else 0.0,
            max_configs=max_configs,
            max_depth=max_depth,
            strict=strict,
            note=note,
        )

    tracer = get_tracer()

    def outcome_event(status: str, **fields) -> None:
        """Terminal event: every guarded run emits exactly one of these,
        whatever branch it exits through."""
        tracer.event("adversary.outcome", status=status, **fields)

    with tracer.span(
        "adversary",
        protocol=system.protocol.name,
        n=system.protocol.n,
        strict=strict,
        resumed=resume is not None,
    ):
        try:
            certificate = space_lower_bound(
                system, verify=verify, oracle=oracle
            )
            outcome_event(
                "certificate", registers=len(certificate.registers)
            )
            return AdversaryOutcome(
                status="certificate", certificate=certificate
            )
        except ViolationError as exc:
            outcome_event(
                "violation",
                detail=str(exc),
                witness_len=len(exc.witness or ()),
            )
            return AdversaryOutcome(status="violation", violation=exc)
        except BudgetExhausted as exc:
            report = partial(str(exc))
            exc.partial = report
            outcome_event(
                "budget", detail=str(exc), queries=len(journal.entries)
            )
            return AdversaryOutcome(status="budget", partial=report)
        except ExplorationLimitError as exc:
            outcome_event(
                "budget", detail=str(exc), visited=exc.visited
            )
            return AdversaryOutcome(
                status="budget",
                partial=partial(f"{exc} ({exc.visited} states visited)"),
            )
        except AdversaryError as exc:
            # No witness came with the failure: either the protocol is
            # broken (hunt a concrete violation) or the oracle budgets
            # misled the construction (report partial progress for a
            # bigger-budget retry).
            found = hunt(system)
            if found is not None:
                outcome_event(
                    "violation",
                    detail=str(found),
                    witness_len=len(found.witness or ()),
                )
                return AdversaryOutcome(status="violation", violation=found)
            outcome_event("budget", detail=f"construction failed: {exc}")
            return AdversaryOutcome(
                status="budget",
                partial=partial(f"construction failed: {exc}"),
            )
        finally:
            oracle.close()
            journal.close()


def run_adversary_auto(
    system: System,
    attempts: int = 4,
    max_configs: int = 30_000,
    max_depth: int = 60,
    spec: str = "",
) -> AdversaryOutcome:
    """Run the guarded adversary with escalating oracle budgets.

    Bounded-mode oracles can misguide the construction when their budget
    is too small for the protocol at hand; the failure is always loud,
    so this driver retries a ``budget`` outcome with doubled
    ``max_configs``/``max_depth``, ``attempts`` runs in all.  Consensus
    violations are not retried -- a broken protocol stays broken at any
    budget -- and the violation hunt that explains a construction
    failure runs once, at the first failure.  An escalation that
    exhausts every budget ends in the last run's ``budget`` outcome.
    """
    hunted: List[Optional[ViolationError]] = []

    def hunt_once(target: System) -> Optional[ViolationError]:
        if not hunted:
            hunted.append(find_violation(target))
        return hunted[0]

    for _ in range(attempts):
        outcome = _run_guarded(
            system, hunt_once, budget=None, resume=None,
            max_configs=max_configs, max_depth=max_depth, strict=False,
            verify=True, spec=spec, checkpoint=None,
        )
        if outcome.status != "budget":
            return outcome
        max_configs, max_depth = max_configs * 2, max_depth * 2
    outcome.partial.note = (
        f"gave up after {attempts} oracle budgets; last: "
        f"{outcome.partial.note}"
    )
    return outcome


def find_violation(
    system: System,
    inputs: Optional[Sequence[Hashable]] = None,
    max_configs: int = 60_000,
) -> Optional[ViolationError]:
    """Hunt a consensus violation; returns a replayable ViolationError.

    Bounded exhaustive search over the protocol's reachable graph for
    the canonical mixed-input assignment; the returned error's witness
    is the checker's schedule from the initial configuration.
    """
    protocol = system.protocol
    if inputs is None:
        inputs = [0] + [1] * (protocol.n - 1)
    k = getattr(protocol, "k", 1)
    result = check_consensus_exhaustive(
        system, inputs, k=k, max_configs=max_configs, strict=False
    )
    violation = result.first_violation()
    if violation is None:
        return None
    return ViolationError(
        f"{violation.kind} violation: {violation.detail}",
        witness=tuple(violation.schedule),
    )


# -- campaigns ---------------------------------------------------------------


@dataclass
class CrashCampaignRow:
    """One protocol's verdict under the crash sweep."""

    name: str
    n: int
    result: CrashCheckResult

    @property
    def verdict(self) -> str:
        if self.result.ok:
            return "ok"
        return self.result.first_violation().kind


def crash_campaign(
    protocols: Sequence[Protocol],
    f: Optional[int] = None,
    max_configs: int = 600,
    solo_bound: int = 5_000,
    budget: Optional[Budget] = None,
) -> List[CrashCampaignRow]:
    """Sweep crash plans over each protocol's explored reachable graph."""
    rows = []
    for protocol in protocols:
        system = System(protocol)
        inputs = [0] + [1] * (protocol.n - 1)
        result = check_consensus_crashes(
            system,
            inputs,
            f=f,
            k=getattr(protocol, "k", 1),
            max_configs=max_configs,
            solo_bound=solo_bound,
            budget=budget,
        )
        rows.append(CrashCampaignRow(protocol.name, protocol.n, result))
    return rows


@dataclass
class CorruptionCampaignRow:
    """One (protocol, fault plan) pair: did the checker catch the damage?"""

    name: str
    fault: str
    plan: RegisterFaultPlan
    caught: bool
    detail: str


#: The per-fault-class plans a corruption campaign applies.
DEFAULT_FAULT_PLANS = (
    ("corrupt-writes", corruption_plan),
    ("lost-writes", lost_write_plan),
    ("stale-reads", stale_read_plan),
)


def corruption_campaign(
    protocols: Sequence[Protocol],
    seed: int = 0,
    rate: float = 1.0,
    max_configs: int = 20_000,
) -> List[CorruptionCampaignRow]:
    """Inject register faults into (correct) protocols; the checker must
    report a violation for at least the aggressive plans.

    Each row records whether the checker caught the injected fault; the
    caller decides which misses are acceptable (a fault plan can be
    benign for a particular protocol -- e.g. lost writes of values that
    were never read).
    """
    rows = []
    for protocol in protocols:
        inputs = [0] + [1] * (protocol.n - 1)
        for fault_name, make_plan in DEFAULT_FAULT_PLANS:
            plan = make_plan(seed=seed, rate=rate)
            system = FaultyMemorySystem(protocol, plan)
            result = check_consensus_exhaustive(
                system,
                inputs,
                k=getattr(protocol, "k", 1),
                max_configs=max_configs,
                strict=False,
            )
            violation = result.first_violation()
            rows.append(
                CorruptionCampaignRow(
                    name=protocol.name,
                    fault=fault_name,
                    plan=plan,
                    caught=violation is not None,
                    detail=(
                        f"{violation.kind}: {violation.detail}"
                        if violation is not None
                        else f"no violation in {result.configs_visited} configs"
                    ),
                )
            )
    return rows
