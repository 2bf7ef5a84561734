"""The cross-engine differential oracle: two engines, one truth.

Each surviving specimen runs through every engine configuration and the
results are compared *as bytes*: exploration fingerprints (decided
values, witness schedules, visited counts, completeness flags over a
fixed input-vector sweep), witness replays on a fresh sequential
system, the model checker's verdict, and the guarded adversary's
outcome status with its CLI exit code.  Any difference is a
:class:`Divergence` -- a soundness bug in whichever engine disagrees
with the sequential baseline, caught on a five-state automaton instead
of inside a lemma driver.

The engine matrix mirrors the proof-preservation claim the repo makes
(THEORY.md): the compiled packed-integer kernel (:mod:`repro.kernel`)
and budget-guarded runs must be bit-identical to the sequential
interpreter.  Each row names the system class its leg builds:
:class:`~repro.model.system.InterpretedSystem` for the interpreter
leg, ``System`` for the kernel leg.  ``sabotage``
exists so the harness can prove *itself* non-vacuous: a deterministic
perturbation of one engine's fingerprint must be caught, minimized and
persisted (the seeded known-divergence fixture in the tests and the
``--inject`` CLI flag).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Type

from repro.absint import StaticCertificate, ValueSet, analyze_table
from repro.analysis.checker import check_consensus_exhaustive
from repro.analysis.explorer import Explorer
from repro.model.system import InterpretedSystem, System
from repro.model.table import TableProtocol
from repro.obs.runtime import get_metrics

#: CLI exit codes the guarded-outcome leg maps statuses onto
#: (mirrors repro.cli: certificate -> 0, violation -> 2, budget -> 3).
_STATUS_EXIT = {"certificate": 0, "violation": 2, "budget": 3}

#: Sabotage mode handled before any engine runs: under-approximate the
#: abstract state set and demand the soundness leg notices.
ABSINT_UNSOUND = "absint-unsound"


@dataclass(frozen=True)
class EngineSpec:
    """One engine configuration of the differential matrix.

    ``system_class`` is the system the leg builds, and so its
    exploration engine: ``System`` runs on the compiled kernel,
    :class:`InterpretedSystem` on the interpreter.  ``sabotage``
    applies a deterministic corruption to the fingerprint
    ("drop-witness-step" or "forget-value") and exists only so tests
    and campaigns can prove the oracle catches a lying engine.
    """

    name: str
    system_class: Type[System] = System
    sabotage: Optional[str] = None


#: The default matrix: the sequential baseline and the compiled kernel.
DEFAULT_ENGINES: Tuple[EngineSpec, ...] = (
    EngineSpec("sequential", InterpretedSystem),
    EngineSpec("compiled"),
)


@dataclass(frozen=True)
class Divergence:
    """One engine disagreeing with the sequential baseline."""

    engine: str
    kind: str  # "certificate-bytes" | "witness-replay" | "verdict" | "exit-code"
    detail: str

    def describe(self) -> str:
        return f"[{self.engine}] {self.kind}: {self.detail}"


@dataclass
class DifferentialReport:
    """The oracle's verdict on one specimen."""

    protocol_name: str
    engines: Tuple[str, ...]
    divergences: List[Divergence] = field(default_factory=list)
    baseline: Dict[str, Any] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    visited: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def first(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None


def input_vectors(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The fixed input sweep every fingerprint covers."""
    mixed = tuple([0] + [1] * (n - 1))
    return ((0,) * n, (1,) * n, mixed)


def fresh_system(
    protocol: TableProtocol, system_class: Type[System] = System
) -> System:
    """Rebuild the protocol from its ctor recipe -- a genuinely fresh
    system, as a later run would see it."""
    args, kwargs = protocol._ctor_args
    return system_class(type(protocol)(*args, **kwargs))


def _encode_schedule(schedule) -> List[int]:
    return [int(pid) for pid in schedule]


def _sabotage_fingerprint(fingerprint: Dict[str, Any], mode: str) -> None:
    """Deterministically corrupt a fingerprint in place (self-test aid)."""
    for entry in fingerprint["explorations"]:
        decided = entry["decided"]
        if mode == "drop-witness-step":
            for pair in decided:
                if pair[1]:
                    pair[1] = pair[1][:-1]
        elif mode == "forget-value":
            if decided:
                decided.pop()
                entry["visited"] = max(0, entry["visited"] - 1)
        elif mode == "collide-packed-row":
            # The lie a lowering or interning bug would tell: two
            # distinct configurations merged into one visited row.
            # Catching this proves the oracle guards the kernel's row
            # dedup, not just decision sets.
            entry["visited"] = max(0, entry["visited"] - 1)
        else:
            raise ValueError(f"unknown sabotage mode {mode!r}")


def engine_fingerprint(
    protocol: TableProtocol,
    spec: EngineSpec,
    *,
    max_configs: int = 20_000,
    max_depth: Optional[int] = None,
) -> Dict[str, Any]:
    """The canonical result of running one engine over one specimen.

    JSON-native by construction, so byte comparison via
    :func:`fingerprint_bytes` is exact.  Witness replays are checked on
    a *fresh sequential* system regardless of the engine under test --
    an engine handing out schedules only it can replay is a divergence,
    not a fingerprint variant.
    """
    system = fresh_system(protocol, spec.system_class)
    n = system.protocol.n
    pids = frozenset(range(n))
    explorer = Explorer(
        system, max_configs=max_configs, max_depth=max_depth, strict=False
    )
    replay = fresh_system(protocol)
    explorations: List[Dict[str, Any]] = []
    for inputs in input_vectors(n):
        root = system.initial_configuration(list(inputs))
        result = explorer.explore(root, pids)
        decided = sorted(
            ([_decision_key(value), _encode_schedule(schedule)]
             for value, schedule in result.decided.items()),
            key=lambda pair: json.dumps(pair, sort_keys=True),
        )
        explorations.append({
            "inputs": list(inputs),
            "decided": decided,
            "visited": result.visited,
            "complete": bool(result.complete),
            "truncated": bool(result.truncated),
            "witnesses_replay": bool(result.witnesses_replay(replay)),
        })
    # Always release the engine: the compiled kernel's tables are
    # dropped eagerly.
    explorer.close()
    fingerprint = {"engine": spec.name, "explorations": explorations}
    if spec.sabotage:
        _sabotage_fingerprint(fingerprint, spec.sabotage)
    return fingerprint


def abstract_soundness_check(
    protocol: TableProtocol,
    *,
    max_configs: int = 20_000,
    max_depth: Optional[int] = None,
    sabotage: bool = False,
    certificate: Optional[StaticCertificate] = None,
) -> Optional[Divergence]:
    """The abstract-soundness leg: abstract ⊇ concrete, checked live.

    For every input vector of the standard sweep, run the table
    fixpoint for that unanimous/mixed input set and walk the concrete
    reachable graph asserting every visited configuration is contained
    in the abstract one (states per process, values per register).  A
    violation is *never* a protocol finding: it means the abstract
    interpreter under-approximated, i.e. every static verdict is
    suspect.  ``sabotage=True`` deliberately drops the root state from
    the abstract set — concretely visited by definition — so campaigns
    can prove this leg is not vacuous.  A ``certificate`` of the same
    protocol lends the fixpoints it holds; only the input sets it
    lacks are analyzed here.
    """
    if type(protocol) is not TableProtocol:
        return None
    n = protocol.n
    for inputs in input_vectors(n):
        reach = None if certificate is None else certificate.fixpoint(inputs)
        if reach is None:
            reach = analyze_table(protocol, tuple(set(inputs)))
        if sabotage:
            root_state = protocol.initial[inputs[0]]
            reach = replace(
                reach,
                states=ValueSet(
                    frozenset(
                        s for s in reach.states.values if s != root_state
                    )
                ),
            )
        system = fresh_system(protocol)
        explorer = Explorer(
            system, max_configs=max_configs, max_depth=max_depth, strict=False
        )
        root = system.initial_configuration(list(inputs))
        try:
            for config, _schedule in explorer.iter_reachable(
                root, frozenset(range(n))
            ):
                problem = reach.violation_for(config)
                if problem is not None:
                    get_metrics().counter("absint.soundness.violations").inc()
                    return Divergence(
                        engine="absint",
                        kind="soundness",
                        detail=f"inputs {list(inputs)}: {problem}",
                    )
        finally:
            explorer.close()
    get_metrics().counter("absint.soundness.checks").inc()
    return None


def _decision_key(value: Hashable) -> Any:
    """Decision values as JSON-safe atoms (zoo discipline)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _digest16(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def fingerprint_bytes(fingerprint: Dict[str, Any]) -> bytes:
    """The certificate bytes the oracle compares."""
    return json.dumps(
        {key: value for key, value in fingerprint.items() if key != "engine"},
        sort_keys=True,
    ).encode("utf-8")


def guarded_outcome(
    protocol: TableProtocol,
    spec: EngineSpec,
    *,
    max_configs: int = 4_000,
    max_depth: Optional[int] = 40,
    budget_steps: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the guarded Theorem 1 adversary on the spec's system class.

    Returns the outcome status, its CLI exit code, and the serialized
    payload (certificate JSON / witness schedule / partial-progress
    query count) -- everything the exit-code contract promises to keep
    engine-independent.  Spent budget steps are reported so campaigns
    can charge their global allowance deterministically.
    """
    from repro.core.serialize import to_json
    from repro.faults import Budget, run_adversary_guarded

    budget = (
        Budget(max_steps=budget_steps) if budget_steps is not None else None
    )
    outcome = run_adversary_guarded(
        fresh_system(protocol, spec.system_class),
        budget=budget,
        max_configs=max_configs,
        max_depth=max_depth,
    )
    payload: Any
    if outcome.status == "certificate":
        payload = json.loads(to_json(outcome.certificate))
    elif outcome.status == "violation":
        witness = getattr(outcome.violation, "witness", None)
        payload = {
            "message": str(outcome.violation),
            "witness": None if witness is None else _encode_schedule(witness),
        }
    else:
        payload = {"queries": len(outcome.partial.queries)}
    return {
        "status": outcome.status,
        "exit_code": _STATUS_EXIT.get(outcome.status, 1),
        "payload": payload,
        "spent": budget.spent if budget is not None else 0,
    }


def differential(
    protocol: TableProtocol,
    engines: Sequence[EngineSpec] = DEFAULT_ENGINES,
    *,
    max_configs: int = 20_000,
    max_depth: Optional[int] = None,
    guarded: bool = False,
    guarded_budget: Optional[int] = None,
    certificate: Optional[StaticCertificate] = None,
) -> DifferentialReport:
    """Run the full differential matrix over one specimen.

    The first engine is the baseline (conventionally sequential).  With
    ``guarded=True`` the adversary-outcome leg runs too, once per system
    class (the class is all that varies between guarded oracles): its
    ``run_adversary_guarded`` status, exit code and serialized payload
    must match the baseline's (this is the expensive leg; campaigns
    enable it, the mutator property tests do not).  ``certificate``, the
    specimen's static certificate, goes to the abstract-soundness leg.
    """
    report = DifferentialReport(
        protocol_name=protocol.name,
        engines=tuple(spec.name for spec in engines),
    )
    metrics = get_metrics()
    baseline_spec = engines[0]
    baseline = engine_fingerprint(
        protocol, baseline_spec,
        max_configs=max_configs, max_depth=max_depth,
    )
    report.baseline = baseline
    baseline_bytes = fingerprint_bytes(baseline)
    report.fingerprints[baseline_spec.name] = _digest16(baseline_bytes)
    report.visited = sum(
        entry["visited"] for entry in baseline["explorations"]
    )
    _check_replays(report, baseline_spec.name, baseline)
    soundness = abstract_soundness_check(
        protocol,
        max_configs=max_configs,
        max_depth=max_depth,
        certificate=certificate,
    )
    if soundness is not None:
        report.divergences.append(soundness)
    for spec in engines[1:]:
        if spec.sabotage == ABSINT_UNSOUND:
            # This sabotage lies to the analysis, not to a fingerprint:
            # re-run the soundness leg with an under-approximated
            # abstract set and demand the oracle catches it.
            sabotaged = abstract_soundness_check(
                protocol,
                max_configs=max_configs,
                max_depth=max_depth,
                sabotage=True,
                certificate=certificate,
            )
            if sabotaged is not None:
                report.divergences.append(Divergence(
                    engine=spec.name,
                    kind="soundness",
                    detail=f"[injected {ABSINT_UNSOUND}] {sabotaged.detail}",
                ))
            report.fingerprints[spec.name] = ABSINT_UNSOUND
            continue
        fingerprint = engine_fingerprint(
            protocol, spec,
            max_configs=max_configs, max_depth=max_depth,
        )
        got = fingerprint_bytes(fingerprint)
        report.fingerprints[spec.name] = _digest16(got)
        if got != baseline_bytes:
            report.divergences.append(Divergence(
                engine=spec.name,
                kind="certificate-bytes",
                detail=_first_difference(baseline, fingerprint),
            ))
        _check_replays(report, spec.name, fingerprint)
    if guarded:
        base_outcome = guarded_outcome(
            protocol, baseline_spec,
            budget_steps=guarded_budget,
        )
        report.baseline["guarded"] = {
            "status": base_outcome["status"],
            "exit_code": base_outcome["exit_code"],
        }
        report.visited += base_outcome["spent"]
        guarded_classes = {baseline_spec.system_class}
        for spec in engines[1:]:
            if spec.sabotage or spec.system_class in guarded_classes:
                continue
            guarded_classes.add(spec.system_class)
            outcome = guarded_outcome(
                protocol, spec, budget_steps=guarded_budget,
            )
            if outcome["status"] != base_outcome["status"] or (
                outcome["payload"] != base_outcome["payload"]
            ):
                report.divergences.append(Divergence(
                    engine=spec.name,
                    kind="verdict",
                    detail=(
                        f"guarded outcome {outcome['status']!r} != "
                        f"baseline {base_outcome['status']!r} (or payloads "
                        "differ)"
                    ),
                ))
            if outcome["exit_code"] != base_outcome["exit_code"]:
                report.divergences.append(Divergence(
                    engine=spec.name,
                    kind="exit-code",
                    detail=(
                        f"exit {outcome['exit_code']} != baseline "
                        f"{base_outcome['exit_code']}"
                    ),
                ))
    metrics.counter("fuzz.explored").inc()
    if not report.ok:
        metrics.counter("fuzz.divergent").inc()
    return report


def _check_replays(
    report: DifferentialReport, engine: str, fingerprint: Dict[str, Any]
) -> None:
    for entry in fingerprint["explorations"]:
        if not entry["witnesses_replay"]:
            report.divergences.append(Divergence(
                engine=engine,
                kind="witness-replay",
                detail=(
                    f"a witness schedule for inputs {entry['inputs']} does "
                    "not replay to its decision on a fresh sequential system"
                ),
            ))


def _first_difference(
    baseline: Dict[str, Any], other: Dict[str, Any]
) -> str:
    """A human-readable pointer at the first fingerprint mismatch."""
    for base_entry, other_entry in zip(
        baseline["explorations"], other["explorations"]
    ):
        for key in ("decided", "visited", "complete", "truncated"):
            if base_entry[key] != other_entry[key]:
                return (
                    f"inputs {base_entry['inputs']}: {key} "
                    f"{other_entry[key]!r} != baseline {base_entry[key]!r}"
                )
    return "fingerprints differ"


def checker_verdict(
    protocol: TableProtocol, *, max_configs: int = 20_000
) -> Dict[str, Any]:
    """The (engine-independent) model-checker verdict on a specimen.

    Campaigns record it in journals and zoo provenance: it is the
    interest signal ("this automaton violates agreement") rather than a
    differential leg.
    """
    system = fresh_system(protocol)
    n = system.protocol.n
    inputs = [0] + [1] * (n - 1)
    result = check_consensus_exhaustive(
        system, inputs, max_configs=max_configs, strict=False
    )
    violation = result.first_violation()
    return {
        "ok": bool(result.ok),
        "exhaustive": bool(result.exhaustive),
        "configs": result.configs_visited,
        "violation": None if violation is None else {
            "kind": violation.kind,
            "witness": _encode_schedule(violation.schedule),
        },
    }
