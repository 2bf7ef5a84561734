"""Campaign pipeline: generate -> prefilter -> differential -> shrink -> zoo.

A campaign is one deterministic pass over a seeded corpus: ``count``
generated automata plus ``mutants`` structure-aware mutants of each
survivor, every one prefiltered by the static lint pass (boring shapes
never reach an engine), every survivor run through the differential
oracle, and every divergence ddmin-minimised and persisted into the
regression zoo with provenance.

Determinism contract: for a fixed :class:`CampaignConfig` the journal
bytes and the set of zoo additions are identical across runs and
machines.  The only entropy source is ``random.Random(config.seed)``,
journal lines carry no timestamps, budget accounting charges the
engines' *visited-state counts* (deterministic) rather than wall-clock,
and JSON is emitted with sorted keys.  ``deadline`` is the one
explicitly non-deterministic escape hatch -- a wall-clock stop for
nightly CI -- and campaigns that need byte-stable journals simply do
not set it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.absint import absint_summary, static_certificate
from repro.analysis.shrink import shrink_protocol
from repro.fuzz.generator import (
    GENERATOR_VERSION,
    GeneratorConfig,
    generate_protocol,
    mutate_protocol,
)
from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    DifferentialReport,
    EngineSpec,
    checker_verdict,
    differential,
)
from repro.fuzz.zoo import Zoo, default_zoo_root, specimen_digest
from repro.lint.cfg import table_cfg
from repro.model.table import TableProtocol
from repro.obs.runtime import get_metrics, get_tracer

#: Journal format version -- bump with any change to line layouts.
#: (2: specimen records carry an ``absint`` verdict tag.)
JOURNAL_FORMAT = 2


def boring_reason(protocol: TableProtocol, reach=None) -> Optional[str]:
    """Why a candidate is not worth an engine run (None = interesting).

    Built on abstract reachability: an automaton whose *abstractly*
    reachable states never take a shared-memory step cannot distinguish
    any pair of engines, so running it through the matrix is pure waste.
    This is value-aware and therefore strictly stronger than the old
    CFG-based check (a rule state only reachable via a transition on an
    impossible response is dead here, live in the CFG); it stays sound
    because abstract ⊇ concrete.  Statically *refuted* specimens are
    deliberately not filtered — a protocol that, say, constant-decides
    is exactly the shape whose decision plumbing should agree across
    engines, so it gets tagged (journal ``absint`` field) and explored.
    Hand-picked zoo entries bypass this filter -- curation outranks
    heuristics.

    ``reach`` accepts a precomputed
    :class:`~repro.absint.AbstractReachability` (campaigns analyze each
    specimen once for the journal tag and reuse it here); a widened
    result falls back to the CFG graph.
    """
    initial_states = set(protocol.initial.values())
    if initial_states and initial_states <= set(protocol.decisions):
        return "instant-decide"
    if reach is None and type(protocol) is TableProtocol:
        from repro.absint import analyze_table

        reach = analyze_table(protocol)
    if reach is not None and not reach.states.is_top():
        reachable = reach.states.values
    else:
        reachable = table_cfg(protocol).reachable
    live = [
        state for state in reachable
        if state in protocol.rules and state not in protocol.decisions
    ]
    if not live:
        return "no-steps"
    return None


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign run depends on (and nothing else)."""

    seed: int = 0
    count: int = 20
    mutants: int = 2
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    engines: Tuple[EngineSpec, ...] = DEFAULT_ENGINES
    max_configs: int = 4_000
    max_depth: Optional[int] = 40
    budget_steps: Optional[int] = None
    deadline: Optional[float] = None
    guarded: bool = False
    guarded_budget: Optional[int] = None
    zoo_root: Optional[Path] = None
    zoo_cap: int = 5
    shrink_passes: int = 4
    inject: Optional[str] = None

    def engine_matrix(self) -> Tuple[EngineSpec, ...]:
        """The differential matrix, plus the saboteur when injecting."""
        if not self.inject:
            return self.engines
        return self.engines + (
            EngineSpec("sabotaged", sabotage=self.inject),
        )


@dataclass
class CampaignResult:
    """Outcome of one campaign: stats, journal lines, zoo additions."""

    config: CampaignConfig
    stats: Dict[str, int] = field(default_factory=dict)
    journal_lines: List[str] = field(default_factory=list)
    zoo_added: List[str] = field(default_factory=list)
    divergent: List[Dict[str, Any]] = field(default_factory=list)
    stopped: str = "complete"  # "complete" | "budget" | "deadline"

    @property
    def ok(self) -> bool:
        return not self.divergent

    def journal_bytes(self) -> bytes:
        return ("\n".join(self.journal_lines) + "\n").encode("utf-8")

    def write_journal(self, path) -> None:
        Path(path).write_bytes(self.journal_bytes())


def _jline(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


def run_campaign(
    config: CampaignConfig,
    *,
    journal_path=None,
) -> CampaignResult:
    """Execute one deterministic fuzzing campaign.

    The worklist interleaves each generated specimen with its mutants
    (parent first) so the single ``rng`` stream is consumed in a fixed
    order.  Budget is charged per explored specimen with the baseline
    engine's visited count; exhaustion stops the campaign *between*
    specimens, so a journal truncated by budget is still byte-stable
    for that (seed, budget) pair.
    """
    rng = random.Random(config.seed)
    metrics = get_metrics()
    tracer = get_tracer()
    result = CampaignResult(config=config)
    engines = config.engine_matrix()
    zoo = Zoo(config.zoo_root or default_zoo_root())
    stats = {
        "generated": 0, "filtered": 0, "explored": 0, "divergent": 0,
        "mutated": 0, "zoo_added": 0, "spent": 0,
    }
    result.journal_lines.append(_jline({
        "kind": "fuzz-journal",
        "format": JOURNAL_FORMAT,
        "generator_version": GENERATOR_VERSION,
        "seed": config.seed,
        "count": config.count,
        "mutants": config.mutants,
        "engines": [spec.name for spec in engines],
        "max_configs": config.max_configs,
        "max_depth": config.max_depth,
        "budget_steps": config.budget_steps,
        "guarded": config.guarded,
        "inject": config.inject,
    }))
    started = time.monotonic()

    def out_of_time() -> bool:
        return (
            config.deadline is not None
            and time.monotonic() - started >= config.deadline
        )

    def process(
        protocol: TableProtocol, origin: str, parent: Optional[str]
    ) -> Optional[str]:
        """Run one specimen through the pipeline; returns its digest
        when it survived the prefilter (mutation fuel), else None."""
        digest = specimen_digest(protocol)
        record: Dict[str, Any] = {
            "kind": "specimen",
            "origin": origin,
            "parent": parent,
            "name": protocol.name,
            "digest": digest,
        }
        # One static analysis per specimen: the certificate tags the
        # journal (refuted shapes are kept, not dropped), its fixpoint
        # feeds the value-aware liveness prefilter, and its fixpoints
        # serve the abstract-soundness leg.
        certificate = static_certificate(protocol)
        record["absint"] = {
            "refuted": certificate.refuted,
            "kinds": list(certificate.kinds),
            "writes": sorted(certificate.overall.writes),
        }
        reason = boring_reason(protocol, reach=certificate.overall)
        if reason is not None:
            stats["filtered"] += 1
            metrics.counter("fuzz.filtered").inc()
            record["filtered"] = reason
            result.journal_lines.append(_jline(record))
            return None
        record["filtered"] = None
        report = differential(
            protocol,
            engines,
            max_configs=config.max_configs,
            max_depth=config.max_depth,
            guarded=config.guarded,
            guarded_budget=config.guarded_budget,
            certificate=certificate,
        )
        stats["explored"] += 1
        stats["spent"] += report.visited
        record["visited"] = report.visited
        record["verdict"] = checker_verdict(
            protocol, max_configs=config.max_configs
        )
        record["divergent"] = not report.ok
        record["divergences"] = [
            {"engine": d.engine, "kind": d.kind}
            for d in report.divergences
        ]
        record["zoo"] = None
        if not report.ok:
            stats["divergent"] += 1
            record["zoo"] = _persist_divergence(
                protocol, report, config, engines, zoo,
                stats, result, origin, digest,
            )
        result.journal_lines.append(_jline(record))
        return digest

    with tracer.span("fuzz.campaign", seed=config.seed, count=config.count):
        stop = "complete"
        for index in range(config.count):
            if config.budget_steps is not None and (
                stats["spent"] >= config.budget_steps
            ):
                stop = "budget"
                break
            if out_of_time():
                stop = "deadline"
                break
            protocol = generate_protocol(
                rng, config.generator, name=f"fuzz-{config.seed}-{index}"
            )
            stats["generated"] += 1
            metrics.counter("fuzz.generated").inc()
            parent_digest = process(protocol, "generated", None)
            if parent_digest is None:
                continue
            for _ in range(config.mutants):
                if config.budget_steps is not None and (
                    stats["spent"] >= config.budget_steps
                ):
                    stop = "budget"
                    break
                if out_of_time():
                    stop = "deadline"
                    break
                mutant = mutate_protocol(rng, protocol)
                stats["generated"] += 1
                stats["mutated"] += 1
                metrics.counter("fuzz.generated").inc()
                metrics.counter("fuzz.mutated").inc()
                process(mutant, "mutant", parent_digest)
            if stop != "complete":
                break

    result.stopped = stop
    result.stats = stats
    result.journal_lines.append(_jline({
        "kind": "summary",
        "stopped": stop,
        **stats,
    }))
    if journal_path is not None:
        result.write_journal(journal_path)
    return result


def _persist_divergence(
    protocol: TableProtocol,
    report: DifferentialReport,
    config: CampaignConfig,
    engines: Tuple[EngineSpec, ...],
    zoo: Zoo,
    stats: Dict[str, int],
    result: CampaignResult,
    origin: str,
    digest: str,
) -> Optional[str]:
    """Minimise a divergent specimen and add it to the zoo (capped)."""
    first = report.first()
    finding = {
        "digest": digest,
        "name": protocol.name,
        "engine": first.engine,
        "divergence": first.kind,
        "detail": first.detail,
    }
    result.divergent.append(finding)
    if stats["zoo_added"] >= config.zoo_cap:
        return None

    shrink_matrix = tuple(
        spec for spec in engines
        if spec.name == engines[0].name or spec.name == first.engine
    )

    def still_diverges(candidate: TableProtocol) -> bool:
        probe = differential(
            candidate,
            shrink_matrix,
            max_configs=config.max_configs,
            max_depth=config.max_depth,
            guarded=config.guarded and first.kind in ("verdict", "exit-code"),
            guarded_budget=config.guarded_budget,
        )
        return any(
            d.engine == first.engine and d.kind == first.kind
            for d in probe.divergences
        )

    try:
        minimized = shrink_protocol(
            protocol, still_diverges, max_passes=config.shrink_passes
        )
    except ValueError:
        # The reduced matrix no longer reproduces -- archive the
        # unshrunk specimen rather than drop the finding.
        minimized = protocol
    provenance = {
        "seed": config.seed,
        "generator_version": GENERATOR_VERSION,
        "origin": origin,
        "found_as": protocol.name,
        "original_digest": digest,
        "tag": f"divergence:{first.engine}/{first.kind}",
        "detail": first.detail,
        "engines": [spec.name for spec in engines],
        "max_configs": config.max_configs,
        "max_depth": config.max_depth,
        "absint": absint_summary(minimized),
    }
    specimen, added = zoo.add(minimized, provenance)
    if added:
        stats["zoo_added"] += 1
        metrics_added = get_metrics().counter("fuzz.zoo_added")
        metrics_added.inc()
        result.zoo_added.append(specimen.digest)
    return specimen.digest


def smoke_config(**overrides) -> CampaignConfig:
    """A tiny, fast campaign configuration for tests and CLI smoke."""
    base = CampaignConfig(
        count=6,
        mutants=1,
        max_configs=1_500,
        max_depth=24,
        generator=GeneratorConfig(
            n=(2, 2), states=(3, 5), registers=(1, 2)
        ),
    )
    return replace(base, **overrides)
