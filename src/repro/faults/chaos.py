"""Deterministic chaos: seeded faults injected into the runtime itself.

The rest of :mod:`repro.faults` injects faults into the *modelled*
system -- crashes in schedules, corruption in simulated registers.  This
module injects faults into the *runtime*: corrupt an on-disk cache
entry, truncate a checkpoint journal mid-record.  Injection points are
seeded, so a chaos run is exactly reproducible -- and the differential
campaign (:func:`chaos_campaign`, CLI ``repro chaos``) proves the
headline property end to end: certificates, witnesses and exit codes
under injected faults are **byte-equal** to the undisturbed run's.

Why byte-equality is even possible: caches and checkpoint journals are
accelerators that re-validate everything they serve, and the adversary
construction itself is deterministic.  A damaged accelerator can
therefore cost only time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.core.serialize import to_json
from repro.model.process import Protocol
from repro.model.system import System
from repro.obs.runtime import get_tracer

#: Scenario names understood by :func:`chaos_campaign`.
SCENARIOS = ("cache-corruption", "journal-truncation")


def corrupt_cache_entry(cache_dir, seed: int = 0) -> Optional[Path]:
    """Flip one byte of a deterministically chosen cache entry.

    Returns the damaged path, or None if the cache holds no entries.
    The flip (xor 0x01) always breaks the entry: it either tears the
    JSON syntax or changes the body/checksum relationship, so the
    cache's verification quarantines the file on next load.
    """
    root = Path(cache_dir)
    entries = sorted(root.rglob("*.json"))
    if not entries:
        return None
    rng = random.Random(seed)
    victim = entries[rng.randrange(len(entries))]
    blob = bytearray(victim.read_bytes())
    if not blob:
        return None
    offset = rng.randrange(len(blob))
    blob[offset] ^= 0x01
    victim.write_bytes(bytes(blob))
    get_tracer().event(
        "chaos.cache_corrupted", path=str(victim), offset=offset
    )
    return victim


def truncate_tail(path, drop_bytes: int) -> int:
    """Truncate ``drop_bytes`` off a file's tail; returns the new size.

    Simulates a writer killed mid-``write``: the final record is torn at
    an arbitrary byte boundary.
    """
    path = Path(path)
    size = path.stat().st_size
    keep = max(0, size - drop_bytes)
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    get_tracer().event(
        "chaos.journal_truncated", path=str(path), kept=keep, dropped=size - keep
    )
    return keep


# -- the differential campaign ------------------------------------------------


@dataclass
class ChaosScenarioRow:
    """One scenario's verdict: did the fault stay invisible in results?

    ``injected`` describes the faults that actually fired.  A scenario
    that injected nothing proves nothing, so its row is never ``ok``.
    """

    scenario: str
    ok: bool
    detail: str
    injected: List[str] = field(default_factory=list)


def _guarded_json(system: System, **kwargs) -> Tuple[str, str]:
    """Run the guarded adversary; (status, canonical JSON of the result)."""
    from repro.faults.harness import run_adversary_guarded

    outcome = run_adversary_guarded(system, **kwargs)
    if outcome.status == "certificate":
        return outcome.status, to_json(outcome.certificate)
    if outcome.status == "violation":
        witness = getattr(outcome.violation, "witness", None)
        payload = {
            "detail": str(outcome.violation),
            "witness": None if witness is None else [int(p) for p in witness],
        }
        return outcome.status, json.dumps(payload, sort_keys=True)
    return outcome.status, to_json(outcome.partial)


def chaos_campaign(
    protocol: Protocol,
    workdir,
    seed: int = 0,
    scenarios: Sequence[str] = SCENARIOS,
    max_configs: int = 30_000,
    max_depth: Optional[int] = 60,
) -> List[ChaosScenarioRow]:
    """Differential chaos over one protocol: faults must not change results.

    Every scenario computes the undisturbed outcome first, injects its
    fault into a cached or resumed variant, and demands the serialized
    results be byte-equal.  A scenario with nothing to damage (say, a
    protocol whose queries never reach the cache) is reported as
    vacuous, not passed.  ``workdir`` holds the scenario's caches and
    journals (the caller owns its lifetime).
    """
    from repro.resilience.checkpoint import load_checkpoint

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    common = {"max_configs": max_configs, "max_depth": max_depth}
    base_status, base_json = _guarded_json(System(protocol), **common)
    rows: List[ChaosScenarioRow] = []

    def verdict(
        scenario: str, status: str, payload: str, injected: List[str]
    ) -> None:
        if status != base_status or payload != base_json:
            ok, detail = False, f"MISMATCH: {status} vs {base_status}"
        elif not injected:
            ok, detail = False, "vacuous: no fault was injected"
        else:
            ok, detail = True, f"{status}: byte-equal to undisturbed run"
        if injected:
            detail = f"{detail}; {'; '.join(injected)}"
        rows.append(ChaosScenarioRow(scenario, ok, detail, injected))

    for scenario in scenarios:
        if scenario == "cache-corruption":
            cache_dir = workdir / f"cache-{seed}"
            _guarded_json(System(protocol), cache_dir=cache_dir, **common)
            victim = corrupt_cache_entry(cache_dir, seed=seed)
            if victim is None:
                rows.append(ChaosScenarioRow(
                    scenario=scenario,
                    ok=False,
                    detail="vacuous: the warm-up run stored no cache "
                    "entries, so nothing was corrupted",
                ))
                continue
            status, payload = _guarded_json(
                System(protocol), cache_dir=cache_dir, **common
            )
            verdict(
                scenario, status, payload,
                [f"corrupted {victim.name}, recomputed + quarantined"],
            )
        elif scenario == "journal-truncation":
            journal = workdir / f"journal-{seed}.ckpt"
            status, payload = _guarded_json(
                System(protocol), checkpoint=str(journal), **common
            )
            if status != base_status or payload != base_json:
                verdict(scenario, status, payload, [])
                continue
            size = journal.stat().st_size
            dropped = size - truncate_tail(journal, drop_bytes=1 + (seed % 7))
            progress = load_checkpoint(journal)
            status, payload = _guarded_json(
                System(protocol), resume=progress, **common
            )
            recovered = 0 if progress is None else len(progress.queries)
            verdict(
                scenario, status, payload,
                [f"tore {dropped} tail byte(s), resumed from {recovered} "
                 "journaled answers"],
            )
        else:
            rows.append(
                ChaosScenarioRow(
                    scenario=scenario,
                    ok=False,
                    detail=f"unknown scenario (expected one of {SCENARIOS})",
                )
            )
    return rows
