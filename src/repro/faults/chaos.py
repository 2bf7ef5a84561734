"""Deterministic chaos: a seeded fault injected into the runtime itself.

The rest of :mod:`repro.faults` injects faults into the *modelled*
system -- crashes in schedules, corruption in simulated registers.  This
module injects one into the *runtime*: it tears the final record of a
checkpoint journal, as a writer killed mid-append would.  The tear is
seeded, so a chaos run is exactly reproducible -- and the differential
campaign (:func:`chaos_campaign`, CLI ``repro chaos``) proves the
headline property end to end: the certificate, witness or partial
progress of a run resumed from the torn journal is **byte-equal** to
the undisturbed run's.

Why byte-equality is even possible: the journal only replays answers of
a deterministic construction, and the oracle re-validates every
replayed witness.  A damaged journal can therefore cost only time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.serialize import to_json
from repro.model.process import Protocol
from repro.model.system import System
from repro.obs.runtime import get_tracer


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

    ``injected`` describes the faults that took effect; a tear that lost
    no journaled answer is not one.  A scenario that injected nothing
    proves nothing, so its row is never ``ok``.
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
    max_configs: int = 30_000,
    max_depth: Optional[int] = 60,
) -> List[ChaosScenarioRow]:
    """Differential chaos over one protocol: a torn journal must not
    change the result.

    The campaign computes the undisturbed outcome, reruns it with a live
    checkpoint journal, tears ``2 + seed % 7`` bytes off the journal's
    tail and resumes from what is left; the serialized results must be
    byte-equal.  The shortest journal record is a 34-byte line, so the
    tear always cuts into the final record.  A resume that still
    recovered every journaled answer proves nothing, so its row is
    reported as vacuous, not passed.  ``workdir`` holds the journal
    (the caller owns its lifetime).
    """
    from repro.resilience.checkpoint import load_checkpoint

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    common = {"max_configs": max_configs, "max_depth": max_depth}
    base = _guarded_json(System(protocol), **common)
    journal = workdir / f"journal-{seed}.ckpt"
    journaled_run = _guarded_json(
        System(protocol), checkpoint=str(journal), **common
    )
    if journaled_run != base:
        return [ChaosScenarioRow(
            "journal-truncation", False,
            f"MISMATCH: {journaled_run[0]} vs {base[0]} before any tear",
        )]
    journaled = len(load_checkpoint(journal).queries)
    size = journal.stat().st_size
    dropped = size - truncate_tail(journal, drop_bytes=2 + seed % 7)
    progress = load_checkpoint(journal)
    recovered = 0 if progress is None else len(progress.queries)
    resumed = _guarded_json(System(protocol), resume=progress, **common)
    tear = (
        f"tore {dropped} tail bytes, resumed from {recovered} of "
        f"{journaled} journaled answers"
    )
    injected = [tear] if recovered < journaled else []
    if resumed != base:
        ok, verdict = False, f"MISMATCH: {resumed[0]} vs {base[0]}"
    elif not injected:
        ok, verdict = False, "vacuous: the tear lost no journaled answer"
    else:
        ok, verdict = True, f"{base[0]}: byte-equal to undisturbed run"
    return [ChaosScenarioRow(
        "journal-truncation", ok, f"{verdict}; {tear}", injected
    )]
