"""Crash-consistency for adversary runs.

The paper's lower bound is proved against an adversary that crashes
processes at the worst possible moment; this package makes the *runtime*
survive the same treatment.  Every run must end in a certificate, a
replayable violation, or a resumable checkpoint -- even when the process
itself dies mid-run:

* :mod:`repro.resilience.checkpoint` -- crash-consistent run state:
  :class:`CheckpointJournal` persists every computed oracle answer to an
  append-only JSONL file (atomic rewrite on open, flush + fsync per
  record, one writer per path), and :func:`load_checkpoint` recovers
  the intact prefix of a torn journal.

The deterministic chaos harness that proves all of this preserves
results bit-for-bit lives in :mod:`repro.faults.chaos` (CLI:
``repro chaos``).
"""

from repro.errors import ResilienceError
from repro.resilience.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    CheckpointJournal,
    acquire_journal_lock,
    atomic_write_bytes,
    atomic_write_text,
    check_journal_unlocked,
    load_checkpoint,
)

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "CheckpointJournal",
    "ResilienceError",
    "acquire_journal_lock",
    "atomic_write_bytes",
    "atomic_write_text",
    "check_journal_unlocked",
    "load_checkpoint",
]
