"""Crash-consistent run state: the live checkpoint journal.

A guarded adversary run's resumable state is the **query journal** --
the sequence of oracle answers driving the deterministic construction
(:mod:`repro.faults.resume`).  This module persists it *live*:
:class:`CheckpointJournal` appends one JSONL line per computed answer,
flushed and fsynced, so a SIGKILL at any moment loses at most the
record being written.  :func:`load_checkpoint` recovers the intact
prefix of a torn journal (and still reads the legacy whole-file JSON
checkpoints the CLI used to write on budget exhaustion).

The journal is not an authority: it replays answers that the oracle
re-validates by schedule replay, so corruption can cost time, never
correctness.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ResilienceError
from repro.faults.resume import PartialProgress, QueryJournal, ResumeError
from repro.obs.runtime import get_metrics, get_tracer

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: no concurrency guard
    fcntl = None  # type: ignore[assignment]

#: The ``kind`` tag of a JSONL checkpoint journal's header line.
CHECKPOINT_KIND = "adversary-checkpoint"

#: Journal layout version; bumping it orphans older journals (they are
#: refused with a clear error, never misread).
CHECKPOINT_VERSION = 1


# -- atomic file primitives ---------------------------------------------------


def atomic_write_bytes(path: os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp + fsync + replace.

    A crash at any point leaves either the old content or the new,
    never a torn mix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-ckpt-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: os.PathLike, text: str) -> None:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    atomic_write_bytes(path, text.encode("utf-8"))


# -- the live query journal ---------------------------------------------------


def _lock_path(path: os.PathLike) -> Path:
    return Path(f"{os.fspath(path)}.lock")


def _holder_pid(lock_path: Path) -> str:
    """Best-effort pid marker of the process holding a journal lock."""
    try:
        pid = lock_path.read_text(encoding="utf-8").strip()
    except OSError:
        pid = ""
    return pid or "unknown"


def acquire_journal_lock(path: os.PathLike) -> int:
    """Take the writer lock guarding one checkpoint journal path.

    The journal format tolerates exactly one torn *final* line -- the
    artifact of a single writer dying mid-append.  Two live writers (two
    CLI runs with ``--resume`` of the same path) could interleave
    appends and produce *interior* tears no reader can distinguish from
    corruption, so concurrent opens are refused outright: the second
    opener gets a clean :class:`~repro.errors.ResilienceError` naming
    the holder's pid.  The lock is an ``fcntl.flock`` on a ``.lock``
    sibling (pid recorded inside as the marker), released automatically
    by the OS if the holder dies -- a crashed writer never wedges the
    path.  Returns the open lock fd; close it to release.
    """
    lock_path = _lock_path(path)
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    if fcntl is not None:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            pid = _holder_pid(lock_path)
            os.close(fd)
            raise ResilienceError(
                f"checkpoint journal {os.fspath(path)} is open in another "
                f"process (pid {pid}); concurrent use would tear it -- "
                f"wait for that run to finish"
            ) from None
    os.truncate(fd, 0)
    os.write(fd, f"{os.getpid()}\n".encode("ascii"))
    return fd


def check_journal_unlocked(path: os.PathLike) -> None:
    """Refuse (``ResilienceError``) if ``path``'s journal is open elsewhere.

    Probe used by readers about to resume: acquires and immediately
    releases the writer lock without touching the pid marker.
    """
    if fcntl is None:
        return
    lock_path = _lock_path(path)
    try:
        fd = os.open(lock_path, os.O_RDWR)
    except OSError:
        return  # no lock file: nobody has ever written this journal live
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise ResilienceError(
                f"checkpoint journal {os.fspath(path)} is open in another "
                f"process (pid {_holder_pid(lock_path)}); refusing to "
                f"resume a journal that is still being written"
            ) from None
    finally:
        os.close(fd)


def _entry_payload(entry: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical JSON form of one journal entry."""
    witness = entry.get("witness")
    return {
        "answer": bool(entry["answer"]),
        "witness": (
            None if witness is None else [int(pid) for pid in witness]
        ),
    }


class CheckpointJournal(QueryJournal):
    """A query journal persisted live to an append-only JSONL file.

    The file starts with a header line naming the protocol and the
    oracle budgets (a resume must match them), followed by one line per
    recorded answer.  On open, the file is atomically rewritten with the
    header plus any preloaded (resumed) entries, then kept open in
    append mode; each :meth:`record` appends, flushes, and fsyncs, so
    the journal on disk always trails the computation by at most the
    line currently being written -- and :func:`load_checkpoint`
    tolerates exactly that torn final line.

    ``fsync_every`` trades durability for throughput: fsync every Nth
    record (the flush still happens per record, so only an OS crash --
    not a process SIGKILL -- can lose the unsynced tail).
    """

    def __init__(
        self,
        path: os.PathLike,
        protocol: str,
        n: int,
        max_configs: int = 200_000,
        max_depth: Optional[int] = None,
        strict: bool = False,
        entries: Optional[List[Dict[str, Any]]] = None,
        fsync_every: int = 1,
    ):
        super().__init__(entries)
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._since_fsync = 0
        # Writer exclusivity first: the open below atomically *rewrites*
        # the file, which must never happen under a live writer's feet.
        self._lock_fd: Optional[int] = acquire_journal_lock(self.path)
        self._header = {
            "kind": CHECKPOINT_KIND,
            "v": CHECKPOINT_VERSION,
            "protocol": protocol,
            "n": int(n),
            "max_configs": int(max_configs),
            "max_depth": None if max_depth is None else int(max_depth),
            "strict": bool(strict),
        }
        lines = [json.dumps(self._header, sort_keys=True)]
        lines.extend(
            json.dumps(_entry_payload(entry), sort_keys=True)
            for entry in self.entries
        )
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        self._handle: Optional[io.TextIOWrapper] = open(
            self.path, "a", encoding="utf-8"
        )

    def record(self, entry: Dict[str, Any]) -> None:
        super().record(entry)
        if self._handle is None:
            raise ResumeError(
                f"checkpoint journal {self.path} recorded into after close()"
            )
        self._handle.write(
            json.dumps(_entry_payload(entry), sort_keys=True) + "\n"
        )
        self._handle.flush()
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_every:
            os.fsync(self._handle.fileno())
            self._since_fsync = 0
        get_metrics().counter("checkpoint.records").inc()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass
            self._handle.close()
            self._handle = None
        if self._lock_fd is not None:
            os.close(self._lock_fd)  # closing releases the flock
            self._lock_fd = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _progress_from_header(
    header: Dict[str, Any], entries: List[Dict[str, Any]]
) -> PartialProgress:
    try:
        return PartialProgress(
            protocol=str(header["protocol"]),
            n=int(header["n"]),
            queries=entries,
            max_configs=int(header.get("max_configs", 200_000)),
            max_depth=(
                None
                if header.get("max_depth") is None
                else int(header["max_depth"])
            ),
            strict=bool(header.get("strict", False)),
            note="recovered from checkpoint journal",
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ResumeError(f"malformed checkpoint header: {exc}") from exc


def load_checkpoint(path: os.PathLike) -> Optional[PartialProgress]:
    """Recover a :class:`PartialProgress` from a checkpoint file.

    Returns None for a missing or empty file (nothing to resume).
    Understands both formats:

    * the JSONL journal written by :class:`CheckpointJournal` -- the
      header must parse (a journal whose *first* line is damaged cannot
      be trusted at all and raises :class:`ResumeError`); a torn or
      malformed **final** line is the expected SIGKILL artifact and is
      dropped, recovering the intact prefix; a malformed line anywhere
      *else* means mid-file corruption and raises;
    * the legacy whole-file ``partial-progress`` JSON document the CLI
      used to write on budget exhaustion.

    A journal that is *currently open* in another live process is
    refused with :class:`~repro.errors.ResilienceError` before a byte is
    read: resuming it would race the writer's appends (interior tears),
    and the subsequent re-open would atomically rewrite the file under
    the writer.
    """
    path = Path(path)
    check_journal_unlocked(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None
    if not raw.strip():
        return None
    # Sniff: a journal's first line is a complete JSON header object
    # with our kind tag; the legacy indent-2 document's first line is
    # just "{" and fails to parse on its own.
    first_line = raw.split("\n", 1)[0]
    try:
        header = json.loads(first_line)
        is_journal = (
            isinstance(header, dict)
            and header.get("kind") == CHECKPOINT_KIND
        )
    except json.JSONDecodeError:
        is_journal = False
    if is_journal:
        return _load_jsonl(path, raw)
    return _load_legacy(path, raw)


def _load_legacy(path: Path, raw: str) -> PartialProgress:
    from repro.core.serialize import SerializationError, certificate_from_json

    try:
        progress = certificate_from_json(raw)
    except SerializationError as exc:
        raise ResumeError(f"{path}: not a checkpoint: {exc}") from exc
    if not isinstance(progress, PartialProgress):
        raise ResumeError(
            f"{path} is not a partial-progress checkpoint "
            f"(got {type(progress).__name__})"
        )
    return progress


def _load_jsonl(path: Path, raw: str) -> Optional[PartialProgress]:
    lines = raw.split("\n")
    # Drop the trailing empty string of a newline-terminated file; a
    # non-empty last element *is* the torn tail (no final newline).
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return None
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (json.JSONDecodeError, ValueError) as exc:
        raise ResumeError(
            f"{path}: unreadable checkpoint header: {exc}"
        ) from exc
    if header.get("kind") != CHECKPOINT_KIND:
        raise ResumeError(
            f"{path}: not a checkpoint journal (kind={header.get('kind')!r})"
        )
    if header.get("v") != CHECKPOINT_VERSION:
        raise ResumeError(
            f"{path}: checkpoint journal version {header.get('v')!r} is not "
            f"{CHECKPOINT_VERSION}; refusing to misread it"
        )
    entries: List[Dict[str, Any]] = []
    dropped = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            entry = _entry_payload(payload)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if lineno == len(lines):
                # The torn final record of an interrupted writer: the
                # journal's intact prefix is still a valid checkpoint.
                dropped = 1
                break
            raise ResumeError(
                f"{path}: corrupt checkpoint record at line {lineno}: {exc}"
            ) from exc
        entries.append(entry)
    if dropped:
        get_tracer().event(
            "checkpoint.torn_tail", path=str(path), recovered=len(entries)
        )
    return _progress_from_header(header, entries)
