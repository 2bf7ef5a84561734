"""Content-addressed on-disk cache of valency exploration results.

Repeated adversary runs (and journaled resumes) ask the valency oracle
the same questions about the same protocols; the answers are pure
functions of (protocol, tape, oracle budgets, canonical configuration
key).  This module persists them: one JSON file per canonical query key,
filed under the oracle fingerprint, so a warm rerun answers
``can_decide`` without re-exploring.

Trust model
-----------
The cache is an accelerator, never an authority:

* every file carries a SHA-256 checksum of its body; a truncated or
  bit-flipped file fails verification, is **quarantined** (renamed to
  ``*.corrupt``) and recomputed -- never silently trusted;
* witness schedules loaded from disk are replay-validated against the
  live configuration by the oracle before they are believed;
* the tree is versioned (``v1/``): format changes abandon old entries
  instead of misreading them.

The store is bounded: ``max_bytes`` (default 256 MB) is enforced by
least-recently-used eviction on file mtimes, which ``load`` refreshes.
Writes are atomic (temp file + ``os.replace``), so a crashed writer
leaves no half-written entry under the final name.

Multiple processes may share one cache directory (two CLI runs with
the same ``--cache-dir``): mutations -- store + its LRU
eviction pass, and ``clear`` -- are serialized by an advisory
``fcntl.flock`` on ``<base>/.lock``, and the eviction census skips
in-flight ``.tmp-*`` names, so one writer's eviction can neither delete
another writer's half-landed entry nor interleave with its rename.
Reads stay lock-free: entries only ever appear via atomic ``os.replace``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: single-writer only
    fcntl = None  # type: ignore[assignment]

from repro.obs.runtime import get_metrics, get_tracer

#: On-disk layout version; bumping it orphans (ignores) older trees.
CACHE_FORMAT = 1

#: Default size bound for the cache tree.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _body_checksum(body: Dict[str, Any]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _json_native(value) -> bool:
    """True if ``value`` round-trips through JSON unchanged."""
    return value is None or type(value) in (bool, int, float, str)


class ValencyCache:
    """A bounded, checksummed, content-addressed store of query results.

    Entries are addressed by ``(fingerprint, key_digest)`` -- the oracle
    fingerprint (protocol x tape x value domain x budgets) and the
    stable digest of the canonical query key.  The entry body is the
    oracle's accumulated knowledge for that key: witness schedules per
    decidable value, whether the reachable graph was exhausted, and (in
    bounded mode) the values searched for and not found.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        base = Path(root) if root is not None else default_cache_dir()
        self.base = base
        self.root = base / f"v{CACHE_FORMAT}"
        self.max_bytes = max_bytes
        self.counters = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "corrupt": 0,
            "evicted": 0,
        }

    # -- addressing ---------------------------------------------------------
    def _path(self, fingerprint: str, key_digest: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}-{key_digest}.json"

    # -- cross-process mutual exclusion -------------------------------------
    @contextlib.contextmanager
    def _write_lock(self):
        """Advisory exclusive lock serializing mutations across processes.

        Two concurrent writers (two CLI runs on the same
        ``--cache-dir``) must not interleave a store's
        temp-write/rename with another store's eviction pass: the census
        would count (and could unlink) the in-flight temp file, turning
        the second writer's ``os.replace`` into a lost entry.  The lock
        file lives beside the versioned tree so ``clear`` never removes
        it; the OS drops the lock if the holder dies, so a crashed
        writer cannot wedge the cache.
        """
        if fcntl is None:
            yield
            return
        self.base.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.base / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing releases the flock

    # -- read ---------------------------------------------------------------
    def load(
        self, fingerprint: str, key_digest: str
    ) -> Optional[Dict[str, Any]]:
        """The stored body for this address, or None.

        Any defect -- unreadable file, bad JSON, checksum mismatch,
        wrong address inside the file -- quarantines the file and
        reports a miss, so a later ``store`` recomputes the entry.
        """
        path = self._path(fingerprint, key_digest)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self._bump("misses")
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
            body = payload["body"]
            if payload.get("format") != CACHE_FORMAT:
                raise ValueError("format version mismatch")
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            if payload.get("key") != key_digest:
                raise ValueError("key digest mismatch")
            if payload.get("checksum") != _body_checksum(body):
                raise ValueError("checksum mismatch")
        except (KeyError, TypeError, ValueError) as defect:
            self._quarantine(path)
            self._bump("corrupt")
            self._bump("misses")
            get_tracer().event(
                "cache.quarantine", path=str(path), defect=str(defect)
            )
            return None
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:
            pass
        self._bump("hits")
        return body

    # -- write --------------------------------------------------------------
    def store(
        self, fingerprint: str, key_digest: str, body: Dict[str, Any]
    ) -> None:
        """Atomically write (or overwrite) the entry for this address."""
        path = self._path(fingerprint, key_digest)
        payload = {
            "format": CACHE_FORMAT,
            "fingerprint": fingerprint,
            "key": key_digest,
            "checksum": _body_checksum(body),
            "body": body,
        }
        with self._write_lock():
            path.parent.mkdir(parents=True, exist_ok=True)
            # mkstemp opens O_EXCL under a .tmp- name the census skips.
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._bump("stores")
            self._evict_to_bound()

    def _bump(self, name: str) -> None:
        """Advance a local counter and its ``valency_cache.*`` mirror."""
        self.counters[name] += 1
        get_metrics().counter(f"valency_cache.{name}").inc()

    # -- maintenance --------------------------------------------------------
    def _quarantine(self, path: Path) -> None:
        """Move a defective file aside (never delete evidence silently).

        Concurrency-safe: two processes racing to quarantine the same
        entry must not clobber each other's evidence, so the move is a
        ``link`` (which fails rather than overwrites an existing target)
        to the first free ``.corrupt`` / ``.corrupt-N`` name, then an
        unlink of the source.  A path that vanished mid-race (the other
        process won) is simply done; any other failure falls back to a
        best-effort ``os.replace`` so the defective entry never stays
        live under its original name.
        """
        for attempt in range(16):
            suffix = ".corrupt" if attempt == 0 else f".corrupt-{attempt}"
            target = path.with_suffix(suffix)
            try:
                os.link(path, target)
            except FileExistsError:
                continue  # another victim already holds this name
            except FileNotFoundError:
                return  # the other process quarantined it first
            except OSError:
                break  # e.g. a filesystem without hard links
            try:
                os.unlink(path)
            except OSError:
                pass
            return
        # Fallback: may clobber a same-named quarantine file, but never
        # leaves the corrupt entry in place or raises.
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    def _entries(self) -> List[Tuple[Path, os.stat_result]]:
        if not self.root.is_dir():
            return []
        out = []
        for path in self.root.rglob("*.json"):
            if path.name.startswith(".tmp-"):
                # Another writer's in-flight temp file: not an entry yet.
                # Counting it would inflate the census; evicting it would
                # break that writer's rename into a lost entry.
                continue
            try:
                out.append((path, path.stat()))
            except OSError:
                continue
        return out

    def _evict_to_bound(self) -> None:
        entries = self._entries()
        total = sum(stat.st_size for _, stat in entries)
        if total <= self.max_bytes:
            return
        # Oldest access first: load() refreshes mtime, so this is LRU.
        entries.sort(key=lambda item: item[1].st_mtime)
        for path, stat in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= stat.st_size
            self._bump("evicted")

    def clear(self) -> int:
        """Delete every cache file (entries and quarantined ones).

        Returns the number of files removed.  Empty shard directories
        are pruned too.  The only survivor is the advisory ``.lock``
        marker beside the versioned tree -- it is what serializes this
        clear against concurrent writers, so it cannot delete itself.
        """
        with self._write_lock():
            return self._clear_locked()

    def _clear_locked(self) -> int:
        removed = 0
        if self.root.is_dir():
            for path in self.root.rglob("*"):
                if path.is_file():
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
            for path in sorted(
                self.root.rglob("*"), key=lambda p: len(p.parts), reverse=True
            ):
                if path.is_dir():
                    try:
                        path.rmdir()
                    except OSError:
                        continue
            try:
                self.root.rmdir()
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Live counters plus an on-disk census of the cache tree."""
        entries = self._entries()
        corrupt = (
            len(list(self.root.rglob("*.corrupt*")))
            if self.root.is_dir()
            else 0
        )
        return {
            "dir": str(self.base),
            "entries": len(entries),
            "bytes": sum(stat.st_size for _, stat in entries),
            "quarantined": corrupt,
            **self.counters,
        }


def encode_entry(
    witnesses: Dict, complete: bool, negative
) -> Optional[Dict[str, Any]]:
    """Encode one oracle key's knowledge as a JSON-safe cache body.

    Returns None when any decided value is not JSON-native -- such
    entries are simply not cached (correct, just never accelerated).
    """
    values = list(witnesses) + list(negative)
    if not all(_json_native(value) for value in values):
        return None
    return {
        "decided": [
            [value, [int(pid) for pid in schedule]]
            for value, schedule in witnesses.items()
        ],
        "complete": bool(complete),
        "negative": sorted(negative, key=repr),
    }


def decode_entry(body: Dict[str, Any]):
    """Decode a cache body into ``(witnesses, complete, negative)``.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
    bodies; callers treat that as a miss.
    """
    witnesses = {
        value: tuple(int(pid) for pid in schedule)
        for value, schedule in body["decided"]
    }
    return witnesses, bool(body["complete"]), set(body["negative"])
