"""Structured trace journal: JSONL span/event records with a pinned schema.

A journal is a sequence of JSON objects, one per line, each carrying the
schema version (``"v": 1``), a monotonic timestamp ``t``, the ``run``
id, a record ``type`` and a ``name``.  Four record types exist:

``span_start``
    A timed operation began; carries its ``id``, its ``parent`` span id
    (``None`` at the root) and a ``data`` dict of operation fields.
``span_end``
    The matching close; carries the same ``id`` plus ``status``
    (``"ok"`` or ``"error"``; errors add an ``error`` string).  Spans
    never suppress the exception that ended them.
``event``
    A point-in-time fact (a torn checkpoint tail, an exploration limit,
    a run outcome) attached to the currently open span via ``parent``.
``metrics``
    A full :meth:`repro.obs.metrics.MetricsRegistry.snapshot` dump,
    conventionally the journal's final record so ``repro stats`` can
    render a run's counters without replaying it.

The schema is a compatibility contract: ``tests/test_obs_schema.py``
pins :data:`SCHEMA_VERSION` and :data:`REQUIRED_KEYS` literally, and
:func:`parse_journal` is the single reader every consumer (``repro
trace``, ``repro stats``, the tests) goes through.

Sinks flush after every record, so a journal is valid JSONL -- no
truncated last line -- even if the process dies mid-run or unwinds on
an exception mapped to exit code 2 or 3.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, IO, Iterable, List, Optional

from repro.errors import JournalError, SchemaTooNew

#: Version stamped into every record; readers reject anything else.
SCHEMA_VERSION = 1

#: Required keys per record type.  Additions are allowed (readers must
#: ignore unknown keys); removals or renames need a version bump.
REQUIRED_KEYS: Dict[str, tuple] = {
    "span_start": ("v", "t", "run", "type", "name", "id", "parent", "data"),
    "span_end": ("v", "t", "run", "type", "name", "id", "status"),
    "event": ("v", "t", "run", "type", "name", "parent", "data"),
    "metrics": ("v", "t", "run", "type", "name", "data"),
}


def jsonable(value: Any) -> Any:
    """Coerce a record field into a deterministic JSON-safe value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=repr)
    return repr(value)


def new_run_id() -> str:
    """A short collision-resistant run id (no global state, no clock)."""
    return os.urandom(6).hex()


def validate_record(record: Any, line: Optional[int] = None) -> str:
    """Check one parsed record against the schema; returns its type."""
    where = "" if line is None else f" (line {line})"
    if not isinstance(record, dict):
        raise JournalError(f"journal record is not an object{where}")
    version = record.get("v")
    if version != SCHEMA_VERSION:
        if isinstance(version, int) and version > SCHEMA_VERSION:
            # A journal from a newer writer (recorded by a later
            # release): not corrupt, just unreadable here.  Surfaces
            # render the one-line version verdict instead of a
            # corruption diagnosis.
            raise SchemaTooNew(
                f"journal schema v{version} > supported "
                f"v{SCHEMA_VERSION}{where}",
                found=version,
                supported=SCHEMA_VERSION,
            )
        raise JournalError(
            f"unsupported journal schema version {version!r}{where}"
        )
    kind = record.get("type")
    required = REQUIRED_KEYS.get(kind)
    if required is None:
        raise JournalError(f"unknown record type {kind!r}{where}")
    missing = [key for key in required if key not in record]
    if missing:
        raise JournalError(
            f"{kind} record missing keys {missing}{where}"
        )
    return kind


def parse_journal(path: os.PathLike | str) -> List[Dict[str, Any]]:
    """Read and validate a JSONL journal; raises :class:`JournalError`
    (with the offending line number) on any malformed or truncated line."""
    records, defect = _read_records(path)
    if defect is not None:
        raise defect
    return records


def parse_journal_tolerant(
    path: os.PathLike | str,
) -> tuple[List[Dict[str, Any]], Optional[str]]:
    """Like :func:`parse_journal`, but a torn **final** line is dropped.

    Returns ``(records, warning)`` where ``warning`` describes the
    dropped tail (or is None for an intact journal).  Only the final
    line is forgiven -- it is the expected artifact of a writer killed
    mid-``write`` -- and only its intact prefix is returned; a malformed
    line anywhere else is mid-file corruption and still raises
    :class:`~repro.errors.JournalError`.
    """
    records, defect = _read_records(path)
    if defect is None:
        return records, None
    if defect.torn_tail:
        return records, str(defect)
    raise defect


def _read_records(
    path: os.PathLike | str,
) -> tuple[List[Dict[str, Any]], Optional[JournalError]]:
    """Parse a journal; ``(intact prefix, defect-or-None)``.

    The returned defect carries ``torn_tail=True`` when the only damage
    is the file's final line -- the strict reader re-raises it either
    way, the tolerant reader downgrades exactly that case to a warning.
    """
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    last = len(lines)
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
            validate_record(record, line=number)
        except (json.JSONDecodeError, JournalError) as exc:
            if isinstance(exc, SchemaTooNew):
                # Keep the type (and both version numbers): consumers
                # print the version verdict, not a corruption report.
                exc.torn_tail = False
                return records, exc
            defect = JournalError(
                f"bad journal record on line {number}: {exc}"
                if isinstance(exc, json.JSONDecodeError)
                else str(exc)
            )
            # Only an *unparseable* final line is the artifact of a
            # writer killed mid-write (no proper prefix of a JSON
            # object parses).  A parseable record that fails schema
            # validation is a semantic defect, never forgiven.
            defect.torn_tail = (
                number == last and isinstance(exc, json.JSONDecodeError)
            )
            return records, defect
        records.append(record)
    return records, None


# -- sinks -------------------------------------------------------------------


class NullSink:
    """The default sink: tracing disabled, every emit is a no-op."""

    enabled = False

    def emit(self, record: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Collects records in a list (tests, in-process analysis)."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes one JSON object per line, flushing after every record.

    The flush-per-record discipline is what guarantees the journal has
    no truncated last line even when the run unwinds on an exception:
    every record that was emitted is durably a complete line.
    """

    enabled = True

    def __init__(self, path: os.PathLike | str):
        self.path = str(path)
        self._handle: Optional[IO[str]] = open(
            self.path, "w", encoding="utf-8"
        )

    def emit(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is already closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# -- tracer ------------------------------------------------------------------


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: emits start on enter, end (ok/error) on exit."""

    __slots__ = ("tracer", "name", "fields", "span_id")

    def __init__(self, tracer: "Tracer", name: str, fields: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.fields = fields
        self.span_id: Optional[int] = None

    def __enter__(self) -> "_Span":
        self.span_id = self.tracer._open(self.name, self.fields)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        status = "ok" if exc_type is None else "error"
        error = None if exc is None else f"{exc_type.__name__}: {exc}"
        self.tracer._close(self.span_id, self.name, status, error)
        return False


class Tracer:
    """Emits schema-v1 records to a sink, tracking the open-span stack.

    Tracers are cheap when disabled: ``span`` returns a shared no-op
    context manager and ``event`` returns immediately, so instrumented
    code paths cost one attribute check under the default
    :class:`NullSink`.
    """

    def __init__(
        self,
        sink: Optional[Any] = None,
        run_id: Optional[str] = None,
        clock=time.monotonic,
    ):
        self.sink = sink if sink is not None else NullSink()
        self.enabled = bool(getattr(self.sink, "enabled", True))
        self.run_id = run_id if run_id is not None else new_run_id()
        self.clock = clock
        self._next_id = 0
        self._stack: List[int] = []

    # -- record plumbing ----------------------------------------------------
    def _base(self, kind: str, name: str) -> Dict[str, Any]:
        return {
            "v": SCHEMA_VERSION,
            "t": self.clock(),
            "run": self.run_id,
            "type": kind,
            "name": name,
        }

    def _open(self, name: str, fields: Dict[str, Any]) -> int:
        span_id = self._next_id
        self._next_id += 1
        record = self._base("span_start", name)
        record["id"] = span_id
        record["parent"] = self._stack[-1] if self._stack else None
        record["data"] = jsonable(fields)
        self._stack.append(span_id)
        self.sink.emit(record)
        return span_id

    def _close(
        self,
        span_id: Optional[int],
        name: str,
        status: str,
        error: Optional[str],
    ) -> None:
        if span_id in self._stack:
            # Pop through any spans abandoned by a non-local exit.
            while self._stack and self._stack[-1] != span_id:
                self._stack.pop()
            self._stack.pop()
        record = self._base("span_end", name)
        record["id"] = span_id
        record["status"] = status
        if error is not None:
            record["error"] = error
        self.sink.emit(record)

    # -- public API ---------------------------------------------------------
    def span(self, name: str, **fields: Any):
        """A context manager timing one named operation."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, fields)

    def event(self, name: str, **fields: Any) -> None:
        """A point-in-time record attached to the innermost open span."""
        if not self.enabled:
            return
        record = self._base("event", name)
        record["parent"] = self._stack[-1] if self._stack else None
        record["data"] = jsonable(fields)
        self.sink.emit(record)

    def emit_metrics(self, registry) -> None:
        """Dump a registry snapshot as the journal's ``metrics`` record."""
        if not self.enabled:
            return
        record = self._base("metrics", "metrics")
        record["data"] = jsonable(registry.snapshot())
        self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()
