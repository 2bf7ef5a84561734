"""Resumable constructions: journal oracle answers, replay them later.

The Theorem 1 adversary is deterministic: given a protocol and fixed
oracle budgets it issues the same sequence of valency queries and builds
the same certificate every time.  That makes an interrupted run
checkpointable without serializing any configuration: record each
primitive query's *answer* (a bool, plus the witness schedule for
positive answers) in issue order, and a resumed run -- re-executing the
same deterministic construction -- consumes the log entry-for-entry,
skipping the exploration work, until the log runs dry and live
computation takes over where the budget died.

Every oracle question funnels through ``can_decide`` (``witness``,
``is_bivalent``, ``decidable`` etc. are built on it), so journaling that
one method captures the whole construction.  Replayed positive answers
repopulate the oracle's witness cache, and ``witness()`` still validates
every schedule by actual replay -- a corrupted or mismatched journal is
detected and recomputed rather than trusted.

For protocols with exact canonical keys (the default) the resumed run
provably completes to the *same* certificate as an uninterrupted run:
answers are exact, witness search is deterministic BFS, and the journal
prefix equals the uninterrupted run's own prefix.  The test suite proves
the equality end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional

from repro.errors import ReproError
from repro.core.serialize import FORMAT_VERSION, register_codec
from repro.core.valency import ValencyOracle
from repro.model.configuration import Configuration
from repro.model.system import System


class ResumeError(ReproError):
    """A journal cannot drive the construction it claims to checkpoint."""


class QueryJournal:
    """An append-only log of oracle answers with a replay cursor."""

    def __init__(self, entries: Optional[List[Dict[str, Any]]] = None):
        self.entries: List[Dict[str, Any]] = list(entries or [])
        self.cursor = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def replaying(self) -> bool:
        return self.cursor < len(self.entries)

    def replay(self) -> Optional[Dict[str, Any]]:
        """The next recorded entry, or None once the log is exhausted."""
        if self.cursor >= len(self.entries):
            return None
        entry = self.entries[self.cursor]
        self.cursor += 1
        return entry

    def record(self, entry: Dict[str, Any]) -> None:
        if self.replaying:
            raise ResumeError(
                "journal recorded into while replaying; the construction "
                "diverged from the checkpointed run"
            )
        self.entries.append(entry)
        self.cursor = len(self.entries)

    def close(self) -> None:
        """Release what the journal holds (nothing, in memory)."""


class JournaledOracle(ValencyOracle):
    """A valency oracle that records (or replays) every primitive answer.

    With a fresh journal this is a plain oracle plus a log; with a
    journal carrying entries from an interrupted run, the logged answers
    are served without exploration until the log is exhausted.  The
    budget is only charged for *computed* queries, so a resumed run gets
    past the point where its predecessor died.
    """

    def __init__(self, system: System, journal: QueryJournal, **kwargs):
        super().__init__(system, **kwargs)
        self.journal = journal

    def charge(self, cost: int = 1) -> None:
        # Re-walking the journaled prefix is free: charging it would let
        # a fixed per-run budget be consumed entirely by replay, so a
        # chain of equally-budgeted resumes would stall forever at the
        # same query instead of converging.
        if not self.journal.replaying:
            super().charge(cost)

    def can_decide(
        self, config: Configuration, pids: Iterable[int], value: Hashable
    ) -> bool:
        # Closed means closed, replayed answers included.
        self._check_open()
        pid_set = frozenset(pids)
        entry = self.journal.replay()
        if entry is not None:
            answer = bool(entry["answer"])
            witness = entry.get("witness")
            if answer and witness is not None:
                key = self._key(config, pid_set)
                self._witnesses.setdefault(key, {}).setdefault(
                    value, tuple(witness)
                )
            return answer
        answer = super().can_decide(config, pid_set, value)
        witness = None
        if answer:
            witness = list(self._witnesses[self._key(config, pid_set)][value])
        self.journal.record({"answer": answer, "witness": witness})
        return answer


@dataclass
class PartialProgress:
    """A serialized checkpoint of an interrupted adversary construction.

    Carries the protocol spec, the oracle parameters (a resume must use
    the same ones -- bounded-mode answers depend on them), the query
    journal, and accounting for the report.  Round-trips through
    :mod:`repro.core.serialize` as kind ``"partial-progress"``.
    """

    protocol: str
    n: int
    queries: List[Dict[str, Any]] = field(default_factory=list)
    spent_steps: int = 0
    elapsed: float = 0.0
    max_configs: int = 200_000
    max_depth: Optional[int] = None
    strict: bool = False
    note: str = ""

    def journal(self) -> QueryJournal:
        return QueryJournal(self.queries)

    def summary(self) -> str:
        return (
            f"partial progress on {self.protocol}: {len(self.queries)} "
            f"oracle answers journaled, {self.spent_steps} steps spent "
            f"({self.elapsed:.1f}s); resume with the same oracle budgets "
            f"(max_configs={self.max_configs}, max_depth={self.max_depth})"
        )


def _partial_to_dict(progress: PartialProgress) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "kind": "partial-progress",
        "protocol": progress.protocol,
        "n": progress.n,
        "queries": [
            {
                "answer": bool(entry["answer"]),
                "witness": (
                    None
                    if entry.get("witness") is None
                    else [int(pid) for pid in entry["witness"]]
                ),
            }
            for entry in progress.queries
        ],
        "spent_steps": progress.spent_steps,
        "elapsed": progress.elapsed,
        "max_configs": progress.max_configs,
        "max_depth": progress.max_depth,
        "strict": progress.strict,
        "note": progress.note,
    }


def _partial_from_dict(payload: Dict[str, Any]) -> PartialProgress:
    from repro.core.serialize import SerializationError

    try:
        return PartialProgress(
            protocol=str(payload["protocol"]),
            n=int(payload["n"]),
            queries=[
                {
                    "answer": bool(entry["answer"]),
                    "witness": (
                        None
                        if entry.get("witness") is None
                        else [int(pid) for pid in entry["witness"]]
                    ),
                }
                for entry in payload["queries"]
            ],
            spent_steps=int(payload.get("spent_steps", 0)),
            elapsed=float(payload.get("elapsed", 0.0)),
            max_configs=int(payload.get("max_configs", 200_000)),
            max_depth=(
                None
                if payload.get("max_depth") is None
                else int(payload["max_depth"])
            ),
            strict=bool(payload.get("strict", False)),
            note=str(payload.get("note", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed partial-progress payload: {exc}"
        ) from exc


register_codec(
    PartialProgress, "partial-progress", _partial_to_dict, _partial_from_dict
)
