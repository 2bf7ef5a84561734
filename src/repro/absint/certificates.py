"""Machine-checkable static certificates for abstract-interpretation verdicts.

A :class:`StaticCertificate` packages the fixpoint results (overall and
per unanimous input) together with every refutation verdict they imply.
Like the dynamic Theorem 1 certificates produced by the adversary, it is
deterministic JSON and *re-checkable*: :meth:`StaticCertificate.validate`
re-runs the analysis from the protocol and demands byte-identical JSON,
so a stale or hand-edited certificate is an :class:`AbsintError`, not a
silent divergence.

``crosscheck_dynamic`` runs the static and dynamic artifacts against
each other: a replay-validated adversary certificate can only exhibit
written registers inside the abstract write set (abstract ⊇ concrete),
and can never coexist with a static refutation (a refuted protocol has
no valid adversary certificate).  Either contradiction is an analysis
bug and must be surfaced as such.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import AbsintError

from repro.absint.domains import atom
from repro.absint.fixpoint import AbstractReachability

__all__ = [
    "CERTIFICATE_VERSION",
    "StaticVerdict",
    "StaticCertificate",
    "crosscheck_dynamic",
]

#: Bumped whenever the JSON layout changes; ``validate`` refuses other
#: versions rather than guessing.
CERTIFICATE_VERSION = 1

#: The refutation kinds a verdict may carry, in display order.
VERDICT_KINDS = ("validity", "no-decide", "write-bound")


@dataclass(frozen=True)
class StaticVerdict:
    """One static refutation: the protocol cannot solve consensus.

    ``kind`` is one of :data:`VERDICT_KINDS`; ``input`` names the
    unanimous input the verdict is about for the per-input kinds
    (``validity``, ``no-decide``) and is None for the global
    ``write-bound``.
    """

    kind: str
    message: str
    input: Optional[Hashable] = None

    def to_json_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "input": atom(self.input),
        }


@dataclass(frozen=True)
class StaticCertificate:
    """The full static analysis artifact for one protocol.

    ``overall`` is the fixpoint over all declared inputs; ``per_input``
    holds one (input, fixpoint) pair per unanimous input value, in repr
    order.  ``verdicts`` is empty iff the analysis could not refute the
    protocol (which proves nothing — the adversary still has to run).
    """

    protocol: str
    n: int
    universe: int
    representation: str  # "table" | "program" | "opaque"
    overall: AbstractReachability
    per_input: Tuple[Tuple[Hashable, AbstractReachability], ...]
    verdicts: Tuple[StaticVerdict, ...]

    @property
    def refuted(self) -> bool:
        return bool(self.verdicts)

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Distinct verdict kinds, in display order."""
        present = {v.kind for v in self.verdicts}
        return tuple(k for k in VERDICT_KINDS if k in present)

    def refutation(self) -> Optional[StaticVerdict]:
        return self.verdicts[0] if self.verdicts else None

    def fixpoint(self, inputs) -> Optional[AbstractReachability]:
        """The fixpoint this certificate holds for the input set
        ``inputs`` (``overall`` or a ``per_input`` entry), or None."""
        wanted = set(inputs)
        for reach in (self.overall, *(reach for _, reach in self.per_input)):
            if set(reach.inputs) == wanted:
                return reach
        return None

    def to_json_dict(self) -> Dict:
        return {
            "version": CERTIFICATE_VERSION,
            "protocol": self.protocol,
            "n": self.n,
            "universe": self.universe,
            "representation": self.representation,
            "overall": self.overall.to_json_dict(),
            "per_input": [
                {"input": atom(value), "reach": reach.to_json_dict()}
                for value, reach in self.per_input
            ],
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, no whitespace (diffable)."""
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

    def validate(self, protocol) -> None:
        """Re-run the analysis and demand byte-identical JSON.

        Raises :class:`AbsintError` on any mismatch — the certificate is
        stale (protocol changed) or corrupt (artifact edited).
        """
        from repro.absint.verdicts import static_certificate

        fresh = static_certificate(protocol)
        if fresh.to_json() != self.to_json():
            raise AbsintError(
                f"static certificate for {self.protocol!r} is stale: "
                "re-analysis does not reproduce it byte-for-byte"
            )


def crosscheck_dynamic(static: StaticCertificate, certificate) -> List[str]:
    """Contradictions between a static certificate and a dynamic one.

    ``certificate`` is any adversary-produced Theorem 1 artifact with a
    ``registers`` attribute (the exhibited written registers) and/or a
    ``bound`` attribute.  Returns human-readable problem strings; empty
    means the two artifacts are consistent.
    """
    problems: List[str] = []
    if static.refuted:
        verdict = static.refutation()
        problems.append(
            f"a replay-validated dynamic certificate exists for "
            f"{static.protocol!r}, but abstract interpretation refutes the "
            f"protocol ({verdict.kind}: {verdict.message}) -- one of the "
            "two analyses is wrong"
        )
    overall = static.overall
    registers = getattr(certificate, "registers", None)
    if registers is not None and not overall.widened_writes:
        exhibited = {int(r) % static.universe for r in registers}
        escaped = sorted(exhibited - set(overall.writes))
        if escaped:
            problems.append(
                f"dynamic certificate exhibits writes to registers "
                f"{escaped} outside the abstract write set "
                f"{sorted(overall.writes)} -- the abstract interpreter "
                "under-approximated (analysis bug)"
            )
    bound = getattr(certificate, "bound", None)
    if bound is not None and not overall.widened_writes:
        if int(bound) > len(overall.writes):
            problems.append(
                f"dynamic certificate claims {bound} distinct written "
                f"registers but the abstract write set has only "
                f"{len(overall.writes)} -- the abstract interpreter "
                "under-approximated (analysis bug)"
            )
    return problems
