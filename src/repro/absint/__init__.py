"""Abstract interpretation over protocols: static value-set verdicts.

A fixpoint analysis computes, for each protocol, a sound
over-approximation of every local state a process can occupy and every
value each shared register can hold (abstract ⊇ concrete).  Two
consumers sit on top:

* **static verdicts** — validity refutation (decide-set excludes a
  unanimous input), no-decide-reachable, and a value-aware register
  write bound strictly stronger than the footprint lint's Theorem 1
  contrapositive; each packaged as a re-checkable
  :class:`StaticCertificate` (``repro absint`` / ``repro lint``);
* **soundness oracle** — the differential layer (:mod:`repro.fuzz`)
  asserts every concretely explored configuration is contained in the
  abstract reachable set, on every engine, in every campaign.
"""

from repro.absint.certificates import (
    CERTIFICATE_VERSION,
    StaticCertificate,
    StaticVerdict,
    crosscheck_dynamic,
)
from repro.absint.domains import WIDEN_WIDTH, ValueSet, atom
from repro.absint.fixpoint import (
    AbstractReachability,
    analyze_program_protocol,
    analyze_protocol,
    analyze_table,
    top_reachability,
)
from repro.absint.transfer import (
    ProgramEffects,
    RuleEffect,
    program_effects,
    table_rule_effect,
)
from repro.absint.verdicts import (
    absint_refutation,
    absint_summary,
    static_certificate,
)

__all__ = [
    "CERTIFICATE_VERSION",
    "WIDEN_WIDTH",
    "AbstractReachability",
    "ProgramEffects",
    "RuleEffect",
    "StaticCertificate",
    "StaticVerdict",
    "ValueSet",
    "absint_refutation",
    "absint_summary",
    "analyze_program_protocol",
    "analyze_protocol",
    "analyze_table",
    "atom",
    "crosscheck_dynamic",
    "program_effects",
    "static_certificate",
    "table_rule_effect",
    "top_reachability",
]
