"""The paper's contribution, made executable.

Zhu's proof that n-process consensus needs n-1 registers is a recursive
construction over schedules.  This package implements each ingredient as
a procedure that *builds the execution the proof shows to exist*, against
any concrete protocol automaton:

* :mod:`repro.core.valency` -- Definition 1's refined valency ("set of
  processes P can decide v from C") as an exact oracle over the P-only
  reachable graph, plus Propositions 1 and 2;
* :mod:`repro.core.covering` -- Definition 2: covering processes, block
  writes, well-spread covering sets;
* :mod:`repro.core.lemmas` -- Lemmas 1, 2 and 3 as constructive
  procedures returning the executions/processes they assert to exist;
* :mod:`repro.core.construction` -- Lemma 4's recursion (nice
  configurations, the pigeonhole loop, hidden z-insertion);
* :mod:`repro.core.theorem` -- Theorem 1: drives the above to a
  configuration witnessing n-1 distinct registers, for n >= 2;
* :mod:`repro.core.certificate` -- the replayable, self-validating
  record of that witness.

Running these against a protocol either produces a certificate (the
protocol indeed uses >= n-1 registers, and here is the adversarial
execution pinning them) or surfaces a consensus violation -- which is
exactly the dichotomy the theorem expresses.
"""

from repro.core.valency import (
    BIVALENT,
    ValencyOracle,
    Valence,
    initial_bivalent_configuration,
)
from repro.core.covering import (
    block_write_schedule,
    covered_registers,
    covering_map,
    is_covering_set,
    is_well_spread,
)
from repro.core.lemmas import (
    Lemma1Result,
    Lemma3Result,
    lemma1,
    lemma2_check,
    lemma3,
    truncate_before_uncovered_write,
)
from repro.core.construction import Lemma4Result, lemma4
from repro.core.theorem import space_lower_bound
from repro.core.certificate import SpaceBoundCertificate

__all__ = [
    "BIVALENT",
    "Lemma1Result",
    "Lemma3Result",
    "Lemma4Result",
    "SpaceBoundCertificate",
    "Valence",
    "ValencyOracle",
    "block_write_schedule",
    "covered_registers",
    "covering_map",
    "initial_bivalent_configuration",
    "is_covering_set",
    "is_well_spread",
    "lemma1",
    "lemma2_check",
    "lemma3",
    "lemma4",
    "space_lower_bound",
    "truncate_before_uncovered_write",
]
