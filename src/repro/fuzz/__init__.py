"""Protocol fuzzing: corpus generation, differential oracle, zoo.

The two engines (the sequential interpreter and the compiled kernel)
must agree on every certificate, witness, verdict and exit code; the
per-PR hypothesis differentials spot-check that claim on a few dozen
automata.  This package industrializes the check into a corpus engine:

* :mod:`repro.fuzz.generator` -- a seeded :class:`TableProtocol`
  generator with tunable shape knobs (states, registers, op mix
  including swap/test&set, decide density) plus structure-aware
  mutators (splice states, retarget transitions, swap op kinds,
  grow/shrink register sets);
* :mod:`repro.fuzz.oracle` -- the cross-engine differential oracle:
  every survivor runs through the sequential, compiled and
  budget-guarded engines, and any divergence in certificate bytes,
  witness replays, verdicts or exit codes is a finding;
* :mod:`repro.fuzz.zoo` -- content-addressed persistence
  (``specimen_digest``, a sha-256 of the constructor recipe) of
  curated specimens with provenance, replayed by CI on every run;
* :mod:`repro.fuzz.campaign` -- the pipeline gluing them together
  under a deterministic seed and a step budget, with a byte-stable
  JSONL journal.

``repro fuzz run|zoo list|zoo replay`` is the CLI surface.
"""

from repro.fuzz.generator import (
    GENERATOR_VERSION,
    GeneratorConfig,
    generate_protocol,
    mutate_protocol,
    MUTATORS,
)
from repro.fuzz.oracle import (
    ABSINT_UNSOUND,
    DEFAULT_ENGINES,
    Divergence,
    DifferentialReport,
    EngineSpec,
    abstract_soundness_check,
    differential,
    engine_fingerprint,
    fingerprint_bytes,
)
from repro.fuzz.zoo import (
    Specimen,
    Zoo,
    ZooError,
    protocol_from_dict,
    protocol_to_dict,
    specimen_digest,
)
from repro.fuzz.campaign import (
    CampaignConfig,
    CampaignResult,
    boring_reason,
    run_campaign,
)

__all__ = [
    "ABSINT_UNSOUND",
    "abstract_soundness_check",
    "GENERATOR_VERSION",
    "GeneratorConfig",
    "generate_protocol",
    "mutate_protocol",
    "MUTATORS",
    "DEFAULT_ENGINES",
    "Divergence",
    "DifferentialReport",
    "EngineSpec",
    "differential",
    "engine_fingerprint",
    "fingerprint_bytes",
    "Specimen",
    "Zoo",
    "ZooError",
    "protocol_from_dict",
    "protocol_to_dict",
    "specimen_digest",
    "CampaignConfig",
    "CampaignResult",
    "boring_reason",
    "run_campaign",
]
