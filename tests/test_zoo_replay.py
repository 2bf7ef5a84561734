"""The zoo gate: every checked-in specimen, every engine, byte-identical.

This file is the regression zoo's enforcement arm.  For every specimen
under ``corpus/zoo/`` it asserts:

* the file's bytes are exactly the canonical re-encoding of its own
  recipe (no drifted hand edits), and its digest matches its content;
* the sequential, POR, incremental-cold, incremental-warm and
  compiled-kernel engines produce byte-identical exploration
  fingerprints -- decided values, witness schedules, visited counts,
  completeness flags -- over the fixed input sweep;
* every witness schedule any engine hands out replays to its decision
  on a fresh sequential system.

A divergence here means an engine soundness bug (or a corrupted
specimen), never a flaky test: everything involved is deterministic.
"""

from pathlib import Path

import pytest

from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    differential,
    engine_fingerprint,
    fingerprint_bytes,
)
from repro.fuzz.zoo import Zoo, specimen_digest

ZOO_ROOT = Path(__file__).resolve().parent.parent / "corpus" / "zoo"

zoo = Zoo(ZOO_ROOT)
SPECIMENS = zoo.specimens()
IDS = [f"{s.digest[:12]}-{s.protocol_dict.get('name', '?')}" for s in SPECIMENS]


def test_zoo_is_not_empty():
    # The hand-picked seed set (scripts/seed_zoo.py) is checked in.
    assert len(SPECIMENS) >= 10


def test_default_zoo_root_is_the_checked_in_corpus():
    from repro.fuzz.zoo import default_zoo_root

    assert default_zoo_root() == Path("corpus") / "zoo"


def test_iter_protocols_builds_every_specimen():
    from repro.fuzz.zoo import iter_protocols

    seen = 0
    for specimen, protocol in iter_protocols(zoo):
        assert specimen_digest(protocol) == specimen.digest
        seen += 1
    assert seen == len(SPECIMENS)


@pytest.mark.parametrize("specimen", SPECIMENS, ids=IDS)
def test_specimen_file_is_canonical(specimen):
    assert specimen.path.read_bytes() == specimen.to_bytes()


@pytest.mark.parametrize("specimen", SPECIMENS, ids=IDS)
def test_specimen_digest_matches_content(specimen):
    assert specimen_digest(specimen.build()) == specimen.digest
    assert specimen.path.name.startswith(specimen.digest[:16])


@pytest.mark.parametrize("specimen", SPECIMENS, ids=IDS)
def test_all_engines_agree_on_specimen(specimen):
    report = differential(
        specimen.build(),
        DEFAULT_ENGINES,
        max_configs=20_000,
    )
    assert report.ok, "\n".join(d.describe() for d in report.divergences)


@pytest.mark.parametrize("specimen", SPECIMENS[:3], ids=IDS[:3])
def test_fingerprints_are_byte_identical_not_just_equal(specimen):
    protocol = specimen.build()
    baseline = fingerprint_bytes(
        engine_fingerprint(protocol, DEFAULT_ENGINES[0])
    )
    for spec in DEFAULT_ENGINES[1:]:
        got = fingerprint_bytes(engine_fingerprint(protocol, spec))
        assert got == baseline, f"{spec.name} fingerprint bytes differ"
