"""The soundness oracle: abstract reachability ⊇ concrete, everywhere.

Three layers of evidence that the interpreter never under-approximates:

* a hypothesis property drawing random table automata from the fuzz
  generator and walking every concrete configuration of every engine's
  shared exploration (the engines are byte-identical, so one sequential
  walk per input vector stands for the whole matrix -- the zoo gate in
  ``test_zoo_replay.py`` runs the full matrix with the soundness leg);
* the checked-in zoo, specimen by specimen;
* sabotage: an injected unsound analysis (the root state deleted from
  the abstract set) must be caught by the oracle, in the direct check,
  the differential matrix, and a whole campaign.

Plus the kernel's side: a table protocol lowers on demand like every
other protocol, into 32-bit fields with open interning, so no kernel
result rests on the analysis.
"""

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.absint import static_certificate
from repro.fuzz import (
    ABSINT_UNSOUND,
    DEFAULT_ENGINES,
    EngineSpec,
    abstract_soundness_check,
    differential,
)
from repro.fuzz.generator import GeneratorConfig, generate_protocol
from repro.fuzz.zoo import Zoo
from repro.model.table import TableProtocol
from repro.obs import MetricsRegistry, observe

ZOO_ROOT = Path(__file__).resolve().parent.parent / "corpus" / "zoo"

SPECIMENS = Zoo(ZOO_ROOT).specimens()
IDS = [s.digest[:12] for s in SPECIMENS]

SMALL = GeneratorConfig(n=(2, 3), states=(3, 6), registers=(1, 2))


@st.composite
def table_protocols(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return generate_protocol(random.Random(seed), SMALL)


class TestSoundnessProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(protocol=table_protocols())
    def test_abstract_reach_contains_concrete_reach(self, protocol):
        assert abstract_soundness_check(protocol, max_configs=3_000) is None

    def test_non_table_protocols_are_skipped(self):
        from repro.protocols.consensus import CommitAdoptRounds

        assert abstract_soundness_check(CommitAdoptRounds(2)) is None


class TestZooSoundness:
    @pytest.mark.parametrize("specimen", SPECIMENS, ids=IDS)
    def test_every_specimen_is_soundly_abstracted(self, specimen):
        assert abstract_soundness_check(specimen.build()) is None


class TestCertificateFixpoints:
    """A campaign hands the specimen's static certificate to the
    soundness leg, which analyzes only the input sets it lacks."""

    def analyses(self, protocol, **kwargs):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            found = abstract_soundness_check(protocol, **kwargs)
        return found, registry.snapshot()["counters"].get("absint.analyses", 0)

    @pytest.mark.parametrize("sabotage", [False, True])
    def test_certificate_fixpoints_serve_every_input_vector(self, sabotage):
        protocol = SPECIMENS[0].build()
        certificate = static_certificate(protocol)
        assert self.analyses(
            protocol, sabotage=sabotage, certificate=certificate
        ) == (abstract_soundness_check(protocol, sabotage=sabotage), 0)

    def test_input_sets_the_certificate_lacks_are_analyzed(self):
        # Three declared inputs: the certificate's overall fixpoint is
        # for {0, 1, 2}, so the mixed vector's {0, 1} is analyzed here.
        protocol = TableProtocol(
            n=2,
            registers=1,
            initial={0: 0, 1: 0, 2: 1},
            rules={0: ("write", 0, 1), 1: ("read", 0)},
            transitions={(0, None): 2},
            decisions={2: 0},
        )
        certificate = static_certificate(protocol)
        assert self.analyses(protocol, certificate=certificate) == (None, 1)
        assert self.analyses(protocol) == (None, 3)


class TestSabotage:
    def test_direct_sabotage_is_caught(self):
        protocol = SPECIMENS[0].build()
        divergence = abstract_soundness_check(protocol, sabotage=True)
        assert divergence is not None
        assert divergence.kind == "soundness"
        assert "outside the abstract state set" in divergence.detail

    def test_differential_matrix_catches_injected_unsoundness(self):
        protocol = SPECIMENS[0].build()
        engines = DEFAULT_ENGINES + (
            EngineSpec("sabotaged", sabotage=ABSINT_UNSOUND),
        )
        report = differential(protocol, engines, max_configs=5_000)
        assert not report.ok
        [finding] = [d for d in report.divergences if d.kind == "soundness"]
        assert ABSINT_UNSOUND in finding.detail

    def test_campaign_with_inject_finds_the_divergence(self, tmp_path):
        from repro.fuzz.campaign import run_campaign, smoke_config

        config = smoke_config(
            count=2,
            inject=ABSINT_UNSOUND,
            zoo_root=tmp_path / "zoo",
        )
        result = run_campaign(config)
        assert result.divergent
        assert any(
            f["divergence"] == "soundness" and ABSINT_UNSOUND in f["detail"]
            for f in result.divergent
        )


class TestCampaignTags:
    def test_specimen_records_carry_absint_provenance(self, tmp_path):
        from repro.fuzz.campaign import (
            JOURNAL_FORMAT,
            run_campaign,
            smoke_config,
        )

        assert JOURNAL_FORMAT == 2
        journal = tmp_path / "journal.jsonl"
        config = smoke_config(count=4, zoo_root=tmp_path / "zoo")
        result = run_campaign(config, journal_path=journal)
        assert result.stopped == "complete"
        import json

        records = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line
        ]
        specimens = [r for r in records if r.get("kind") == "specimen"]
        assert specimens
        for record in specimens:
            tag = record["absint"]
            assert set(tag) == {"refuted", "kinds", "writes"}
            assert isinstance(tag["refuted"], bool)

    def test_boring_reason_filters_steplessness_not_refutation(self):
        from repro.absint import static_certificate
        from repro.fuzz.campaign import boring_reason

        # Halted outright: every initial state is rule-less.
        stuck = TableProtocol(
            name="stuck", n=2, registers=1,
            initial={0: 0, 1: 1},
            rules={5: ("write", 0, 1)},
            transitions={(5, None): 5},
            defaults={},
            decisions={},
        )
        assert boring_reason(stuck) == "no-steps"

        # Statically refuted (constant-decides) yet takes real shared
        # steps: tagged, not dropped -- its decision plumbing is exactly
        # what the engines must agree on.
        biased = TableProtocol(
            name="biased", n=2, registers=1,
            initial={0: 0, 1: 1},
            rules={0: ("write", 0, 0), 1: ("write", 0, 1)},
            transitions={(0, None): 2, (1, None): 2},
            defaults={},
            decisions={2: 0},
        )
        certificate = static_certificate(biased)
        assert certificate.refuted
        assert boring_reason(biased, reach=certificate.overall) is None


class TestCodecNarrowing:
    """The kernel does not consume the abstract universes: a table
    protocol's codec packs the 32-bit layout every protocol gets and
    interns on demand, in first-seen order."""

    def compiled(self, protocol):
        from repro.kernel.compiler import CompiledProgram
        from repro.model.system import System

        return CompiledProgram(System(protocol))

    def test_narrowed_kernel_agrees_with_every_engine(self):
        protocol = generate_protocol(random.Random(7), SMALL)
        report = differential(protocol, DEFAULT_ENGINES, max_configs=5_000)
        assert report.ok, "\n".join(d.describe() for d in report.divergences)

    def test_wide_universe_keeps_wide_fields(self):
        # No codec has a closed universe: a value no analysis predicted
        # interns like any other, for a DSL protocol and a generated
        # table protocol alike.
        from repro.kernel.codec import FIELD_BITS
        from repro.protocols.consensus import CommitAdoptRounds

        for protocol in (
            CommitAdoptRounds(2),
            generate_protocol(random.Random(7), SMALL),
        ):
            codec = self.compiled(protocol).codec
            assert codec.width_bytes * 8 == codec.field_count * FIELD_BITS
            codec.value_id("never-abstractly-reachable")  # no error

    def test_table_protocol_interns_only_what_a_search_reaches(self):
        from repro.analysis.explorer import Explorer
        from repro.kernel import KernelExplorer
        from repro.model.system import InterpretedSystem, System

        protocol = generate_protocol(random.Random(7), SMALL)
        system = System(protocol)
        kernel = KernelExplorer(system)
        codec = kernel.program.codec
        assert codec.states == [] and codec.values == []

        pids = frozenset(range(protocol.n))
        root = system.initial_configuration(
            [pid % 2 for pid in range(protocol.n)]
        )
        result = kernel.explore(
            root, pids, max_configs=20_000, max_depth=None, strict=True
        )
        assert result.complete
        reached = list(
            Explorer(InterpretedSystem(protocol), max_configs=20_000)
            .iter_reachable(root, pids)
        )
        assert len(reached) == result.visited
        assert set(codec.states) == {
            state for config, _ in reached for state in config.states
        }
        assert set(codec.values) == {
            value for config, _ in reached for value in config.memory
        }
        kernel.close()
