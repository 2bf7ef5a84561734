"""Generator determinism, prefilter, campaign byte-determinism, injection.

The acceptance bar for the corpus engine: ``run_campaign`` with a fixed
seed and budget is a pure function -- identical journal bytes and
identical zoo additions across runs -- and a deliberately sabotaged
engine is caught, minimized and persisted.
"""

import json
import random

import pytest

from repro.fuzz.campaign import (
    CampaignConfig,
    boring_reason,
    run_campaign,
    smoke_config,
)
from repro.fuzz.generator import (
    GeneratorConfig,
    generate_protocol,
)
from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    EngineSpec,
    differential,
    guarded_outcome,
)
from repro.fuzz.zoo import Zoo, specimen_digest
from repro.model.table import TableProtocol

CONFIG = GeneratorConfig(n=(2, 3), states=(2, 6), registers=(1, 3))


class TestGenerator:
    def test_same_seed_same_specimens(self):
        a = [
            specimen_digest(generate_protocol(random.Random(9), CONFIG))
            for _ in range(1)
        ]
        b = [
            specimen_digest(generate_protocol(random.Random(9), CONFIG))
            for _ in range(1)
        ]
        assert a == b

    def test_stream_yields_distinct_specimens(self):
        rng = random.Random(9)
        digests = {
            specimen_digest(generate_protocol(rng, CONFIG))
            for _ in range(15)
        }
        assert len(digests) > 5

    def test_shape_knobs_are_respected(self):
        tight = GeneratorConfig(
            n=(2, 2), states=(3, 3), registers=(2, 2)
        )
        rng = random.Random(3)
        for _ in range(10):
            p = generate_protocol(rng, tight)
            assert p.n == 2
            assert p.registers == 2
            assert set(p.rules) | set(p.decisions) <= {0, 1, 2}

    def test_op_weights_zero_means_never_drawn(self):
        only_rw = GeneratorConfig(
            op_weights=(("read", 1), ("write", 1), ("swap", 0), ("tas", 0)),
        )
        rng = random.Random(4)
        for _ in range(20):
            p = generate_protocol(rng, only_rw)
            assert all(
                rule[0] in ("read", "write") for rule in p.rules.values()
            )
            assert set(p.register_kinds.values()) == {"register"}


class TestBoringFilter:
    def test_instant_decide_is_boring(self):
        p = TableProtocol(
            n=2, registers=1, initial={0: 0, 1: 1},
            rules={}, decisions={0: 0, 1: 1},
        )
        assert boring_reason(p) == "instant-decide"

    def test_no_steps_is_boring(self):
        p = TableProtocol(
            n=2, registers=1, initial={0: 0, 1: 1},
            rules={5: ("read", 0)},  # unreachable from any start state
            decisions={1: 1},
        )
        assert boring_reason(p) == "no-steps"

    def test_live_automaton_is_interesting(self):
        p = TableProtocol(
            n=2, registers=1, initial={0: 0, 1: 1},
            rules={0: ("write", 0, 0), 1: ("read", 0)},
            decisions={2: 0},
            transitions={(1, 0): 2},
        )
        assert boring_reason(p) is None


class TestCampaignDeterminism:
    def test_same_seed_byte_identical_journal_and_zoo(self, tmp_path):
        r1 = run_campaign(smoke_config(seed=21, zoo_root=tmp_path / "a"))
        r2 = run_campaign(smoke_config(seed=21, zoo_root=tmp_path / "b"))
        assert r1.journal_bytes() == r2.journal_bytes()
        assert r1.zoo_added == r2.zoo_added
        files_a = sorted(p.name for p in (tmp_path / "a").glob("*.json")) \
            if (tmp_path / "a").is_dir() else []
        files_b = sorted(p.name for p in (tmp_path / "b").glob("*.json")) \
            if (tmp_path / "b").is_dir() else []
        assert files_a == files_b

    def test_budget_stop_is_deterministic_and_recorded(self, tmp_path):
        cfg = smoke_config(
            seed=21, zoo_root=tmp_path / "z", budget_steps=10, count=30
        )
        r1 = run_campaign(cfg)
        r2 = run_campaign(
            smoke_config(
                seed=21, zoo_root=tmp_path / "z2",
                budget_steps=10, count=30,
            )
        )
        assert r1.stopped == "budget"
        assert r1.journal_bytes() == r2.journal_bytes()
        summary = json.loads(r1.journal_lines[-1])
        assert summary["stopped"] == "budget"
        assert summary["spent"] >= 10

    def test_zero_deadline_stops_before_any_specimen(self, tmp_path):
        result = run_campaign(
            smoke_config(seed=21, zoo_root=tmp_path / "z", deadline=0.0)
        )
        assert result.stopped == "deadline"
        assert result.stats["explored"] == 0

    def test_journal_structure(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        result = run_campaign(
            smoke_config(seed=21, zoo_root=tmp_path / "z"),
            journal_path=journal,
        )
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        assert lines[0]["kind"] == "fuzz-journal"
        assert lines[0]["seed"] == 21
        assert lines[-1]["kind"] == "summary"
        specimens = [rec for rec in lines if rec["kind"] == "specimen"]
        assert len(specimens) == result.stats["generated"]
        for rec in specimens:
            assert "digest" in rec and "origin" in rec

    def test_no_timestamps_anywhere_in_journal(self, tmp_path):
        result = run_campaign(smoke_config(seed=21, zoo_root=tmp_path / "z"))
        text = result.journal_bytes().decode("utf-8")
        for needle in ("time", "elapsed", "date", "2026-"):
            assert needle not in text


class TestInjectedDivergence:
    @pytest.fixture(scope="class")
    def inject_result(self, tmp_path_factory):
        zoo_root = tmp_path_factory.mktemp("zoo-inject")
        result = run_campaign(
            smoke_config(
                seed=3, count=8, zoo_root=zoo_root, inject="forget-value"
            )
        )
        return result, zoo_root

    def test_sabotaged_engine_is_caught(self, inject_result):
        result, _ = inject_result
        assert result.stats["divergent"] > 0
        assert all(
            f["engine"] == "sabotaged" for f in result.divergent
        )

    def test_divergent_specimens_are_minimized_and_persisted(
        self, inject_result
    ):
        result, zoo_root = inject_result
        assert result.zoo_added
        zoo = Zoo(zoo_root)
        assert len(zoo) == len(result.zoo_added)
        for specimen in zoo.specimens():
            assert specimen.tag.startswith("divergence:sabotaged/")
            assert specimen.provenance["seed"] == 3
            assert specimen.provenance["generator_version"] >= 1
            # Minimization happened: the persisted automaton is no
            # larger than its original (strictly smaller in the common
            # case; equality only if the original was already minimal).
            assert "original_digest" in specimen.provenance

    def test_clean_matrix_smoke_has_no_divergence(self, tmp_path):
        result = run_campaign(
            smoke_config(seed=3, count=8, zoo_root=tmp_path / "z")
        )
        assert result.ok
        assert result.stats["divergent"] == 0


class TestMetrics:
    def test_fuzz_counters_are_emitted(self, tmp_path):
        from repro.obs import MetricsRegistry, Tracer, observe

        registry = MetricsRegistry()
        with observe(tracer=Tracer(), metrics=registry):
            run_campaign(smoke_config(seed=21, zoo_root=tmp_path / "z"))
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", snapshot)
        flat = json.dumps(counters)
        for name in ("fuzz.generated", "fuzz.explored"):
            assert name in flat


def swap_race():
    return TableProtocol(
        n=2, registers=1, initial={0: 0, 1: 1},
        rules={0: ("swap", 0, 0), 1: ("swap", 0, 1)},
        transitions={(0, None): 2, (0, 1): 3, (1, None): 3, (1, 0): 2},
        decisions={2: 0, 3: 1},
        name="swap-race",
    )


class TestGuardedLeg:
    def test_guarded_outcomes_agree_across_engines(self):
        report = differential(
            swap_race(),
            DEFAULT_ENGINES,
            max_configs=4_000,
            max_depth=40,
            guarded=True,
        )
        assert report.ok, [d.describe() for d in report.divergences]
        assert "guarded" in report.baseline
        assert report.baseline["guarded"]["exit_code"] in (0, 2, 3)

    def test_guarded_outcome_reports_budget_spend(self):
        outcome = guarded_outcome(
            swap_race(), DEFAULT_ENGINES[0], budget_steps=100_000
        )
        assert outcome["status"] in ("certificate", "violation", "budget")
        assert outcome["spent"] > 0
        assert outcome["payload"] is not None

    def test_guarded_budget_exhaustion_maps_to_exit_three(self):
        outcome = guarded_outcome(
            swap_race(), DEFAULT_ENGINES[0], budget_steps=1
        )
        assert outcome["status"] == "budget"
        assert outcome["exit_code"] == 3

    def test_guarded_violation_maps_to_exit_two(self, monkeypatch):
        # The adversary reports "violation" only when its construction
        # trips a ViolationError, which no small table specimen
        # reliably provokes; stub the harness to pin the mapping.
        import repro.faults
        from repro.errors import ViolationError
        from repro.faults.harness import AdversaryOutcome

        exc = ViolationError("agreement violated", witness=(0, 1, 0))
        monkeypatch.setattr(
            repro.faults,
            "run_adversary_guarded",
            lambda *a, **k: AdversaryOutcome(
                status="violation", violation=exc
            ),
        )
        outcome = guarded_outcome(swap_race(), DEFAULT_ENGINES[0])
        assert outcome["status"] == "violation"
        assert outcome["exit_code"] == 2
        assert outcome["payload"]["witness"] == [0, 1, 0]


class TestSabotageModes:
    def test_drop_witness_step_is_detected(self):
        report = differential(
            swap_race(),
            (
                DEFAULT_ENGINES[0],
                EngineSpec("sab", sabotage="drop-witness-step"),
            ),
            max_configs=2_000,
        )
        assert not report.ok
        assert any(d.kind == "certificate-bytes" for d in report.divergences)

    def test_forget_value_is_detected(self):
        report = differential(
            swap_race(),
            (DEFAULT_ENGINES[0], EngineSpec("sab", sabotage="forget-value")),
            max_configs=2_000,
        )
        assert not report.ok

    def test_unknown_sabotage_mode_raises(self):
        with pytest.raises(ValueError):
            differential(
                swap_race(),
                (DEFAULT_ENGINES[0], EngineSpec("sab", sabotage="nope")),
                max_configs=2_000,
            )


def test_engine_matrix_includes_saboteur_only_when_injecting():
    assert CampaignConfig().engine_matrix() == DEFAULT_ENGINES
    matrix = CampaignConfig(inject="forget-value").engine_matrix()
    assert matrix[:-1] == DEFAULT_ENGINES
    assert matrix[-1].sabotage == "forget-value"
