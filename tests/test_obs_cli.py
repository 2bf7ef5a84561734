"""CLI observability surface: --trace-out/--metrics-out on the run
commands, and the stats/trace renderers against real journals.

The load-bearing property: journals are complete, parseable JSONL for
*every* exit code -- 0 (certificate), 2 (violation) and 3 (budget) --
because the sink flushes per record and ``main`` finalises the journal
before mapping exceptions to exit codes.
"""

import json

from repro.cli import main
from repro.core.serialize import certificate_from_json
from repro.faults import run_adversary_guarded
from repro.model.system import System
from repro.obs import parse_journal
from repro.protocols.consensus import CommitAdoptRounds


def outcome_statuses(records):
    return [
        record["data"]["status"]
        for record in records
        if record["type"] == "event"
        and record["name"] == "adversary.outcome"
    ]


def test_adversary_success_journal_and_metrics(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.json"
    rc = main([
        "adversary", "rounds:3",
        "--trace-out", str(journal),
        "--metrics-out", str(metrics),
    ])
    assert rc == 0
    records = parse_journal(journal)
    assert records[-1]["type"] == "metrics"
    assert outcome_statuses(records) == ["certificate"]

    snapshot = json.loads(metrics.read_text("utf-8"))
    assert snapshot["counters"]["oracle.queries"] > 0
    assert snapshot["gauges"]["construction.covered_registers"] == 2
    # The journal's metrics record and the metrics file agree.
    assert records[-1]["data"]["counters"] == snapshot["counters"]


def test_adversary_violation_exit_2_flushed_journal(tmp_path, capsys):
    journal = tmp_path / "violation.jsonl"
    rc = main([
        "adversary", "split-brain:3", "--trace-out", str(journal),
    ])
    assert rc == 2
    records = parse_journal(journal)  # complete despite the violation
    assert records[-1]["type"] == "metrics"
    assert outcome_statuses(records) == ["violation"]


def test_adversary_budget_exit_3_flushed_journal(tmp_path, capsys):
    journal = tmp_path / "budget.jsonl"
    rc = main([
        "adversary", "rounds:3", "--budget", "5",
        "--trace-out", str(journal),
    ])
    assert rc == 3
    records = parse_journal(journal)  # complete despite the exhaustion
    assert records[-1]["type"] == "metrics"
    assert outcome_statuses(records) == ["budget"]
    events = [r["name"] for r in records if r["type"] == "event"]
    assert "budget.exhausted" in events


def test_check_supports_trace_out(tmp_path, capsys):
    journal = tmp_path / "check.jsonl"
    rc = main(["check", "tas:2", "--trace-out", str(journal)])
    assert rc == 0
    records = parse_journal(journal)
    assert records[-1]["type"] == "metrics"


def test_stats_matches_certificate(tmp_path, capsys):
    """Acceptance: a traced Theorem 1 run's stats agree with its
    certificate."""
    journal = tmp_path / "run.jsonl"
    cert_path = tmp_path / "cert.json"
    rc = main([
        "adversary", "rounds:3",
        "--trace-out", str(journal),
        "--out", str(cert_path),
    ])
    assert rc == 0
    capsys.readouterr()

    certificate = certificate_from_json(cert_path.read_text("utf-8"))
    outcome = run_adversary_guarded(System(CommitAdoptRounds(3)))
    assert outcome.certificate.registers == certificate.registers

    assert main(["stats", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "covered registers" in out
    # The derived row equals the certificate's register count.
    line = next(
        l for l in out.splitlines() if l.startswith("covered registers")
    )
    assert line.split()[-1] == str(len(certificate.registers))
    assert "oracle memo hit rate" in out
    assert "frontier peak" in out


def test_stats_without_metrics_record(tmp_path, capsys):
    journal = tmp_path / "empty.jsonl"
    journal.write_text("", "utf-8")
    assert main(["stats", str(journal)]) == 1
    assert "no metrics record" in capsys.readouterr().out


def test_stats_with_empty_metrics_prints_na_rates(tmp_path, capsys):
    """Regression: a journal whose run performed zero valency queries
    (all rate denominators zero) must render "n/a" rows, not divide."""
    import json

    journal = tmp_path / "idle.jsonl"
    record = {
        "v": 1,
        "t": 0.0,
        "run": "idle",
        "type": "metrics",
        "name": "metrics",
        "data": {"counters": {}, "gauges": {}, "histograms": {}},
    }
    journal.write_text(json.dumps(record) + "\n", "utf-8")
    assert main(["stats", str(journal)]) == 0
    out = capsys.readouterr().out
    for row in (
        "oracle memo hit rate",
        "valency-cache hit rate",
        "frontier peak",
    ):
        line = next(l for l in out.splitlines() if l.startswith(row))
        assert line.rstrip().endswith("n/a"), line


def test_stats_resilience_section_on_empty_journal(tmp_path, capsys):
    """S6: the resilience table renders for a journal from a run that
    never checkpointed -- a zero row, not a KeyError."""
    journal = tmp_path / "idle.jsonl"
    record = {
        "v": 1,
        "t": 0.0,
        "run": "idle",
        "type": "metrics",
        "name": "metrics",
        "data": {"counters": {}, "gauges": {}, "histograms": {}},
    }
    journal.write_text(json.dumps(record) + "\n", "utf-8")
    assert main(["stats", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "resilience" in out
    line = next(
        l for l in out.splitlines() if l.startswith("checkpoint records")
    )
    assert line.split()[-1] == "0", line


def test_stats_resilience_section_counts_checkpoint_records(
    tmp_path, capsys
):
    """A traced run with a live checkpoint journal counts one record per
    computed oracle answer."""
    journal = tmp_path / "checkpointed.jsonl"
    rc = main([
        "adversary", "rounds:3", "--resume", str(tmp_path / "run.ckpt"),
        "--trace-out", str(journal),
    ])
    assert rc == 0
    capsys.readouterr()
    assert main(["stats", str(journal)]) == 0
    out = capsys.readouterr().out
    line = next(
        l for l in out.splitlines() if l.startswith("checkpoint records")
    )
    assert int(line.split()[-1]) > 0, line


def test_trace_filters_by_name(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    assert main(
        ["adversary", "rounds:3", "--trace-out", str(journal)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["trace", str(journal), "--name", "adversary.outcome"]
    ) == 0
    out = capsys.readouterr().out
    assert "adversary.outcome" in out
    assert "lemma1" not in out


def test_untraced_runs_write_no_files(tmp_path, capsys):
    rc = main(["adversary", "tas:2"])
    assert rc == 0
    assert list(tmp_path.iterdir()) == []


# -- journals from a newer writer ---------------------------------------------

def _future_journal(tmp_path, version=99):
    path = tmp_path / "future.jsonl"
    record = {
        "v": version, "t": 0.0, "run": "r", "type": "event",
        "name": "adversary.outcome", "parent": None, "data": {},
    }
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


def test_stats_on_newer_schema_is_one_line_and_na(tmp_path, capsys):
    assert main(["stats", str(_future_journal(tmp_path))]) == 1
    out = capsys.readouterr().out
    assert "journal schema v99 > supported v1" in out.splitlines()[0]
    assert "n/a" in out
    # Not misdiagnosed as corruption or a torn tail.
    assert "torn" not in out
    assert "error:" not in out


def test_trace_on_newer_schema_is_one_line_and_na(tmp_path, capsys):
    assert main(["trace", str(_future_journal(tmp_path))]) == 1
    out = capsys.readouterr().out
    assert "journal schema v2 > supported v1" not in out  # exact version
    assert "journal schema v99 > supported v1" in out.splitlines()[0]
    assert "n/a" in out


def test_newer_schema_mid_file_is_still_the_version_verdict(
    tmp_path, capsys
):
    path = tmp_path / "mixed.jsonl"
    good = {
        "v": 1, "t": 0.0, "run": "r", "type": "event",
        "name": "x", "parent": None, "data": {},
    }
    future = dict(good, v=2)
    path.write_text(
        json.dumps(good) + "\n" + json.dumps(future) + "\n",
        encoding="utf-8",
    )
    assert main(["trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert "journal schema v2 > supported v1 (line 2)" in out


def test_schema_too_new_carries_both_versions():
    from repro.obs import SchemaTooNew, validate_record

    import pytest

    with pytest.raises(SchemaTooNew) as excinfo:
        validate_record({"v": 7, "type": "event"}, line=3)
    assert excinfo.value.found == 7
    assert excinfo.value.supported == 1
    # Survives the worker-boundary pickle round trip like every error.
    import pickle

    clone = pickle.loads(pickle.dumps(excinfo.value))
    assert (clone.found, clone.supported) == (7, 1)
