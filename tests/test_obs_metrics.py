"""Unit tests for the observability primitives: instruments, registry
snapshot determinism, the ambient observation stack, and the
tracer/sink plumbing (including the flushed-journal-on-exception
guarantee the CLI exit codes 2/3 rely on)."""

import json

import pytest

from repro.errors import JournalError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    jsonable,
    observe,
    parse_journal,
    unobserved,
)


# -- instruments -------------------------------------------------------------


def test_counter_accumulates():
    counter = Counter()
    counter.inc()
    counter.inc(41)
    assert counter.value == 42


def test_gauge_set_and_set_max():
    gauge = Gauge()
    assert gauge.value is None
    gauge.set_max(3)
    gauge.set_max(1)
    assert gauge.value == 3
    gauge.set(1)
    assert gauge.value == 1


def test_histogram_buckets_and_moments():
    hist = Histogram(edges=(1, 10, 100))
    for value in (0, 1, 5, 50, 500):
        hist.observe(value)
    assert hist.counts == [2, 1, 1, 1]  # <=1, <=10, <=100, overflow
    assert hist.count == 5
    assert hist.sum == 556
    assert hist.min == 0
    assert hist.max == 500


# -- registry ----------------------------------------------------------------


def test_registry_create_or_get_is_idempotent():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_histogram_edge_mismatch_rejected():
    registry = MetricsRegistry()
    registry.histogram("h", edges=(1, 2))
    with pytest.raises(ValueError):
        registry.histogram("h", edges=(1, 2, 3))


def test_snapshot_is_json_safe_and_sorted():
    registry = MetricsRegistry()
    registry.counter("z").inc(2)
    registry.counter("a").inc(1)
    registry.gauge("g").set_max(7)
    registry.histogram("h", edges=(1, 2)).observe(5)
    snap = registry.snapshot()
    assert json.loads(json.dumps(snap)) == snap
    assert list(snap["counters"]) == ["a", "z"]
    assert snap["histograms"]["h"]["counts"] == [0, 0, 1]


def test_null_registry_discards_everything():
    registry = NullRegistry()
    registry.counter("c").inc(5)
    registry.gauge("g").set_max(5)
    registry.histogram("h").observe(5)
    assert registry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    assert not registry.enabled


# -- ambient observation stack -----------------------------------------------


def test_observe_installs_and_restores():
    default_metrics = get_metrics()
    fresh = MetricsRegistry()
    with observe(metrics=fresh):
        assert get_metrics() is fresh
        inner = MetricsRegistry()
        with observe(metrics=inner):
            assert get_metrics() is inner
        assert get_metrics() is fresh
    assert get_metrics() is default_metrics


def test_unobserved_installs_null_registry():
    with unobserved():
        assert not get_metrics().enabled
        assert not get_tracer().enabled
        get_metrics().counter("c").inc()  # must be a no-op, not an error


def test_default_tracer_is_disabled():
    assert not get_tracer().enabled


# -- tracer ------------------------------------------------------------------


def test_spans_nest_and_events_attach_to_parents():
    sink = MemorySink()
    tracer = Tracer(sink, run_id="test-run", clock=lambda: 0.0)
    with tracer.span("outer", a=1):
        tracer.event("fact", b=2)
        with tracer.span("inner"):
            pass
    kinds = [(r["type"], r["name"]) for r in sink.records]
    assert kinds == [
        ("span_start", "outer"),
        ("event", "fact"),
        ("span_start", "inner"),
        ("span_end", "inner"),
        ("span_end", "outer"),
    ]
    outer_id = sink.records[0]["id"]
    assert sink.records[0]["parent"] is None
    assert sink.records[1]["parent"] == outer_id
    assert sink.records[2]["parent"] == outer_id
    assert sink.records[0]["data"] == {"a": 1}
    assert all(r["run"] == "test-run" for r in sink.records)


def test_span_records_error_status_and_reraises():
    sink = MemorySink()
    tracer = Tracer(sink)
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    end = sink.records[-1]
    assert end["type"] == "span_end"
    assert end["status"] == "error"
    assert "boom" in end["error"]


def test_emit_metrics_dumps_snapshot():
    sink = MemorySink()
    tracer = Tracer(sink)
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    tracer.emit_metrics(registry)
    record = sink.records[-1]
    assert record["type"] == "metrics"
    assert record["data"]["counters"] == {"c": 3}


def test_jsonable_coerces_exotic_values():
    assert jsonable({1: {2, 3}, "t": (4, frozenset())}) == {
        "1": [2, 3],
        "t": [4, []],
    }
    assert isinstance(jsonable(object()), str)


# -- sinks -------------------------------------------------------------------


def test_jsonl_sink_flushes_complete_lines_on_exception(tmp_path):
    path = tmp_path / "journal.jsonl"
    tracer = Tracer(JsonlSink(path))
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            tracer.event("progress", step=1)
            raise ValueError("unwind")
    # No close() ran -- the journal must still be complete, valid JSONL.
    records = parse_journal(path)
    assert [r["type"] for r in records] == [
        "span_start",
        "event",
        "span_end",
    ]
    assert records[-1]["status"] == "error"
    tracer.close()


def test_jsonl_sink_rejects_emit_after_close(tmp_path):
    sink = JsonlSink(tmp_path / "journal.jsonl")
    sink.close()
    sink.close()  # idempotent
    with pytest.raises(JournalError):
        sink.emit({"v": 1})


def test_parse_journal_rejects_truncated_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"v": 1, "t": 0, "run": "r", "type": "even', "utf-8")
    with pytest.raises(JournalError):
        parse_journal(path)
