"""Span tracer contract: JSONL schema, parent linkage, installation."""

from __future__ import annotations

import io
import json

from repro.obs.tracing import (
    SPAN_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    get_tracer,
    trace_to,
)

RECORD_KEYS = {"v", "span", "parent", "name", "start", "end", "attrs"}


def make_tracer():
    """A tracer over a StringIO sink with a deterministic tick clock."""
    sink = io.StringIO()
    ticks = iter(float(i) for i in range(1000))
    return Tracer(sink, clock=lambda: next(ticks)), sink


def records_of(sink: io.StringIO):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


# ---------------------------------------------------------------------------
# Schema and nesting
# ---------------------------------------------------------------------------


def test_nested_spans_link_parent_to_child():
    tracer, sink = make_tracer()
    with tracer.span("outer", task="t"):
        with tracer.span("inner"):
            pass
    inner, outer = records_of(sink)  # inner closes (and writes) first
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["parent"] == outer["span"]
    assert outer["parent"] is None
    assert outer["attrs"] == {"task": "t"}
    for record in (inner, outer):
        assert record["v"] == SPAN_SCHEMA_VERSION
        assert set(record) == RECORD_KEYS
        assert record["end"] >= record["start"]


def test_records_are_one_sorted_json_object_per_line():
    tracer, sink = make_tracer()
    with tracer.span("a", z=1, a=2):
        pass
    (line,) = sink.getvalue().splitlines()
    assert line == json.dumps(json.loads(line), sort_keys=True)


def test_span_ids_are_a_plain_counter():
    tracer, sink = make_tracer()
    for _ in range(3):
        with tracer.span("tick"):
            pass
    assert [r["span"] for r in records_of(sink)] == [1, 2, 3]
    assert tracer.spans_written == 3


def test_exception_stamps_error_attr_and_pops_the_stack():
    tracer, sink = make_tracer()
    try:
        with tracer.span("boom"):
            raise ValueError("x")
    except ValueError:
        pass
    (record,) = records_of(sink)
    assert record["attrs"]["error"] == "ValueError"
    assert tracer.current_span_id() is None


def test_set_updates_attrs_mid_span():
    tracer, sink = make_tracer()
    with tracer.span("step") as span:
        span.set(block=4)
    (record,) = records_of(sink)
    assert record["attrs"] == {"block": 4}


def test_emit_writes_premeasured_spans_with_extra_top_level_keys():
    tracer, sink = make_tracer()
    parent = tracer.emit("pool.job", 1.0, 2.0, attrs={"kind": "prover"})
    tracer.emit(
        "pool.job.worker", 0.1, 0.9, parent=parent,
        attrs={"pid": 1234}, clock="worker",
    )
    submit, worker = records_of(sink)
    assert worker["parent"] == submit["span"]
    assert worker["clock"] == "worker"
    assert "clock" not in submit


def test_current_span_id_tracks_the_implicit_stack():
    tracer, _ = make_tracer()
    assert tracer.current_span_id() is None
    with tracer.span("outer") as outer:
        assert tracer.current_span_id() == outer.id
        with tracer.span("inner") as inner:
            assert tracer.current_span_id() == inner.id
        assert tracer.current_span_id() == outer.id
    assert tracer.current_span_id() is None


# ---------------------------------------------------------------------------
# Installation: the process-global tracer
# ---------------------------------------------------------------------------


def test_default_tracer_is_a_disabled_noop():
    tracer = get_tracer()
    assert isinstance(tracer, NullTracer)
    assert tracer.enabled is False
    with tracer.span("ignored", x=1) as span:
        span.set(y=2)  # absorbs the full surface
    assert tracer.emit("ignored", 0.0, 1.0) is None
    assert tracer.current_span_id() is None


def test_trace_to_installs_writes_and_restores(tmp_path):
    path = tmp_path / "trace.jsonl"
    before = get_tracer()
    with trace_to(str(path)) as tracer:
        assert get_tracer() is tracer
        with tracer.span("only"):
            pass
    assert get_tracer() is before
    (record,) = [json.loads(l) for l in path.read_text().splitlines()]
    assert record["name"] == "only"
