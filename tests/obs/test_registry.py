"""Unit contract for the metrics registry and its Prometheus rendering."""

from __future__ import annotations

import re

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    render_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


def test_counter_counts_and_refuses_to_go_down(registry):
    jobs = registry.counter("jobs_total", "Jobs")
    jobs.inc()
    jobs.inc(4)
    assert jobs.value() == 5
    with pytest.raises(MetricError):
        jobs.inc(-1)


def test_labeled_counter_keeps_series_apart(registry):
    jobs = registry.counter("jobs_total", "Jobs", ("kind",))
    jobs.inc(kind="prover")
    jobs.inc(2, kind="verifier")
    assert jobs.value(kind="prover") == 1
    assert jobs.value(kind="verifier") == 2
    # Labeled families refuse unlabeled increments and unknown labels.
    with pytest.raises(MetricError):
        jobs.inc()
    with pytest.raises(MetricError):
        jobs.inc(flavor="prover")


def test_gauge_moves_both_ways(registry):
    depth = registry.gauge("depth", "Depth")
    depth.set(3)
    depth.inc()
    depth.dec(2)
    assert depth.value() == 2


def test_histogram_buckets_are_cumulative_in_collect(registry):
    latency = registry.histogram("lat_seconds", "Lat", buckets=(0.5, 1.0))
    for value in (0.25, 1.0, 4.0):  # 1.0 lands in the le=1.0 bucket
        latency.observe(value)
    (entry,) = [f for f in registry.collect() if f["name"] == "lat_seconds"]
    (series,) = entry["samples"]
    assert [b["count"] for b in series["buckets"]] == [1, 2, 3]
    assert series["buckets"][-1]["le"] == "+Inf"
    assert series["sum"] == 5.25
    assert series["count"] == 3


def test_histogram_rejects_unsorted_buckets(registry):
    with pytest.raises(MetricError):
        registry.histogram("bad", "Bad", buckets=(1.0, 0.5))
    with pytest.raises(MetricError):
        registry.histogram("dup", "Dup", buckets=(1.0, 1.0))


def test_default_buckets_are_sorted_and_unique():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


# ---------------------------------------------------------------------------
# Registration semantics
# ---------------------------------------------------------------------------


def test_reregistration_returns_the_same_instrument(registry):
    first = registry.counter("hits_total", "Hits")
    second = registry.counter("hits_total", "Hits")
    assert first is second


def test_type_clash_raises(registry):
    registry.counter("thing", "Thing")
    with pytest.raises(MetricError):
        registry.gauge("thing", "Thing")


def test_invalid_names_raise(registry):
    with pytest.raises(MetricError):
        registry.counter("no-dashes", "Bad")
    with pytest.raises(MetricError):
        registry.counter("ok_total", "Bad label", ("no-dashes",))


# ---------------------------------------------------------------------------
# Samplers (scrape-time callbacks) and read()
# ---------------------------------------------------------------------------


def test_sampler_pulls_at_scrape_time(registry):
    box = {"value": 7}
    population = registry.gauge(
        "pop", "Pop", sampler=lambda: box["value"]
    )
    assert registry.read("pop") == 7
    box["value"] = 11
    assert registry.read("pop") == 11
    population.set_sampler(None)
    population.set(1)
    assert registry.read("pop") == 1


def test_labeled_sampler_and_read(registry):
    registry.gauge(
        "procs",
        "Procs",
        ("kind",),
        sampler=lambda: [({"kind": "prover"}, 2), ({"kind": "verifier"}, 4)],
    )
    assert registry.read("procs", {"kind": "verifier"}) == 4
    assert registry.read("procs", {"kind": "unknown"}) is None


def test_dead_sampler_never_fails_the_scrape(registry):
    def boom():
        raise RuntimeError("pool is gone")

    registry.gauge("alive", "Alive", sampler=boom)
    assert registry.read("alive") is None
    assert "alive" in render_prometheus(registry)  # family header survives


def test_read_of_absent_family_is_none(registry):
    assert registry.read("no_such_family") is None


# ---------------------------------------------------------------------------
# Prometheus text exposition (v0.0.4)
# ---------------------------------------------------------------------------


def test_prometheus_text_golden(registry):
    jobs = registry.counter("jobs_total", "Jobs processed", ("kind",))
    jobs.inc(kind="prover")
    jobs.inc(2, kind="verifier")
    depth = registry.gauge("queue_depth", "Queue depth")
    depth.set(3)
    latency = registry.histogram(
        "latency_seconds", "Job latency", buckets=(0.5, 1.0)
    )
    for value in (0.25, 1.0, 4.0):
        latency.observe(value)
    expected = (
        "# HELP jobs_total Jobs processed\n"
        "# TYPE jobs_total counter\n"
        'jobs_total{kind="prover"} 1\n'
        'jobs_total{kind="verifier"} 2\n'
        "# HELP latency_seconds Job latency\n"
        "# TYPE latency_seconds histogram\n"
        'latency_seconds_bucket{le="0.5"} 1\n'
        'latency_seconds_bucket{le="1.0"} 2\n'
        'latency_seconds_bucket{le="+Inf"} 3\n'
        "latency_seconds_sum 5.25\n"
        "latency_seconds_count 3\n"
        "# HELP queue_depth Queue depth\n"
        "# TYPE queue_depth gauge\n"
        "queue_depth 3\n"
    )
    assert render_prometheus(registry) == expected


def test_prometheus_escapes_label_values(registry):
    odd = registry.counter("odd_total", "Odd", ("path",))
    odd.inc(path='a"b\\c\nd')
    body = render_prometheus(registry)
    assert 'odd_total{path="a\\"b\\\\c\\nd"} 1' in body


def test_global_registry_renders_parseable_text():
    # Importing the instrumented layers registers their families; every
    # sample line in the global scrape must match the exposition grammar.
    import repro.chain.chain  # noqa: F401
    import repro.core.session  # noqa: F401
    import repro.crypto.curve  # noqa: F401
    import repro.rpc.server  # noqa: F401

    from repro.obs.registry import REGISTRY

    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9][0-9eE.+-]*$|"
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [+-]Inf$|"
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? NaN$"
    )
    for line in render_prometheus(REGISTRY).splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            assert sample.match(line), line
