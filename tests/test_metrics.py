"""The metrics registry: counters, gauges, histograms, exposition."""

import json
import threading

import pytest

from repro.obs.metrics import (
    BOUNDS,
    SCHEMA,
    MetricsRegistry,
    percentile,
    render_status,
    sum_snapshots,
)


def _histogram():
    return MetricsRegistry().histogram("latency_seconds")


# -- percentile edge cases -----------------------------------------------------


def test_percentile_empty_is_zero():
    assert percentile([], 0.5) == 0.0
    assert percentile([], 0.0) == 0.0
    assert percentile([], 1.0) == 0.0


def test_percentile_single_sample_every_quantile():
    for q in (0.0, 0.5, 0.99, 1.0):
        assert percentile([7.0], q) == 7.0


def test_percentile_q0_and_q100_hit_the_extremes():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(samples, 0.0) == 1.0  # rank clamps to >= 1
    assert percentile(samples, 1.0) == 5.0


def test_percentile_nearest_rank():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0.5) == 20.0
    assert percentile(samples, 0.75) == 30.0
    assert percentile(samples, 0.9) == 40.0
    # The rank is the ceiling of q*n: halves and smaller fractions
    # both take the next sample.
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert percentile([float(i) for i in range(1, 151)], 0.99) == 149.0
    # 0.07 * 100 == 7.000000000000001 must not add a rank.
    assert percentile([float(i) for i in range(1, 101)], 0.07) == 7.0


# -- counters and gauges -------------------------------------------------------


def test_counter_monotone_and_rejects_negative():
    registry = MetricsRegistry()
    c = registry.counter("jobs_total", "jobs")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_registration_is_idempotent():
    registry = MetricsRegistry()
    a = registry.counter("x_total")
    b = registry.counter("x_total")
    assert a is b
    a.inc()
    assert b.value == 1


def test_kind_conflict_is_an_error():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("thing")


def test_labeled_series_are_distinct():
    registry = MetricsRegistry()
    a = registry.counter("req_total", op="run")
    b = registry.counter("req_total", op="link")
    a.inc(2)
    b.inc(3)
    assert registry.get("req_total", op="run").value == 2
    assert registry.get("req_total", op="link").value == 3
    assert len(registry) == 2


def test_gauge_set_inc_dec_and_callback():
    registry = MetricsRegistry()
    g = registry.gauge("depth")
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.value == 4
    state = {"n": 7}
    fn = registry.gauge("live", fn=lambda: state["n"])
    assert fn.value == 7
    state["n"] = 9
    assert fn.value == 9  # sampled at read time


def test_concurrent_increments_do_not_lose_updates():
    registry = MetricsRegistry()
    c = registry.counter("n_total")

    def spin():
        for _ in range(1000):
            c.inc()

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000


# -- histogram bucket boundaries ----------------------------------------------


def test_histogram_bucket_boundary_values_land_in_their_bucket():
    """A value exactly on a bound belongs to that bucket (le = <=)."""
    hist = _histogram()
    hist.observe(BOUNDS[0])  # exactly the first bound
    assert hist.counts[0] == 1
    hist.observe(BOUNDS[3])
    assert hist.counts[3] == 1
    # Just past a bound: next bucket.
    hist.observe(BOUNDS[3] * 1.0000001)
    assert hist.counts[4] == 1


def test_histogram_overflow_bucket():
    hist = _histogram()
    hist.observe(BOUNDS[-1] * 10)  # beyond the last finite bound
    assert hist.counts[-1] == 1
    assert hist.count == 1
    # The quantile of an overflow-only histogram is the observed max.
    assert hist.quantile(0.5) == BOUNDS[-1] * 10


def test_histogram_empty_quantiles_and_dict():
    hist = _histogram()
    assert hist.quantile(0.5) == 0.0
    assert hist.summary() == {"count": 0}


def test_histogram_single_sample_summary():
    hist = _histogram()
    hist.observe(0.010)
    d = hist.summary()
    assert d["count"] == 1
    assert d["min_ms"] == d["max_ms"] == 10.0
    # Bucket estimates clamp to the observed max: never above a real
    # observation.
    assert d["p50_ms"] == d["p99_ms"] == 10.0


def test_histogram_quantiles_are_bounded_estimates():
    hist = _histogram()
    for ms in (1, 2, 3, 50, 100):
        hist.observe(ms / 1e3)
    d = hist.summary()
    assert d["count"] == 5
    assert 2.0 <= d["p50_ms"] <= 3.8  # within one 25% bucket of exact
    assert d["p99_ms"] <= d["max_ms"] == 100.0
    assert hist.quantile(1.0) == hist.max


# -- exposition ----------------------------------------------------------------


def _registry_with_data():
    registry = MetricsRegistry()
    registry.counter("serve_completed_total", "done").inc(3)
    registry.gauge("serve_queue_depth", "depth").set(2)
    h = registry.histogram("serve_request_seconds", "latency", op="run")
    h.observe(0.01)
    h.observe(0.5)
    return registry


def test_json_exposition_is_schema_versioned_and_serializable():
    doc = _registry_with_data().to_dict()
    assert doc["schema"] == SCHEMA
    json.dumps(doc)  # round-trippable
    by_name = {m["name"]: m for m in doc["metrics"]}
    assert by_name["serve_completed_total"]["value"] == 3
    assert by_name["serve_completed_total"]["kind"] == "counter"
    hist = by_name["serve_request_seconds"]
    assert hist["labels"] == {"op": "run"}
    assert hist["count"] == 2
    assert sum(b["count"] for b in hist["buckets"]) == 2


def test_prometheus_exposition_format():
    text = _registry_with_data().to_prometheus()
    lines = text.splitlines()
    assert "# TYPE serve_completed_total counter" in lines
    assert "serve_completed_total 3" in lines
    assert "# TYPE serve_queue_depth gauge" in lines
    assert "serve_queue_depth 2" in lines
    assert "# TYPE serve_request_seconds histogram" in lines
    # Cumulative buckets end with +Inf == _count.
    inf = [l for l in lines if 'le="+Inf"' in l]
    assert len(inf) == 1 and inf[0].endswith(" 2")
    assert 'serve_request_seconds_count{op="run"} 2' in lines
    assert text.endswith("\n")


def test_prometheus_buckets_are_cumulative():
    registry = MetricsRegistry()
    h = registry.histogram("h", "x")
    h.observe(BOUNDS[0] / 2)
    h.observe(BOUNDS[5])
    samples = list(h.samples())
    counts = [v for name, labels, v in samples if name == "h_bucket"]
    assert counts == sorted(counts)  # monotone
    assert counts[0] == 1 and counts[-1] == 2


def test_latency_histogram_status_shape_is_summary():
    hist = _histogram()
    hist.observe(0.002)
    assert set(hist.summary()) == {
        "count", "mean_ms", "min_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms",
    }


# -- status rendering from a snapshot ------------------------------------------


def _serving_registry(requests, run_seconds):
    registry = MetricsRegistry()
    registry.counter("serve_requests_total").inc(requests)
    registry.counter("serve_completed_total").inc(len(run_seconds))
    registry.counter("serve_tenant_completed_total", tenant="t1").inc(2)
    registry.counter("serve_tenant_rejected_total", tenant="t2").inc()
    registry.gauge("serve_queue_depth").set(requests)
    registry.gauge("serve_flights_started", fn=lambda: 4)
    run = registry.histogram("serve_request_seconds", op="run")
    for seconds in run_seconds:
        run.observe(seconds)
    registry.histogram("serve_request_seconds", op="link")
    registry.counter("router_completed_total").inc(99)  # another prefix
    return registry


def test_render_status_maps_each_series_kind_to_its_section():
    registry = _serving_registry(5, [0.5, 0.25])
    run = registry.get("serve_request_seconds", op="run")
    status = render_status(registry.to_dict(), "serve")
    assert status == {
        "counters": {"requests": 5, "completed": 2},
        "tenants": {"t1": {"completed": 2}, "t2": {"rejected": 1}},
        "latency": {"run": run.summary(), "link": {"count": 0}},
        "gauges": {"queue_depth": 5, "flights_started": 4},
    }
    assert status["latency"]["run"]["max_ms"] == 500.0
    assert render_status(registry.to_dict(), "router")["counters"] == {
        "completed": 99,
    }


def test_sum_snapshots_adds_every_series_and_merges_histograms():
    # Powers of two keep every float sum exact in any order.
    a = _serving_registry(5, [0.5, 2.0**-10])
    b = _serving_registry(3, [0.25])
    both = _serving_registry(8, [0.5, 2.0**-10, 0.25])
    total = sum_snapshots([a.to_dict(), b.to_dict()])
    status = render_status(total, "serve")
    assert status["counters"] == {"requests": 8, "completed": 3}
    assert status["tenants"] == {"t1": {"completed": 4}, "t2": {"rejected": 2}}
    assert status["gauges"] == {"queue_depth": 8, "flights_started": 8}
    # The merged histogram is the one that saw every observation.
    assert status["latency"] == render_status(both.to_dict(), "serve")["latency"]
    assert status["latency"]["run"]["min_ms"] == 1e3 * 2.0**-10
    # Summing leaves its inputs untouched.
    assert render_status(a.to_dict(), "serve")["counters"]["requests"] == 5
    assert sum_snapshots([]) == {"schema": SCHEMA, "metrics": []}
