"""Tests for the metrics registry: counters, gauges, histograms."""

import pytest

from repro.obs import MetricsRegistry, format_metric_name
from repro.obs.metrics import Counter, Gauge, Histogram


def test_counter_accumulates():
    c = Counter("n")
    c.inc()
    c.inc(41)
    assert c.value == 42


def test_gauge_time_weighted_mean():
    g = Gauge("depth")
    g.set(0, now=0.0)
    g.set(4, now=10.0)   # level 0 held for 10s
    g.set(0, now=15.0)   # level 4 held for 5s
    # Integral = 0*10 + 4*5 = 20 over 15s.
    assert g.mean() == pytest.approx(20 / 15)
    assert g.min == 0 and g.max == 4 and g.value == 0


def test_gauge_mean_extends_to_now():
    g = Gauge("depth")
    g.set(2, now=0.0)
    assert g.mean(now=10.0) == pytest.approx(2.0)


def test_gauge_single_sample_reports_that_sample():
    g = Gauge("util")
    g.set(0.75, now=3.0)
    assert g.mean() == pytest.approx(0.75)


def test_gauge_unsampled_is_zero():
    assert Gauge("x").mean() == 0.0


def test_histogram_exact_stats():
    h = Histogram("wait")
    for v in [1.0, 2.0, 3.0, 4.0]:
        h.observe(v)
    assert h.count == 4
    assert h.mean == pytest.approx(2.5)
    assert h.min == 1.0 and h.max == 4.0


def test_histogram_percentiles_small_sample():
    h = Histogram("wait")
    for v in range(1, 101):
        h.observe(float(v))
    p50, p95, p99 = h.percentiles()
    assert p50 == pytest.approx(50.5)
    assert p95 == pytest.approx(95.05)
    assert p99 == pytest.approx(99.01)


def test_histogram_reservoir_bounds_memory_and_stays_deterministic():
    def build():
        h = Histogram("wait", reservoir_size=64)
        for v in range(10_000):
            h.observe(float(v % 1000))
        return h

    a, b = build(), build()
    assert len(a._reservoir) == 64
    assert a.count == 10_000
    assert a.quantile(0.5) == b.quantile(0.5)  # deterministic replacement
    # The reservoir median of a uniform 0..999 stream lands mid-range.
    assert 250 < a.quantile(0.5) < 750


def test_histogram_quantile_validation():
    h = Histogram("wait")
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert h.quantile(0.5) == 0.0  # empty histogram


def test_empty_histogram_every_readout_is_zero():
    # Empty-data contract: 0.0 everywhere, never NaN or IndexError.
    h = Histogram("wait")
    assert h.percentiles() == (0.0, 0.0, 0.0)
    assert h.quantile(0.0) == 0.0 and h.quantile(1.0) == 0.0
    assert h.mean == 0.0


def test_summary_deterministically_sorted():
    def build(keys):
        reg = MetricsRegistry()
        for key in keys:
            reg.counter(key).inc()
        reg.gauge("g.depth").set(2, now=1.0)
        reg.histogram("h.wait").observe(0.5)
        return reg.summary()

    a = build(["z.last", "a.first", "m.mid"])
    b = build(["m.mid", "z.last", "a.first"])
    assert a == b  # registration order is invisible
    assert a.index("a.first") < a.index("m.mid") < a.index("z.last")


def test_registry_creates_and_reuses():
    reg = MetricsRegistry()
    a = reg.counter("reads", disk=3)
    b = reg.counter("reads", disk=3)
    assert a is b
    assert reg.counter("reads", disk=4) is not a
    assert len(reg) == 2


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_format_metric_name_sorts_labels():
    assert format_metric_name("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
    assert format_metric_name("m", {}) == "m"


def test_registry_get_returns_none_for_missing():
    reg = MetricsRegistry()
    assert reg.get("nope") is None


def test_summary_renders_all_kinds():
    reg = MetricsRegistry()
    reg.counter("events").inc(7)
    reg.gauge("depth", dev=0).set(2, now=1.0)
    reg.histogram("wait", lane=0).observe(0.5)
    text = reg.summary()
    assert "events" in text and "7" in text
    assert "depth{dev=0}" in text
    assert "wait{lane=0}" in text
    assert "p95" in text


def test_summary_empty_registry():
    assert "no metrics" in MetricsRegistry().summary()


def _fields(h):
    return h.count, h.total, h.min, h.max, h._reservoir, h._state


@pytest.mark.parametrize("capacity", [1, 7, 4096])
@pytest.mark.parametrize("batches", [[5], [3, 0, 40], [2, 9000, 1, 700]])
def test_observe_many_equals_the_scalar_loop(capacity, batches):
    import numpy as np

    rng = np.random.default_rng(capacity + len(batches))
    loop = Histogram("loop", reservoir_size=capacity)
    bulk = Histogram("bulk", reservoir_size=capacity)
    for n in batches:
        values = rng.exponential(1e-3, n)
        for value in values.tolist():
            loop.observe(value)
        bulk.observe_many(values)
        assert _fields(bulk) == _fields(loop)
    # Mixing the two keeps them in lockstep too.
    loop.observe(0.5)
    bulk.observe(0.5)
    assert _fields(bulk) == _fields(loop)


def test_gauge_add_area_folds_an_integral():
    g = Gauge("g")
    g.set(1.0, 2.0)
    g.set(0.0, 3.0)       # level 1 over [2, 3]
    g.add_area(4.0, 0.0, 10.0, low=0.0, high=2.0)
    # window [0, 10]: 1 (own) + 4 (folded) over 10 s
    assert g.mean() == pytest.approx(0.5)
    assert (g.min, g.max) == (0.0, 2.0)


def test_gauge_add_area_on_unsampled_gauge():
    g = Gauge("g")
    g.add_area(3.0, 1.0, 7.0)
    assert g.mean() == pytest.approx(0.5)
