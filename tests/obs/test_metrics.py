"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import json
import threading

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    instrument_key,
)


class TestInstrumentKey:
    def test_no_labels_is_bare_name(self):
        assert instrument_key("service.inflight", {}) == "service.inflight"

    def test_labels_sorted_into_braces(self):
        key = instrument_key(
            "engine.run.seconds", {"recognizer": "quantum", "backend": "batched"}
        )
        assert key == "engine.run.seconds{backend=batched,recognizer=quantum}"

    def test_label_order_is_canonical(self):
        a = instrument_key("m", {"x": 1, "y": 2})
        b = instrument_key("m", {"y": 2, "x": 1})
        assert a == b


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_thread_safety(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(3.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Gauge().set(float("inf"))


class TestHistogram:
    def test_empty_percentiles_are_none(self):
        h = Histogram()
        assert h.percentile(0.5) is None
        assert h.mean is None
        assert h.count == 0

    def test_exact_sum_and_count(self):
        h = Histogram()
        for value in (0.001, 0.002, 0.003):
            h.observe(value)
        assert h.count == 3
        assert h.sum == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_percentile_lands_in_the_right_bucket(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(3.0)
        p50 = h.percentile(0.50)
        assert p50 is not None and p50 <= 1.0
        p99 = h.percentile(0.999)
        assert p99 is not None and 2.0 <= p99 <= 4.0

    def test_overflow_reports_last_bound(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(100.0)
        assert h.percentile(0.5) == 2.0
        # ... but the exact sum still knows the real magnitude.
        assert h.sum == 100.0

    def test_rejects_non_finite_and_bad_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            Histogram().observe(float("nan"))
        with pytest.raises(ValueError, match="increasing"):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())
        with pytest.raises(ValueError, match="quantile"):
            Histogram().percentile(1.5)

    def test_to_dict_shape(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(9.0)
        d = h.to_dict()
        assert d["count"] == 2
        assert d["buckets"][-1] == ["inf", 1]
        assert len(d["buckets"]) == 3
        assert d["p50"] is not None and d["p95"] is not None

    def test_default_ladder_covers_microseconds_to_minutes(self):
        assert DEFAULT_BUCKETS[0] == 1e-6 and DEFAULT_BUCKETS[-1] == 120.0
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x", backend="batched")
        b = reg.counter("x", backend="batched")
        assert a is b
        assert reg.counter("x", backend="sequential") is not a

    def test_label_key_may_shadow_the_name_parameter(self):
        # ``name`` as a label key must not collide with the positional
        # instrument name (span.calls{name=...} relies on this).
        reg = MetricsRegistry()
        reg.counter("span.calls", name="engine.run").inc()
        assert reg.snapshot()["counters"]["span.calls{name=engine.run}"] == 1

    def test_histogram_buckets_fixed_at_creation(self):
        reg = MetricsRegistry()
        first = reg.histogram("d", buckets=(1.0, 2.0))
        again = reg.histogram("d", buckets=(9.0,))
        assert again is first and again.bounds == (1.0, 2.0)

    def test_counters_with_prefix(self):
        reg = MetricsRegistry()
        reg.counter("engine.degradations", backend="multiprocess", to="inline").inc()
        reg.counter("engine.run.calls").inc()
        found = reg.counters_with_prefix("engine.degradations")
        assert found == {"engine.degradations{backend=multiprocess,to=inline}": 1}

    def test_snapshot_is_versioned_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        doc = reg.snapshot()
        assert doc["version"] == SNAPSHOT_VERSION
        assert doc["counters"]["c"] == 2
        assert doc["gauges"]["g"] == 1.5
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["exported_unix"] > 0
        # The whole document must survive strict JSON round-tripping.
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        doc = reg.snapshot()
        assert doc["counters"] == {} and doc["histograms"] == {}
