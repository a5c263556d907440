"""Tests for the instrumentation registry and its null twin."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.registry import registry_or_null


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("sub", "hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_and_adjust(self):
        gauge = Gauge("sub", "level")
        gauge.set(10)
        gauge.set(7)
        assert gauge.value == 7

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram("sub", "latency", bounds=(1, 2, 4))
        for value in (1, 2, 2, 3, 100):
            histogram.observe(value)
        assert histogram.as_dict()["count"] == 5
        assert histogram.as_dict()["sum"] == 108
        assert histogram.mean == pytest.approx(108 / 5)
        as_dict = histogram.as_dict()
        assert as_dict["bounds"] == [1, 2, 4]
        assert as_dict["buckets"] == [1, 2, 1, 1]

    def test_histogram_bounds_must_be_sorted(self):
        with pytest.raises(ObservabilityError):
            Histogram("sub", "bad", bounds=(4, 2))
        with pytest.raises(ObservabilityError):
            Histogram("sub", "empty", bounds=())


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("runtime", "rounds")
        second = registry.counter("runtime", "rounds")
        assert first is second
        first.inc()
        assert second.value == 1

    def test_type_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("runtime", "rounds")
        with pytest.raises(ObservabilityError):
            registry.gauge("runtime", "rounds")

    def test_snapshot_nests_by_subsystem(self):
        registry = MetricsRegistry()
        registry.counter("a", "x").inc(3)
        registry.gauge("a", "y").set(7)
        registry.histogram("b", "h", bounds=(1,)).observe(1)
        snapshot = registry.snapshot()
        assert snapshot["a"] == {"x": 3, "y": 7}
        assert snapshot["b"]["h"]["count"] == 1

    def test_collector_merged_into_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("cache", "lookups").inc(2)
        registry.register_collector("cache", lambda: {"hits": 9})
        snapshot = registry.snapshot()
        assert snapshot["cache"] == {"lookups": 2, "hits": 9}

    def test_collector_reregistration_replaces(self):
        registry = MetricsRegistry()
        registry.register_collector("cache", lambda: {"hits": 1})
        registry.register_collector("cache", lambda: {"hits": 2})
        assert registry.snapshot()["cache"]["hits"] == 2

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled is True
        assert NULL_REGISTRY.enabled is False


class TestNullRegistry:
    def test_instruments_are_shared_noops(self):
        registry = NullRegistry()
        a = registry.counter("x", "a")
        b = registry.counter("y", "b")
        assert a is b
        a.inc(100)
        assert a.value == 0
        histogram = registry.histogram("x", "h")
        histogram.observe(3)
        assert histogram.as_dict()["count"] == 0

    def test_snapshot_empty_and_collectors_ignored(self):
        registry = NullRegistry()
        registry.counter("x", "a").inc()
        registry.register_collector("x", lambda: {"boom": 1})
        assert registry.snapshot() == {}

    def test_registry_or_null(self):
        assert registry_or_null(None) is NULL_REGISTRY
        real = MetricsRegistry()
        assert registry_or_null(real) is real
