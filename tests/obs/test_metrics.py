"""Unit tests for the metrics registry and its instrument types."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_TICK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g")
        gauge.set(7)
        gauge.set(3.5)
        assert gauge.value == 3.5


class TestHistogram:
    def test_bucket_rule_is_value_le_bound(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 9.0):
            hist.observe(value)
        # counts: [<=1, <=2, <=4, overflow]
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(16.0)

    def test_cumulative_is_monotone_and_ends_at_count(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0, 3.0):
            hist.observe(value)
        assert hist.cumulative() == [1, 2, 4]

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram("h", buckets=(10.0,))
        for _ in range(4):
            hist.observe(5.0)
        # All mass in [0, 10]; the median estimate is the bucket midpoint.
        assert hist.quantile(0.5) == pytest.approx(5.0)

    def test_quantile_on_empty_histogram_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_quantile_clamps_overflow_to_last_bound(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(1.0) == 2.0

    def test_quantile_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError, match="within"):
            Histogram("h").quantile(1.5)

    def test_mean(self):
        hist = Histogram("h")
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == pytest.approx(3.0)
        assert Histogram("empty").mean == 0.0

    def test_merge_requires_matching_bounds(self):
        a = Histogram("a", buckets=(1.0, 2.0))
        b = Histogram("b", buckets=(1.0, 3.0))
        with pytest.raises(ConfigurationError, match="cannot merge"):
            a.merge(b)

    def test_bounds_must_strictly_ascend(self):
        with pytest.raises(ConfigurationError, match="ascend"):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="at least one"):
            Histogram("h", buckets=())


class TestMetricsRegistry:
    def test_same_name_and_labels_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", help="Hits", kind="a")
        second = registry.counter("hits", kind="a")
        third = registry.counter("hits", kind="b")
        assert first is second
        assert first is not third
        assert len(registry) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.gauge("g", x="1", y="2")
        b = registry.gauge("g", y="2", x="1")
        assert a is b

    def test_type_conflicts_are_refused(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("m")

    def test_histogram_bucket_conflicts_are_refused(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.histogram("h", buckets=(1.0, 4.0))

    def test_help_and_type_introspection(self):
        registry = MetricsRegistry()
        registry.counter("hits", help="Total hits")
        registry.histogram("lat")
        assert registry.help_for("hits") == "Total hits"
        assert registry.type_of("hits") == "counter"
        assert registry.type_of("lat") == "histogram"
        assert registry.type_of("absent") == ""

    def test_instruments_sorted_for_stable_export(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", kind="z")
        registry.counter("a", kind="a")
        names = [(i.name, i.labels) for i in registry.instruments()]
        assert names == sorted(names)

    def test_value_reads_scalars_with_default(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1.0)
        assert registry.value("c") == 3.0
        assert registry.value("missing", default=-1.0) == -1.0
        assert registry.value("h") == 0.0  # histograms have no scalar

    def test_collectors_run_only_at_collect_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("scraped")

        class Collector:
            def __init__(self):
                self.calls = 0

            def __call__(self):
                self.calls += 1
                gauge.set(self.calls)

        collector = Collector()
        registry.register_collector(collector)
        assert gauge.value == 0.0
        registry.collect()
        registry.collect()
        assert collector.calls == 2
        assert gauge.value == 2.0

    def test_registry_pickles(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="x").inc(2)
        registry.histogram("h", buckets=DEFAULT_TICK_BUCKETS).observe(3.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.value("c", kind="x") == 2.0
        assert clone.get("h").count == 1
