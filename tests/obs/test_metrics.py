"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        assert registry.value("c") == 3.5

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("c").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5)
        registry.gauge("g").set(2)
        assert registry.value("g") == 2


class TestHistogram:
    def test_bucket_placement(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        # counts[i] holds observations <= bounds[i]; last slot is overflow.
        assert histogram.counts == [2, 2, 1]
        assert histogram.total == 5
        assert histogram.sum == pytest.approx(27.5)

    def test_counts_sum_to_total(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=DEFAULT_SIZE_BUCKETS)
        for value in range(200):
            histogram.observe(float(value))
        assert sum(histogram.counts) == histogram.total == 200

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", (1.0, 1.0), lock=MetricsRegistry()._lock)

    def test_redeclaring_with_other_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="already declared"):
            registry.histogram("h", bounds=(1.0, 3.0))

    @pytest.mark.parametrize(
        "bounds", [(1.0, 2.0), (1, 2), [1.0, 2.0], (bound for bound in (1, 2.0))]
    )
    def test_redeclaring_with_equal_bounds_returns_the_histogram(self, bounds):
        """Equal as floats, whatever the container: the unlocked hit takes a
        tuple as it is, anything else is made floats first, and neither
        path makes a second histogram."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(1.0, 2.0))
        assert registry.histogram("h", bounds=bounds) is histogram
        assert histogram.bounds == (1.0, 2.0)
        with pytest.raises(ValueError, match="already declared"):
            registry.histogram("h", bounds=(1, 2, 3))


class TestRegistry:
    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("x")

    def test_a_hit_is_the_made_metric_and_a_kind_clash_still_raises(self):
        registry = MetricsRegistry()
        counter, histogram = registry.counter("c"), registry.histogram("h")
        assert registry.counter("c") is counter
        assert registry.histogram("h") is histogram
        with pytest.raises(ValueError, match="is a histogram"):
            registry.counter("h")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("c")

    def test_as_dict_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        assert list(registry.as_dict()) == ["alpha", "zeta"]

    def test_to_text_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("calls").inc(7)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        text = registry.to_text()
        assert "calls: counter value=7" in text
        assert "lat: histogram total=1" in text
