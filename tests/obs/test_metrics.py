"""Metrics registry unit tests (``repro.obs.metrics``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    nearest_rank,
    publish_exchange_report,
    registry,
    reset_registry,
    sanitize_name,
)

pytestmark = pytest.mark.obs


def sample(metric, **labels):
    """One label set's series as the exporter reads it, through
    ``samples()`` (``None`` when the label set has none)."""
    return dict(metric.samples()).get(tuple(sorted(labels.items())))


class TestSanitize:
    def test_passthrough_and_replacement(self):
        assert sanitize_name("repro_relay_bytes_total") == "repro_relay_bytes_total"
        assert sanitize_name("map records/sec") == "map_records_sec"
        assert sanitize_name("9lives") == "_9lives"


class TestNearestRank:
    def test_q0_is_the_smallest_sample(self):
        assert nearest_rank([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_q1_is_the_largest_sample(self):
        assert nearest_rank([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_a_single_sample_is_every_quantile(self):
        assert {nearest_rank([4.0], q) for q in (0.0, 0.01, 0.5, 0.95, 1.0)} == {4.0}

    def test_the_median_of_an_even_count_is_the_lower_middle(self):
        assert nearest_rank([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0

    def test_input_order_and_container_do_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        expected = nearest_rank(sorted(values), 0.8)
        assert expected == 4.0
        assert nearest_rank(values, 0.8) == expected
        assert nearest_rank(tuple(reversed(values)), 0.8) == expected
        assert nearest_rank((value for value in values), 0.8) == expected

    @given(
        values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
        percent=st.integers(1, 100),
    )
    def test_property_smallest_sample_with_q_at_or_below(self, values, percent):
        """The result is a sample; at least ``q·n`` samples lie at or
        below it and fewer than ``q·n`` strictly below (integer
        arithmetic: ``100·count`` against ``percent·n``)."""
        result = nearest_rank(values, percent / 100)
        n = len(values)
        assert result in values
        assert 100 * sum(value <= result for value in values) >= percent * n
        assert 100 * sum(value < result for value in values) < percent * n


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "help")
        counter.inc(2.0, tenant="a")
        counter.inc(3.0, tenant="a")
        counter.inc(1.0, tenant="b")
        assert sample(counter, tenant="a") == 5.0
        assert sample(counter, tenant="b") == 1.0
        assert sample(counter, tenant="missing") is None

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total", "help").inc(-1.0)


class TestGauge:
    def test_set_and_max(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g", "help")
        gauge.set(4.0)
        gauge.set(5.0)
        assert sample(gauge) == 5.0
        gauge.max(3.0)  # lower than current: keeps 5
        assert sample(gauge) == 5.0
        gauge.max(9.0)
        assert sample(gauge) == 9.0
        gauge.max(2.0, tenant="a")  # a fresh label set takes any value
        assert sample(gauge, tenant="a") == 2.0


class TestHistogram:
    def test_quantiles_are_nearest_rank(self):
        reg = MetricsRegistry()
        histogram = reg.histogram("h_seconds", "help")
        for value in range(1, 100):
            histogram.observe(float(value))
        observed = sample(histogram)
        assert nearest_rank(observed, 0.5) == 50.0
        assert nearest_rank(observed, 1.0) == 99.0
        assert nearest_rank(observed, 0.0) == 1.0
        assert len(observed) == 99

    @pytest.mark.parametrize("n", [12, 13])
    def test_p95_is_the_nearest_rank_sample(self, n):
        """At n = 12 and 13, ceil(0.95 n) is n: the p95 is the largest
        sample (a rounded ``q * (n - 1)`` index would take an earlier one)."""
        reg = MetricsRegistry()
        histogram = reg.histogram("h_seconds", "help")
        for value in range(n, 0, -1):
            histogram.observe(float(value))
        assert nearest_rank(range(1, n + 1), 0.95) == n
        assert nearest_rank(sample(histogram), 0.95) == float(n)

    def test_labelled_observations_are_separate(self):
        reg = MetricsRegistry()
        histogram = reg.histogram("h_seconds", "help")
        histogram.observe(1.0, tenant="a")
        histogram.observe(9.0, tenant="b")
        assert histogram.samples() == [
            ((("tenant", "a"),), [1.0]),
            ((("tenant", "b"),), [9.0]),
        ]


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total", "help") is reg.counter("x_total", "h2")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help")
        with pytest.raises(TypeError):
            reg.gauge("x_total", "help")

    def test_module_registry_reset(self):
        reset_registry()
        registry().counter("y_total", "help").inc()
        assert "y_total" in registry().names()
        reset_registry()
        assert "y_total" not in registry().names()


class TestPublishExchangeReport:
    def test_report_lands_in_the_registry(self):
        from repro.shuffle.exchange import ExchangeReport

        reset_registry()
        # Constructing the report IS the publication (__post_init__).
        ExchangeReport(
            substrate="relay",
            workers=8,
            predicted_s=10.0,
            actual_s=12.0,
            provisioned_usd=0.02,
            extra={"mode": "staged", "relay_peak_fill": 0.7},
        )
        reg = registry()
        labels = {"substrate": "relay", "mode": "staged"}
        assert sample(reg.get("repro_exchange_sorts_total"), **labels) == 1.0
        assert sample(reg.get("repro_exchange_actual_seconds"), **labels) == 12.0
        assert sample(reg.get("repro_exchange_predicted_seconds"), **labels) == 10.0
        assert sample(reg.get("repro_exchange_relay_peak_fill"), **labels) == 0.7

    def test_non_numeric_extras_are_skipped(self):
        from repro.shuffle.exchange import ExchangeReport

        reset_registry()
        ExchangeReport(
            substrate="cache",
            workers=2,
            predicted_s=None,
            actual_s=1.0,
            provisioned_usd=0.0,
            extra={"mode": "streaming", "node_type": "cache.r5.large",
                   "cleanup": True},
        )
        names = registry().names()
        assert "repro_exchange_node_type" not in names
        assert "repro_exchange_cleanup" not in names
        assert "repro_exchange_predicted_seconds" not in names
