"""SLO gate tests (``repro.obs.slo``)."""

import random

import pytest

from repro.experiments.sweeps import _p95
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloGate, SloViolation

pytestmark = pytest.mark.obs


class TestPredictionEnvelope:
    def test_within_factor_passes(self):
        gate = SloGate()
        assert gate.prediction_envelope("p", 10.0, 19.0, factor=2.0)
        assert gate.prediction_envelope("p2", 10.0, 5.5, factor=2.0)
        assert gate.passed

    def test_outside_factor_fails_both_ways(self):
        gate = SloGate()
        gate.prediction_envelope("slow", 10.0, 21.0, factor=2.0)
        gate.prediction_envelope("fast", 10.0, 4.0, factor=2.0)
        assert [c.name for c in gate.failures] == ["slow", "fast"]

    def test_missing_prediction_is_vacuous(self):
        gate = SloGate()
        assert gate.prediction_envelope("p", None, 12.0)
        assert gate.passed


class TestZeroAndEqual:
    def test_zero(self):
        gate = SloGate()
        gate.zero("residual", 0)
        gate.zero("leaked", 3)
        assert [c.name for c in gate.failures] == ["leaked"]

    def test_equal_digests(self):
        gate = SloGate()
        gate.equal("parity", "abcd", "abcd", "abcd")
        gate.equal("broken", "abcd", "ffff")
        assert [c.name for c in gate.failures] == ["broken"]


class TestP95:
    def test_list_samples(self):
        gate = SloGate()
        gate.p95("waits", [0.1] * 99 + [50.0], threshold_s=1.0)
        assert gate.passed  # p95 of the sample set is 0.1

    @pytest.mark.parametrize("n", [12, 13])
    def test_p95_is_the_nearest_rank_sample(self, n):
        gate = SloGate()
        assert gate.p95("at-the-max", list(range(1, n + 1)), threshold_s=float(n))
        assert not gate.p95("below-the-max", list(range(1, n + 1)), threshold_s=n - 0.5)
        assert f"p95={n:.4f}" in gate.failures[0].detail

    @pytest.mark.parametrize("n", [1, 5, 12, 19, 20, 31, 39, 52, 59, 100])
    def test_every_reader_takes_the_same_sample(self, n):
        """The gate, a registry histogram and the sweeps' per-job p95
        all report sample ``ceil(0.95·n)`` (1-based) of a shuffled
        ``1..n``, the rank worked out here in integers."""
        values = [float(value) for value in range(1, n + 1)]
        random.Random(n).shuffle(values)
        expected = float(-(-95 * n // 100))
        reg = MetricsRegistry()
        hist = reg.histogram("repro_wait_seconds", "waits")
        for value in values:
            hist.observe(value)
        assert hist.quantile(0.95) == expected
        assert _p95(values) == expected
        gate = SloGate(reg=reg)
        assert gate.p95("list-at", values, threshold_s=expected)
        assert gate.p95("histogram-at", "repro_wait_seconds", threshold_s=expected)
        assert not gate.p95("list-below", values, threshold_s=expected - 0.5)
        assert not gate.p95(
            "histogram-below", "repro_wait_seconds", threshold_s=expected - 0.5
        )

    def test_registry_histogram_by_name(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_wait_seconds", "waits")
        for _ in range(20):
            hist.observe(0.2)
        gate = SloGate(reg=reg)
        gate.p95("queue-wait", "repro_wait_seconds", threshold_s=0.5)
        gate.p95("too-slow", "repro_wait_seconds", threshold_s=0.1)
        assert [c.name for c in gate.failures] == ["too-slow"]

    def test_empty_samples_are_vacuous(self):
        gate = SloGate()
        assert gate.p95("empty", [], threshold_s=1.0)
        assert gate.passed


class TestGateSurface:
    def test_describe_lists_pass_and_fail(self):
        gate = SloGate("demo")
        gate.zero("ok-check", 0)
        gate.zero("bad-check", 1)
        text = gate.describe()
        assert "PASS" in text and "FAIL" in text
        assert "ok-check" in text and "bad-check" in text

    def test_assert_ok_raises_with_all_failures(self):
        gate = SloGate("demo")
        gate.zero("a", 1)
        gate.zero("b", 2)
        with pytest.raises(SloViolation) as excinfo:
            gate.assert_ok()
        assert "a" in str(excinfo.value) and "b" in str(excinfo.value)

    def test_assert_ok_passes_quietly(self):
        gate = SloGate("demo")
        gate.zero("a", 0)
        gate.assert_ok()
