"""SLO gate tests (``repro.obs.slo``)."""

import random

import pytest

from repro.experiments.sweeps import _p95
from repro.obs.metrics import MetricsRegistry, nearest_rank
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
    @pytest.mark.parametrize("n", [1, 5, 12, 19, 20, 31, 39, 52, 59, 100])
    def test_every_reader_takes_the_same_sample(self, n):
        """A registry histogram and the sweeps' per-job p95 both report
        sample ``ceil(0.95·n)`` (1-based) of a shuffled ``1..n``, the
        rank worked out here in integers."""
        values = [float(value) for value in range(1, n + 1)]
        random.Random(n).shuffle(values)
        expected = float(-(-95 * n // 100))
        reg = MetricsRegistry()
        hist = reg.histogram("repro_wait_seconds", "waits")
        for value in values:
            hist.observe(value)
        [(_labels, observed)] = hist.samples()
        assert nearest_rank(observed, 0.95) == expected
        assert _p95(values) == expected


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
