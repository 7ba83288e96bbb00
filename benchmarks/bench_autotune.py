"""Benchmark S10a: on-the-fly tuning vs static calibration vs oracle.

Primula picks "the optimal number of functions for a given shuffle data
size on the fly".  This bench shows why *on the fly* matters: when the
region deviates from its calibration (throttled NICs, inflated request
latency), the statically planned worker count loses to the probe-based
tuner, which stays near the measured oracle even after paying for its
probe invocation.
"""


def test_autotune_sweep(regenerate):
    rows = regenerate("sweep-tuner")

    by_scenario = {row["scenario"]: row for row in rows}

    # The tuner stays near the oracle everywhere — its worst case is
    # probe overhead on regions where calibration was already right.
    for row in rows:
        assert row["tuned_regret"] < 1.3, row["scenario"]

    # Where the calibration is badly wrong (throttled NICs), the static
    # plan pays a real penalty and the tuner clearly beats it.
    slow_nic = by_scenario["slow-nic"]
    assert slow_nic["static_regret"] > 1.3
    assert slow_nic["tuned_regret"] < slow_nic["static_regret"]

    # On the calibrated region the probe must not change the pick's
    # quality class (tuner within probe overhead of the static choice).
    calibrated = by_scenario["calibrated"]
    assert calibrated["static_regret"] < 1.1


def test_probe_overhead_is_small(regenerate):
    for row in regenerate("sweep-tuner"):
        # The probe must cost a fraction of the shuffle it optimizes.
        assert row["probe_s"] < 0.25 * row["oracle_latency_s"], row["scenario"]
