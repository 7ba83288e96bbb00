"""Benchmark S1: the worker-count U-curve behind the paper's thesis.

"Object storage performs well when the appropriate number of functions
is used in I/O-bound stages."  The sweep runs the *simulated* shuffle at
several worker counts and checks that (a) the latency curve is
U-shaped, and (b) the analytic Primula planner's choice is competitive
with the best measured count.
"""

import pytest

from repro.core import ExperimentConfig
from repro.experiments import format_table, sweep_workers

WORKER_COUNTS = (2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def sweep_rows(bench_scale):
    config = ExperimentConfig(logical_scale=bench_scale)
    return sweep_workers(config, worker_counts=WORKER_COUNTS)


def test_worker_sweep(benchmark, record_result, bench_scale):
    config = ExperimentConfig(logical_scale=bench_scale)
    rows = benchmark.pedantic(
        lambda: sweep_workers(config, worker_counts=WORKER_COUNTS),
        rounds=1,
        iterations=1,
    )
    record_result(
        "s1_worker_sweep",
        format_table(rows, title="S1: sort latency vs worker count (3.5 GB)"),
    )

    latency = {row["workers"]: row["sort_latency_s"] for row in rows}
    best = min(latency, key=latency.get)
    # U-shape: both extremes are clearly worse than the best point.
    assert latency[WORKER_COUNTS[0]] > 1.5 * latency[best]
    assert latency[WORKER_COUNTS[-1]] > latency[best]
    # Interior optimum: the paper's "appropriate number of functions".
    assert WORKER_COUNTS[0] < best <= WORKER_COUNTS[-1]


def test_planner_choice_is_competitive(sweep_rows):
    latency = {row["workers"]: row["sort_latency_s"] for row in sweep_rows}
    planned = sweep_rows[0]["planner_optimum"]
    best_measured = min(latency.values())
    # The planner's pick (evaluated on the measured curve when present,
    # else its nearest measured neighbour) is within 40% of the best.
    nearest = min(latency, key=lambda workers: abs(workers - planned))
    assert latency[nearest] <= best_measured * 1.4


def test_planner_prediction_tracks_measurement(sweep_rows):
    """Predicted and measured latencies agree within 2x at every point
    (the model is analytic, not fitted per point)."""
    for row in sweep_rows:
        ratio = row["sort_latency_s"] / row["planner_predicted_s"]
        assert 0.5 < ratio < 2.0, f"at W={row['workers']}: ratio {ratio:.2f}"
