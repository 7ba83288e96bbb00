"""Benchmark S1: the worker-count U-curve behind the paper's thesis.

"Object storage performs well when the appropriate number of functions
is used in I/O-bound stages."  The sweep runs the *simulated* shuffle at
several worker counts and checks that (a) the latency curve is
U-shaped, and (b) the analytic Primula planner's choice is competitive
with the best measured count.
"""


def test_worker_sweep(regenerate):
    rows = regenerate("sweep-workers")

    latency = {row["workers"]: row["sort_latency_s"] for row in rows}
    fewest, most = min(latency), max(latency)
    best = min(latency, key=latency.get)
    # U-shape: both extremes are clearly worse than the best point.
    assert latency[fewest] > 1.5 * latency[best]
    assert latency[most] > latency[best]
    # Interior optimum: the paper's "appropriate number of functions".
    assert fewest < best <= most


def test_planner_choice_is_competitive(regenerate):
    sweep_rows = regenerate("sweep-workers")
    latency = {row["workers"]: row["sort_latency_s"] for row in sweep_rows}
    planned = sweep_rows[0]["planner_optimum"]
    best_measured = min(latency.values())
    # The planner's pick (evaluated on the measured curve when present,
    # else its nearest measured neighbour) is within 40% of the best.
    nearest = min(latency, key=lambda workers: abs(workers - planned))
    assert latency[nearest] <= best_measured * 1.4


def test_planner_prediction_tracks_measurement(regenerate):
    """Predicted and measured latencies agree within 2x at every point
    (the model is analytic, not fitted per point)."""
    for row in regenerate("sweep-workers"):
        ratio = row["sort_latency_s"] / row["planner_predicted_s"]
        assert 0.5 < ratio < 2.0, f"at W={row['workers']}: ratio {ratio:.2f}"
