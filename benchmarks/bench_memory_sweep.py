"""Benchmark S6: function-memory sizing of the serverless pipeline.

Memory buys CPU share below the full-share point (2048 MB on IBM CF)
but bills linearly in GB-seconds.  The paper fixes 2 GB functions; the
sweep shows why that is the sweet spot for this CPU-bound workload.
"""

import pytest


def test_memory_sweep(regenerate):
    rows = regenerate("sweep-memory")

    latency = {row["memory_mb"]: row["latency_s"] for row in rows}
    cost = {row["memory_mb"]: row["cost_usd"] for row in rows}
    # Below the full-CPU share, more memory means materially faster.
    assert latency[512] > 1.5 * latency[2048]
    # Beyond the full share, extra memory buys nothing but still bills.
    assert latency[4096] == pytest.approx(latency[2048], rel=0.1)
    assert cost[4096] > 1.5 * cost[2048]
