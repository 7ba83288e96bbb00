"""Benchmark S9: fault injection overhead and straggler mitigation.

Serverless fan-outs self-heal by re-invoking crashed calls and by
launching backup tasks for stragglers.  Both mechanisms trade extra
invocations (dollars) for reliability and tail latency; these rows
quantify that trade on the simulated platform.

S9c/S9d extend both mechanisms across the four exchange substrates:
attempt-scoped cancellation (dead attempts' transfers aborted, their
relay reservations reclaimed, losers of speculative races fenced) makes
crash-retry and speculation safe on the stateful substrates too, at
byte parity with the crash-free object-storage artifact.
"""


def test_fault_rate_overhead(regenerate):
    rows = regenerate("sweep-faults")

    by_rate = {row["crash_probability"]: row for row in rows}
    baseline = by_rate[0.0]
    worst = by_rate[max(by_rate)]
    # Failures must cost something, and healing must stay lossless
    # (gated inside the sweep itself).
    assert worst["latency_s"] > baseline["latency_s"]
    assert worst["cost_usd"] > baseline["cost_usd"]
    assert worst["crashes"] > 0
    assert baseline["crashes"] == 0
    # Every crash triggered exactly one replacement invocation.
    assert worst["invocations"] == 32 + worst["crashes"]


def test_speculation_ablation(regenerate):
    rows = regenerate("sweep-speculation")

    by_label = {row["speculation"]: row for row in rows}
    # Backups fire, and the job does not get slower for having them.
    assert by_label["on"]["backup_tasks"] > 0
    assert by_label["on"]["latency_s"] <= by_label["off"]["latency_s"] * 1.01
    # The mitigation is paid for in duplicate invocations.
    assert by_label["on"]["invocations"] > by_label["off"]["invocations"]


def test_exchange_fault_sweep(regenerate):
    """S9c: crash injection on all four substrates, relays included."""
    rows = regenerate("sweep-exchange-faults")

    # The injection bit on every substrate at the top rate...
    top = max(row["crash_probability"] for row in rows)
    for row in rows:
        if row["crash_probability"] == top:
            assert row["crashes"] > 0
            assert row["invocations"] > 40  # retries actually happened
    # ...every artifact digest is identical (the sweep gates parity
    # internally too)...
    assert len({row["output_digest"] for row in rows}) == 1
    # ...and neither relay flavour leaks a byte of a dead attempt.
    for row in rows:
        if row["strategy"] in ("relay", "sharded-relay"):
            assert row["residual_bytes"] == 0.0


def test_exchange_speculation_sweep(regenerate):
    """S9d: straggler mitigation is safe on every substrate."""
    rows = regenerate("sweep-exchange-speculation")

    by_key = {(row["strategy"], row["speculation"]): row for row in rows}
    for strategy in ("objectstore", "cache", "relay", "sharded-relay"):
        on, off = by_key[(strategy, "on")], by_key[(strategy, "off")]
        # Backups fire and their losers are cancelled, not drained.
        assert on["backup_tasks"] > 0
        assert on["cancelled_attempts"] > 0
        assert on["invocations"] > off["invocations"]
        # A cancelled loser is billed only up to the kill: the total
        # wasted GB-seconds stay a small fraction of the duplicates'
        # would-be full cost.
        assert on["cancelled_gb_s"] < on["backup_tasks"] * 60.0
