"""Benchmark S3: sensitivity to the object store's request-rate ceiling.

"I/O-bound stages ... can end up bottlenecking the system.  This
typically occurs due to the limited throughput of object storage
services (e.g., IBM COS only supports a few thousand operations/s)."

The sweep throttles the simulated store underneath a *naive* 32-worker
all-to-all (W² PUTs + W² GETs, no write-combining) — the configuration
the paper's warning describes.  Benchmark S7 (``bench_io_ablation``)
shows how Primula's write-combining removes this sensitivity.
"""


def test_storage_ops_sensitivity(regenerate):
    rows = regenerate("sweep-storage")

    latency = {row["ops_per_second"]: row["sort_latency_s"] for row in rows}
    # Starving the store of request throughput must hurt, materially.
    assert latency[100] > 1.3 * latency[8000]
    # Beyond a few thousand ops/s the shuffle stops caring (COS's actual
    # regime in the paper).
    assert latency[3000] < 1.15 * latency[8000]
    # Latency is monotone non-increasing in the ceiling (tolerance for
    # jitter).
    ordered = [latency[ops] for ops in sorted(latency)]
    assert all(a >= b * 0.9 for a, b in zip(ordered, ordered[1:]))
    # The naive layout really does issue ~W² requests per phase.
    assert rows[0]["requests"] > 32 * 32
