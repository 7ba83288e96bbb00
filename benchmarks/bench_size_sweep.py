"""Benchmark S2: data-size scaling of both configurations.

The VM-supported pipeline pays a ~constant provisioning penalty, so the
serverless advantage should *shrink in relative terms but persist* as
data grows at fixed parallelism — and at small sizes the VM variant is
hopeless.  This sweep documents where the crossover would sit (if any).
"""


def test_size_sweep(regenerate):
    rows = regenerate("sweep-size")

    # Serverless wins at every size in this range.
    assert all(row["speedup"] > 1.0 for row in rows)
    # The relative gap narrows as size grows (fixed boot amortizes).
    assert rows[0]["speedup"] > rows[-1]["speedup"]
    # Latency grows monotonically with size for both variants.
    serverless = [row["serverless_latency_s"] for row in rows]
    vm = [row["vm_latency_s"] for row in rows]
    assert serverless == sorted(serverless)
    assert vm == sorted(vm)
