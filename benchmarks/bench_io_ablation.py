"""Benchmark S7: write-combining ablation (why Primula exists).

The paper attributes the viability of purely serverless shuffles to
Primula's "I/O optimizations for serverless all-to-all communication".
This ablation runs the same shuffle with and without write-combining:

* combined (Primula): ``W`` map-output PUTs, range-GETs on the reduce
  side — request count grows *linearly* in ``W``;
* naive: one object per (mapper, partition) — ``W²`` PUTs and ``W²``
  GETs, plus per-request latency paid ``W`` times per mapper.
"""


def test_write_combining_ablation(regenerate):
    rows = regenerate("sweep-io")

    by_key = {
        (row["workers"], row["write_combining"]): row for row in rows
    }
    for workers in sorted({row["workers"] for row in rows}):
        combined = by_key[(workers, True)]
        naive = by_key[(workers, False)]
        # The naive layout issues far more PUTs (~W x more map outputs).
        assert naive["storage_puts"] > combined["storage_puts"] + workers * (workers - 2)
        # And it is never faster; at wide fan-out it is clearly slower.
        assert naive["sort_latency_s"] >= combined["sort_latency_s"] * 0.98
    # At wide fan-out (W=64: 4096 map-output objects) the per-request
    # overheads dominate and write-combining pays off clearly.
    wide_combined = by_key[(64, True)]["sort_latency_s"]
    wide_naive = by_key[(64, False)]["sort_latency_s"]
    assert wide_naive > wide_combined * 1.1
