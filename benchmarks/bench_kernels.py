"""Benchmark S14: scalar vs vectorized record kernels.

Every substrate's map/reduce stages now route partitioning, merging,
sampling and grouping through :mod:`repro.shuffle.kernels`, which runs
a numpy fast path whenever the codec advertises a vectorizable layout
(``vector_layout``/``vector_spec``) and falls back to the original
pure-python scalar path otherwise.  S14 measures that fast path in
isolation — same buffer, same boundaries, scalar vs vectorized — on
the repo's three record shapes:

* fixed-width 16-byte records with an 8-byte big-endian key prefix,
  under uniform and Zipf key laws (the parity/chaos suites' payload);
* bedMethyl text lines keyed by ``(chromosome rank, start)`` (the
  paper's METHCOMP sort input), under a Zipf genomic-locus law.

Asserted contract:

* **byte parity** — the vectorized partition emits the identical
  combined buffer, per-partition offsets and record counts as the
  scalar path, and the vectorized merge emits the identical sorted
  output: the kernels are a pure speedup, never a semantic change;
* **the fast path engages** — every workload here reports
  ``kernel == "vectorized"`` (an accidental fallback would silently
  re-slow every substrate);
* **>= 5x records/sec** on the partition and merge kernels of the
  fixed-width workloads, where key extraction is a strided slice and
  the record gather is one reshape — the shape the kernels were built
  for.  The BED text workload is gated at **>= 3x** (measured
  ~3.7-4.3x partition, ~4.7-5.3x merge): its records are gathered
  row by row off a sliding-window view of the buffer, one block per
  line length, and its keys decoded from a 20-byte window per line
  (``kernels.row_windows``) — no index is built per byte any more,
  which is what had held this row at ~2x.  What still separates it
  from the fixed-width rows is per-record, not per-byte: a row copy
  of ~50 bytes costs a dispatch a 16-byte ``take`` does not, the line
  layout is a newline scan, and the scalar baseline parses only two
  fields per line.  The sampling kernel is reported but not gated: its
  window decode is already a small fraction of a shuffle.

The harness-level wall-clock of this module also lands in
``results/bench_wallclock.json`` (see ``conftest.py``), which
``check_wallclock.py`` holds against the committed baseline in CI.
"""

import random
import time

import pytest

from repro.experiments import format_rows
from repro.methcomp.datagen import generate_skewed_bed_bytes
from repro.methcomp.pipeline import bed_record_codec
from repro.shuffle.kernels import (
    KERNEL_SCALAR,
    KERNEL_VECTORIZED,
    partition_buffer,
    sort_buffer,
    window_keys,
)
from repro.shuffle.records import FixedWidthCodec
from repro.shuffle.sampler import choose_weighted_boundaries, reservoir_sample
from repro.shuffle.skew import SkewSpec, skewed_fixed_payload

FIXED_RECORDS = 150_000
BED_BYTES = 3_000_000
PARTITIONS = 32
SAMPLE_CAPACITY = 4096
ROUNDS = 3
#: Per-shape floors on the gated stages: fixed-width records must hit
#: the headline 5x, variable-length text 3x (see the module docstring
#: for what the record-granular gather left of the gap).
SPEEDUP_FLOORS = {"fixed-16B": 5.0, "bed-line": 3.0}
GATED_STAGES = ("partition", "merge")


def _workloads():
    fixed = FixedWidthCodec(record_size=16, key_bytes=8)
    return [
        (
            "fixed-16B/uniform",
            fixed,
            skewed_fixed_payload(
                FIXED_RECORDS, SkewSpec(distribution="uniform"), seed=29
            ),
        ),
        (
            "fixed-16B/zipf",
            fixed,
            skewed_fixed_payload(
                FIXED_RECORDS, SkewSpec(distribution="zipf"), seed=29
            ),
        ),
        (
            "bed-line/zipf",
            bed_record_codec(),
            generate_skewed_bed_bytes(BED_BYTES, seed=29),
        ),
    ]


def _boundaries(codec, payload):
    keys = [codec.key(record) for record in codec.split(payload)]
    sample = reservoir_sample(keys, SAMPLE_CAPACITY, random.Random(7))
    return choose_weighted_boundaries(sample, PARTITIONS)


def _best(run):
    """Best-of-N: the outcome with the lowest kernel-side elapsed time."""
    best = None
    for _ in range(ROUNDS):
        outcome = run()
        if best is None or outcome.elapsed_s < best.elapsed_s:
            best = outcome
    return best


def _rps(records, elapsed_s):
    return records / max(elapsed_s, 1e-9)


@pytest.fixture(scope="module")
def kernel_rows():
    rows = []
    for workload, codec, payload in _workloads():
        boundaries = _boundaries(codec, payload)

        scalar = _best(
            lambda: partition_buffer(codec, payload, boundaries, force_scalar=True)
        )
        vector = _best(lambda: partition_buffer(codec, payload, boundaries))
        partition_parity = (
            bytes(vector.combined) == bytes(scalar.combined)
            and vector.offsets == scalar.offsets
            and vector.partition_records == scalar.partition_records
        )
        rows.append(
            {
                "workload": workload,
                "stage": "partition",
                "records": scalar.records,
                "scalar_kernel": scalar.kernel,
                "vector_kernel": vector.kernel,
                "scalar_rps": _rps(scalar.records, scalar.elapsed_s),
                "vector_rps": _rps(vector.records, vector.elapsed_s),
                "parity": partition_parity,
            }
        )

        scalar_sort = _best(lambda: sort_buffer(codec, payload, force_scalar=True))
        vector_sort = _best(lambda: sort_buffer(codec, payload))
        rows.append(
            {
                "workload": workload,
                "stage": "merge",
                "records": scalar_sort.records,
                "scalar_kernel": scalar_sort.kernel,
                "vector_kernel": vector_sort.kernel,
                "scalar_rps": _rps(scalar_sort.records, scalar_sort.elapsed_s),
                "vector_rps": _rps(vector_sort.records, vector_sort.elapsed_s),
                "parity": bytes(vector_sort.output) == bytes(scalar_sort.output),
            }
        )

        # Sampling kernel: reported, not gated — window decode is a
        # small slice of any real shuffle, and window_keys times the
        # whole call (list materialization included).
        def _window(force_scalar):
            start = time.perf_counter()
            keys, seen, kernel = window_keys(
                codec, payload, is_first=True, global_start=0,
                force_scalar=force_scalar,
            )
            return keys, seen, kernel, time.perf_counter() - start

        scalar_keys = vector_keys = None
        scalar_s = vector_s = float("inf")
        for _ in range(ROUNDS):
            keys, seen, kernel, elapsed = _window(True)
            if elapsed < scalar_s:
                scalar_keys, scalar_seen, scalar_win_kernel, scalar_s = (
                    keys, seen, kernel, elapsed,
                )
            keys, seen, kernel, elapsed = _window(False)
            if elapsed < vector_s:
                vector_keys, vector_seen, vector_win_kernel, vector_s = (
                    keys, seen, kernel, elapsed,
                )
        rows.append(
            {
                "workload": workload,
                "stage": "sample",
                "records": scalar_seen,
                "scalar_kernel": scalar_win_kernel,
                "vector_kernel": vector_win_kernel,
                "scalar_rps": _rps(scalar_seen, scalar_s),
                "vector_rps": _rps(vector_seen, vector_s),
                "parity": vector_keys == scalar_keys,
            }
        )
    return rows


def test_kernel_sweep(benchmark, record_result, kernel_rows):
    rows = benchmark.pedantic(lambda: kernel_rows, rounds=1, iterations=1)
    headers = ["workload", "stage", "records", "scalar_rps", "vector_rps", "speedup"]
    table = [
        [
            row["workload"],
            row["stage"],
            row["records"],
            row["scalar_rps"],
            row["vector_rps"],
            row["vector_rps"] / row["scalar_rps"],
        ]
        for row in rows
    ]
    record_result(
        "s14_kernels",
        format_rows(
            headers,
            table,
            title="S14: scalar vs vectorized record kernels "
            f"(best of {ROUNDS}, {PARTITIONS} partitions, "
            f"{FIXED_RECORDS} fixed records / {BED_BYTES // 1_000_000} MB BED)",
        ),
    )

    for row in rows:
        # Byte parity everywhere: the fast path may never change bytes.
        assert row["parity"], f"{row['workload']}/{row['stage']} lost byte parity"
        # The fast path must actually engage on these codecs.
        assert row["scalar_kernel"] == KERNEL_SCALAR
        assert row["vector_kernel"] == KERNEL_VECTORIZED, (
            f"{row['workload']}/{row['stage']} fell back to the scalar kernel"
        )


def test_partition_and_merge_speedup(kernel_rows):
    for row in kernel_rows:
        if row["stage"] not in GATED_STAGES:
            continue
        floor = SPEEDUP_FLOORS[row["workload"].split("/")[0]]
        speedup = row["vector_rps"] / row["scalar_rps"]
        assert speedup >= floor, (
            f"{row['workload']}/{row['stage']}: vectorized kernel is only "
            f"{speedup:.1f}x scalar (floor {floor:g}x)"
        )
