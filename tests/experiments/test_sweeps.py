"""Tests for the sweep regenerators (small configurations).

The benchmarks run the full-size sweeps; these tests exercise the same
code paths at tiny scale so failures localize quickly.
"""

import pytest

from repro.core import ExperimentConfig
from repro.experiments import (
    format_rows,
    format_table,
    render_figure1,
    sweep_codec,
    sweep_io_ablation,
    sweep_memory,
    sweep_size,
    sweep_storage_ops,
    sweep_workers,
)

TINY = ExperimentConfig(size_gb=0.5, logical_scale=4096.0)


class TestSweepWorkers:
    def test_rows_cover_requested_counts(self):
        rows = sweep_workers(TINY, worker_counts=(2, 4))
        assert [row["workers"] for row in rows] == [2, 4]
        assert all(row["sort_latency_s"] > 0 for row in rows)

    def test_fewer_workers_slower_at_small_counts(self):
        rows = sweep_workers(TINY, worker_counts=(2, 8))
        latency = {row["workers"]: row["sort_latency_s"] for row in rows}
        assert latency[2] > latency[8]


class TestSweepSize:
    def test_latency_grows_with_size(self):
        rows = sweep_size(TINY, sizes_gb=(0.25, 1.0))
        assert rows[1]["serverless_latency_s"] > rows[0]["serverless_latency_s"]
        assert rows[1]["vm_latency_s"] > rows[0]["vm_latency_s"]

    def test_speedup_positive(self):
        rows = sweep_size(TINY, sizes_gb=(0.5,))
        assert rows[0]["speedup"] > 1.0


class TestSweepStorage:
    def test_throttled_store_slower(self):
        rows = sweep_storage_ops(TINY, ops_rates=(10, 5000), workers=8)
        latency = {row["ops_per_second"]: row["sort_latency_s"] for row in rows}
        assert latency[10] > latency[5000]

    def test_request_counts_reported(self):
        rows = sweep_storage_ops(TINY, ops_rates=(5000,), workers=4)
        assert rows[0]["requests"] > 4 * 4


class TestSweepIoAblation:
    def test_naive_issues_more_puts(self):
        rows = sweep_io_ablation(TINY, worker_counts=(4,))
        by_mode = {row["write_combining"]: row for row in rows}
        assert by_mode[False]["storage_puts"] > by_mode[True]["storage_puts"]


class TestSweepCodec:
    def test_ratios_reported(self):
        rows = sweep_codec(record_counts=(5_000,))
        assert rows[0]["methcomp_ratio"] > rows[0]["gzip_ratio"] > 1.0


class TestSweepMemory:
    def test_small_memory_slower(self):
        rows = sweep_memory(TINY, memory_sizes=(512, 2048))
        latency = {row["memory_mb"]: row["latency_s"] for row in rows}
        assert latency[512] > latency[2048]


class TestFigure1:
    def test_contains_both_variants(self):
        art = render_figure1(TINY)
        assert "(A) VM-supported (hybrid)" in art
        assert "(B) Purely serverless" in art

    def test_substrate_annotations(self):
        art = render_figure1(TINY)
        assert "virtual machine" in art
        assert "cloud functions" in art


class TestFormatRows:
    def test_basic_table(self):
        out = format_rows(["a", "bb"], [[1, 2.5], [10, 0.125]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.5" in out and "0.125" in out

    def test_empty_rows(self):
        out = format_rows(["col"], [])
        assert "col" in out

    def test_table_from_dict_rows_drops_private_columns(self):
        """Regression: bench_exchange used to write sweep_exchange's
        private ``_report`` column (a rendered multi-line report, host
        timings included) into the S8 results file."""
        rows = [
            {"workers": 4, "latency_s": 1.5, "_report": "x\n" * 40},
            {"workers": 8, "latency_s": 0.75, "_report": "y\n" * 40},
        ]
        out = format_table(rows, title="T")
        assert out == format_rows(
            ["workers", "latency_s"], [[4, 1.5], [8, 0.75]], title="T"
        )
        assert "_report" not in out
