"""Tests for the naive (non-write-combined) shuffle mode."""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.executor import FunctionExecutor
from repro.shuffle import FixedWidthCodec, ShuffleCostModel, ShuffleSort
from tests.payloads import fixed_payload


def run_sort(write_combining, workers=4, count=3000):
    cloud = Cloud.fresh(seed=29, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    cost = ShuffleCostModel(write_combining=write_combining)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    operator = ShuffleSort(executor, codec, cost=cost)
    payload = fixed_payload(count, 3)

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=workers))

    result = cloud.sim.run_process(driver())
    merged = b"".join(cloud.store.peek("data", run.key) for run in result.runs)
    return cloud, result, codec, merged


class TestNaiveCorrectness:
    def test_output_identical_to_combined_mode(self):
        _, _, codec, merged_combined = run_sort(write_combining=True)
        _, _, _, merged_naive = run_sort(write_combining=False)
        assert merged_combined == merged_naive

    def test_naive_output_sorted(self):
        _, result, codec, merged = run_sort(write_combining=False)
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert result.total_records == 3000

    def test_single_worker_naive(self):
        _, result, codec, merged = run_sort(write_combining=False, workers=1)
        assert result.total_records == 3000


class TestRequestCounts:
    def test_naive_mode_issues_quadratic_puts(self):
        workers = 4
        cloud_combined, _, _, _ = run_sort(write_combining=True, workers=workers)
        cloud_naive, _, _, _ = run_sort(write_combining=False, workers=workers)
        extra_puts = cloud_naive.store.stats.puts - cloud_combined.store.stats.puts
        # W mappers x W partitions instead of W combined objects.
        assert extra_puts == workers * workers - workers

    def test_naive_mode_is_not_faster(self):
        _, combined, _, _ = run_sort(write_combining=True)
        _, naive, _, _ = run_sort(write_combining=False)
        assert naive.duration_s >= combined.duration_s * 0.98
