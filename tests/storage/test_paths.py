"""Tests for the object-storage key layout of executor and shuffle state."""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.executor import FunctionExecutor
from repro.storage import paths
from tests.stored import stored_keys


def double(x):
    return 2 * x


class TestCallKeys:
    def test_job_prefix_nests_executor_then_job(self):
        assert paths.job_prefix("exec-0", "J001") == "jobs/exec-0/J001"

    def test_every_call_key_lives_under_its_job_prefix(self):
        prefix = paths.job_prefix("exec-0", "J001") + "/"
        for make_key in (
            paths.call_input_key,
            paths.call_output_key,
            paths.call_status_key,
        ):
            assert make_key("exec-0", "J001", 3).startswith(prefix)

    def test_input_output_and_status_of_one_call_are_distinct(self):
        keys = {
            paths.call_input_key("exec-0", "J001", 3),
            paths.call_output_key("exec-0", "J001", 3),
            paths.call_status_key("exec-0", "J001", 3),
        }
        assert len(keys) == 3

    @pytest.mark.parametrize(
        "call_id, segment", [(0, "00000"), (7, "00007"), (12345, "12345")]
    )
    def test_call_ids_are_zero_padded_to_five_digits(self, call_id, segment):
        key = paths.call_input_key("exec-0", "J001", call_id)
        assert key == f"jobs/exec-0/J001/{segment}/input.pickle"

    def test_listing_order_is_call_order(self):
        call_ids = [0, 1, 2, 9, 10, 11, 99, 100, 1000, 99999]
        keys = [paths.call_output_key("exec-0", "J001", i) for i in call_ids]
        assert sorted(keys) == keys

    def test_jobs_never_share_a_key(self):
        first = paths.call_input_key("exec-0", "J001", 0)
        assert first != paths.call_input_key("exec-0", "J002", 0)
        assert first != paths.call_input_key("exec-1", "J001", 0)


class TestShuffleKeys:
    def test_map_outputs_are_one_combined_object_per_mapper(self):
        keys = [paths.shuffle_map_output_key("sort", m) for m in range(12)]
        assert keys[3] == "sort/shuffle/m00003/combined.bin"
        assert len(set(keys)) == 12
        assert sorted(keys) == keys

    def test_reducer_runs_sort_in_partition_order(self):
        keys = [paths.shuffle_output_key("sort", r) for r in range(12)]
        assert keys[11] == "sort/sorted/r00011.bin"
        assert sorted(keys) == keys

    def test_map_and_reduce_outputs_do_not_overlap(self):
        assert not paths.shuffle_output_key("sort", 0).startswith("sort/shuffle/")
        assert not paths.shuffle_map_output_key("sort", 0).startswith("sort/sorted/")


class TestExecutorUsesTheLayout:
    def test_a_map_job_writes_exactly_the_layout_keys(self):
        cloud = Cloud.fresh(seed=3, profile=ibm_us_east(deterministic=True))
        executor = FunctionExecutor(cloud)

        def driver():
            futures = yield executor.map(double, [1, 2, 3])
            yield executor.get_result(futures)
            job_id = futures[0].job_id
            return job_id

        job_id = cloud.sim.run_process(driver())
        keys = stored_keys(
            cloud.store, executor.bucket, paths.job_prefix(executor.executor_id, job_id)
        )
        expected = {
            f"{paths.job_prefix(executor.executor_id, job_id)}/function.pickle"
        }
        for call_id in range(3):
            for make_key in (
                paths.call_input_key,
                paths.call_output_key,
                paths.call_status_key,
            ):
                expected.add(make_key(executor.executor_id, job_id, call_id))
        assert set(keys) == expected
