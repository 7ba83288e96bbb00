"""Integration tests: the full shuffle/sort on the simulated cloud."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud import Cloud, MB
from repro.cloud.profiles import ibm_us_east
from repro.errors import ShuffleError
from repro.executor import FunctionExecutor
from repro.shuffle import (
    FixedWidthCodec,
    LineRecordCodec,
    ShuffleCostModel,
    ShuffleSort,
)
from repro.shuffle.operator import (
    PEEK_BYTES,
    SAMPLE_KEYS,
    SAMPLE_STRIDES,
    _sample_window_bytes,
    _split,
)
from tests.payloads import fixed_payload


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=23, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    return cloud


@pytest.fixture
def executor(cloud):
    return FunctionExecutor(cloud)


def sort_and_collect(cloud, executor, codec, payload, **kwargs):
    op = ShuffleSort(executor, codec)

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield op.sort("data", "input.bin", **kwargs))

    result = cloud.sim.run_process(driver())
    merged = b"".join(cloud.store.peek("data", run.key) for run in result.runs)
    return result, merged


class TestWorkerTasks:
    """The task dicts the sampler and map waves ship: pickled and
    billed, so their keys and values are part of the model."""

    def test_sampler_and_mapper_tasks_carry_the_constants(self, cloud, executor):
        shipped = {}
        original = executor.map

        def recording_map(func, tasks, **kwargs):
            shipped.setdefault(func.__name__, list(tasks))
            return original(func, tasks, **kwargs)

        executor.map = recording_map
        payload = fixed_payload(4000)
        sort_and_collect(
            cloud, executor, FixedWidthCodec(record_size=16, key_bytes=8),
            payload, workers=4,
        )
        sampler = shipped["shuffle_sampler"][0]
        assert list(sampler) == [
            "bucket", "key", "start", "end", "object_size", "sample_bytes",
            "sample_keys", "sample_strides", "codec", "sampler_id",
        ]
        samplers = len(shipped["shuffle_sampler"])
        assert sampler["sample_bytes"] == _sample_window_bytes(len(payload), samplers)
        assert (sampler["sample_keys"], sampler["sample_strides"]) == (
            SAMPLE_KEYS, SAMPLE_STRIDES,
        ) == (512, 4)
        mappers = shipped["shuffle_mapper"]
        assert len(mappers) == 4
        assert {task["peek_bytes"] for task in mappers} == {PEEK_BYTES} == {65536}


class TestInputSplit:
    """The byte ranges the sort's mappers read its input in."""

    def test_even_split(self):
        assert _split(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_uneven_split_spreads_remainder(self):
        assert _split(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_bytes_leaves_trailing_ranges_empty(self):
        assert _split(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]

    @given(size=st.integers(0, 10_000), parts=st.integers(1, 64))
    def test_property_covers_exactly_once(self, size, parts):
        ranges = _split(size, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0
        assert ranges[-1][1] == size
        for left, right in zip(ranges, ranges[1:]):
            assert left[1] == right[0]

    @given(size=st.integers(0, 10_000), parts=st.integers(1, 64))
    def test_property_sizes_differ_by_at_most_one(self, size, parts):
        sizes = [end - start for start, end in _split(size, parts)]
        assert max(sizes) - min(sizes) <= 1


class TestFixedWidthSort:
    def test_output_globally_sorted(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(5000)
        result, merged = sort_and_collect(cloud, executor, codec, payload, workers=4)
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert result.total_records == 5000

    def test_no_bytes_lost(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(3000)
        result, merged = sort_and_collect(cloud, executor, codec, payload, workers=3)
        assert len(merged) == len(payload)
        assert sorted(codec.split(merged)) == sorted(codec.split(payload))

    def test_single_worker_degenerate_case(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(500)
        result, merged = sort_and_collect(cloud, executor, codec, payload, workers=1)
        assert result.workers == 1
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)

    def test_more_workers_than_distinct_keys(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = b"".join(
            (index % 3).to_bytes(8, "big") + bytes(8) for index in range(300)
        )
        result, merged = sort_and_collect(cloud, executor, codec, payload, workers=8)
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert result.total_records == 300

    def test_duplicate_keys_preserved(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = b"".join(
            (7).to_bytes(8, "big") + index.to_bytes(8, "big") for index in range(100)
        )
        result, merged = sort_and_collect(cloud, executor, codec, payload, workers=4)
        assert result.total_records == 100
        assert len(merged) == len(payload)


class TestLineSort:
    def test_text_records_sorted_by_key(self, cloud, executor):
        codec = LineRecordCodec(key_fn=lambda record: record)
        rng = random.Random(11)
        lines = [
            ("%08d-payload" % rng.randrange(10**8)).encode() for _ in range(2000)
        ]
        payload = b"".join(line + b"\n" for line in lines)
        result, merged = sort_and_collect(cloud, executor, codec, payload, workers=4)
        out_lines = merged.split(b"\n")[:-1]
        assert out_lines == sorted(lines)
        assert result.total_records == 2000

    def test_variable_length_records(self, cloud, executor):
        codec = LineRecordCodec(key_fn=lambda record: record)
        rng = random.Random(13)
        lines = [
            bytes([rng.randrange(97, 123)]) * rng.randrange(1, 40)
            for _ in range(1500)
        ]
        payload = b"".join(line + b"\n" for line in lines)
        result, merged = sort_and_collect(cloud, executor, codec, payload, workers=5)
        assert merged.split(b"\n")[:-1] == sorted(lines)


class TestPlannerIntegration:
    def test_auto_worker_selection_used(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(2000)
        result, merged = sort_and_collect(
            cloud, executor, codec, payload, max_workers=16
        )
        assert result.planned is not None
        assert result.workers == result.planned.workers
        assert 1 <= result.workers <= 16
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)

    def test_pinned_workers_bypass_planner(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(1000)
        result, _merged = sort_and_collect(cloud, executor, codec, payload, workers=6)
        assert result.planned is None
        assert result.workers == 6

    def test_empty_object_rejected(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        op = ShuffleSort(executor, codec)

        def driver():
            yield cloud.store.put("data", "empty.bin", b"")
            yield op.sort("data", "empty.bin", workers=2)

        with pytest.raises(ShuffleError):
            cloud.sim.run_process(driver())


class TestWriteCombiningTraffic:
    def test_map_phase_writes_one_object_per_mapper(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(2000)
        workers = 4
        before = cloud.store.stats.puts
        sort_and_collect(cloud, executor, codec, payload, workers=workers)
        shuffle_objects = [
            key
            for key in cloud.sim.run_process(
                iter_keys(cloud, "data", "shuffle-out/shuffle/")
            )
        ]
        # Write-combining: W combined map outputs, not W*W partitions.
        assert len(shuffle_objects) == workers

    def test_reducers_use_range_reads(self, cloud, executor):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(2000)
        sort_and_collect(cloud, executor, codec, payload, workers=4)
        # 4 reducers x 4 mappers = 16 range GETs at least must have happened.
        assert cloud.store.stats.gets >= 16


def iter_keys(cloud, bucket, prefix):
    keys = yield cloud.store.list_keys(bucket, prefix)
    return keys


class TestDeterminism:
    def test_same_seed_same_timings(self):
        def run_once():
            cloud = Cloud.fresh(seed=99, profile=ibm_us_east())
            cloud.store.ensure_bucket("data")
            executor = FunctionExecutor(cloud)
            codec = FixedWidthCodec(record_size=16, key_bytes=8)
            payload = fixed_payload(1500)
            op = ShuffleSort(executor, codec)

            def driver():
                yield cloud.store.put("data", "input.bin", payload)
                return (yield op.sort("data", "input.bin", workers=4))

            result = cloud.sim.run_process(driver())
            return result.duration_s, cloud.meter.total_usd

        first = run_once()
        second = run_once()
        assert first == second

    def test_different_seeds_differ_in_timing(self):
        def run_once(seed):
            cloud = Cloud.fresh(seed=seed, profile=ibm_us_east())
            cloud.store.ensure_bucket("data")
            executor = FunctionExecutor(cloud)
            codec = FixedWidthCodec(record_size=16, key_bytes=8)
            payload = fixed_payload(800)
            op = ShuffleSort(executor, codec)

            def driver():
                yield cloud.store.put("data", "input.bin", payload)
                return (yield op.sort("data", "input.bin", workers=2))

            return cloud.sim.run_process(driver()).duration_s

        assert run_once(1) != run_once(2)
