"""Tests for the cache-mediated shuffle: operator, planner, workers."""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.errors import ShuffleError
from repro.executor import FunctionExecutor
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    ShuffleCostModel,
    ShuffleSort,
    exchange_terms,
    kv_partition_key,
    predict_shuffle_time,
    required_cache_nodes,
)
from tests.payloads import fixed_payload


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=31, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    return cloud


@pytest.fixture
def executor(cloud):
    return FunctionExecutor(cloud)


@pytest.fixture
def cluster(cloud):
    return cloud.cache.provision_ready("cache.r5.large", nodes=2)


def sort_and_collect(cloud, executor, cluster, codec, payload, **kwargs):
    op = ShuffleSort(executor, codec, backend=CacheExchange(cluster))

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield op.sort("data", "input.bin", **kwargs))

    result = cloud.sim.run_process(driver())
    merged = b"".join(cloud.store.peek("data", run.key) for run in result.runs)
    return op, result, merged


class TestCacheSort:
    def test_output_globally_sorted(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(5000)
        _op, result, merged = sort_and_collect(
            cloud, executor, cluster, codec, payload, workers=4
        )
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert result.total_records == 5000

    def test_no_bytes_lost(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(3000)
        _op, _result, merged = sort_and_collect(
            cloud, executor, cluster, codec, payload, workers=3
        )
        assert len(merged) == len(payload)
        assert sorted(codec.split(merged)) == sorted(codec.split(payload))

    def test_single_worker_degenerate_case(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(400)
        _op, result, merged = sort_and_collect(
            cloud, executor, cluster, codec, payload, workers=1
        )
        assert result.workers == 1
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)

    def test_report_counts_cache_traffic(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(2000)
        op, result, _merged = sort_and_collect(
            cloud, executor, cluster, codec, payload, workers=4
        )
        # W mappers x W partitions each, then W reducers reading W each.
        assert op.report.cache_sets == 16
        assert op.report.cache_gets == 16
        assert op.report.nodes == 2
        assert 0 < op.report.peak_fill_fraction < 1

    def test_intermediates_stay_in_cache_not_cos(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(2000)
        sort_and_collect(cloud, executor, cluster, codec, payload, workers=4)
        # No combined/partition shuffle objects must exist in COS — only
        # the executor's job state, the input and the sorted runs.
        def listing():
            return (yield cloud.store.list_keys("data", ""))

        keys = cloud.sim.run_process(listing())
        assert not [key for key in keys if "/shuffle/" in key]
        assert [key for key in keys if "/sorted/" in key]

    def test_cleanup_deletes_partitions(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(1000)
        cost = ShuffleCostModel(cleanup=True)
        op = ShuffleSort(executor, codec, backend=CacheExchange(cluster, cost))

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield op.sort("data", "input.bin", workers=3))

        cloud.sim.run_process(driver())
        assert cluster.key_count == 0

    def test_without_cleanup_partitions_remain(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(1000)
        sort_and_collect(cloud, executor, cluster, codec, payload, workers=3)
        assert cluster.key_count == 9

    def test_empty_object_rejected(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        op = ShuffleSort(executor, codec, backend=CacheExchange(cluster))

        def driver():
            yield cloud.store.put("data", "empty.bin", b"")
            return (yield op.sort("data", "empty.bin", workers=2))

        with pytest.raises(ShuffleError, match="empty"):
            cloud.sim.run_process(driver())

    def test_data_exceeding_cluster_capacity_rejected(self, executor):
        profile = ibm_us_east(logical_scale=1e9, deterministic=True)
        cloud = Cloud.fresh(seed=31, profile=profile)
        cloud.store.ensure_bucket("data")
        executor = FunctionExecutor(cloud)
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=1)
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        op = ShuffleSort(executor, codec, backend=CacheExchange(cluster))
        payload = fixed_payload(2000)  # 32 KB real = 32 TB logical

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield op.sort("data", "input.bin", workers=2))

        with pytest.raises(ShuffleError, match="capacity"):
            cloud.sim.run_process(driver())

    def test_terminated_cluster_rejected(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        cluster.terminate()
        op = ShuffleSort(executor, codec, backend=CacheExchange(cluster))
        payload = fixed_payload(100)

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield op.sort("data", "input.bin", workers=2))

        from repro.cloud.memstore import ClusterNotRunning

        with pytest.raises(ClusterNotRunning):
            cloud.sim.run_process(driver())

    def test_reused_cluster_reports_per_sort_deltas(self, cloud, executor, cluster):
        """A caller-owned cluster may serve several sorts; each report
        must cover only its own sort, not cluster-lifetime totals."""
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(1000)
        op = ShuffleSort(executor, codec, backend=CacheExchange(cluster))

        def run_once(key, prefix):
            def driver():
                yield cloud.store.put("data", key, payload)
                return (yield op.sort("data", key, out_prefix=prefix, workers=3))

            cloud.sim.run_process(driver())
            return op.report

        first = run_once("in1.bin", "sort1")
        second = run_once("in2.bin", "sort2")
        assert first.cache_sets == 9  # 3 mappers x 3 partitions, per sort
        assert second.cache_sets == 9
        assert second.cache_gets == 9

    def test_planner_used_when_workers_not_pinned(self, cloud, executor, cluster):
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = fixed_payload(2000)
        _op, result, merged = sort_and_collect(
            cloud, executor, cluster, codec, payload, max_workers=16
        )
        assert result.planned is not None
        assert result.workers == result.planned.workers
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)


def predict_cache(size, workers, nodes):
    """The one model over a ``nodes``-node cache cluster's term row."""
    profile = ibm_us_east()
    cost = ShuffleCostModel()
    terms = exchange_terms("cache", profile, cost, "cache.r5.large", nodes)
    return predict_shuffle_time(size, workers, profile, cost, terms=terms)


class TestCachePlanner:
    def test_predict_rejects_bad_inputs(self):
        with pytest.raises(ShuffleError, match="workers"):
            predict_cache(1e9, 0, 1)
        with pytest.raises(ShuffleError, match="nodes"):
            predict_cache(1e9, 4, 0)

    def test_terms_reject_unknown_node_type(self):
        with pytest.raises(ShuffleError, match="unknown cache node type"):
            exchange_terms("cache", ibm_us_east(), None, "cache.r9.mega", 1)

    def test_breakdown_sums_to_total(self):
        point = predict_cache(3.5e9, 16, 2)
        assert point.total_s == pytest.approx(sum(point.breakdown.values()))

    def test_cache_flatter_than_cos_at_high_worker_counts(self):
        """The substrate difference the model must capture: the cache's
        W² request floor is ~30x lower than object storage's."""
        profile = ibm_us_east()
        size = 3.5e9
        cos_lo = predict_shuffle_time(size, 16, profile, ShuffleCostModel())
        cos_hi = predict_shuffle_time(size, 128, profile, ShuffleCostModel())
        cache_lo = predict_cache(size, 16, 2)
        cache_hi = predict_cache(size, 128, 2)
        cos_penalty = cos_hi.total_s / cos_lo.total_s
        cache_penalty = cache_hi.total_s / cache_lo.total_s
        assert cache_penalty < cos_penalty

    def test_more_nodes_raise_ops_floor_capacity(self):
        one = predict_cache(3.5e9, 256, 1)
        four = predict_cache(3.5e9, 256, 4)
        assert four.total_s <= one.total_s

    def test_required_cache_nodes_scales_with_data(self):
        profile = ibm_us_east()
        small = required_cache_nodes(1e9, profile, "cache.r5.large")
        large = required_cache_nodes(50e9, profile, "cache.r5.large")
        assert small == 1
        assert large > small
        # Capacity actually suffices, headroom included.
        node = profile.memstore.catalog["cache.r5.large"]
        usable = node.memory_gb * (1 << 30) * profile.memstore.usable_memory_fraction
        assert large * usable >= 50e9

    def test_required_cache_nodes_validates(self):
        profile = ibm_us_east()
        with pytest.raises(ShuffleError):
            required_cache_nodes(0, profile, "cache.r5.large")
        with pytest.raises(ShuffleError):
            required_cache_nodes(1e9, profile, "cache.r9.mega")


class TestPartitionKeys:
    def test_key_layout_is_unique_and_prefixed(self):
        keys = {
            kv_partition_key("sort", m, r)
            for m in range(8)
            for r in range(8)
        }
        assert len(keys) == 64
        assert all(key.startswith("sort/") for key in keys)
