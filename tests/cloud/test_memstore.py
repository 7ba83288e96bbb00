"""Unit tests for the simulated in-memory key-value store (cache) service."""

import pytest

from repro.cloud import Cloud, MB
from repro.cloud.memstore import (
    CacheKeyMissing,
    CacheOutOfMemory,
    ClusterAlreadyTerminated,
    ClusterNotRunning,
    UnknownCacheNodeType,
    UnknownCluster,
)
from repro.cloud.profiles import ibm_us_east


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))


def run(cloud, generator):
    return cloud.sim.run_process(generator)


class TestProvisioning:
    def test_provision_takes_cluster_creation_time(self, cloud):
        def scenario():
            cluster = yield cloud.cache.provision("cache.r5.large")
            return cluster, cloud.sim.now

        cluster, ready_time = run(cloud, scenario())
        assert cluster.state == "running"
        assert ready_time == pytest.approx(cloud.profile.memstore.provision.mean)

    def test_provision_ready_skips_creation_time(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=3)
        assert cluster.state == "running"
        assert cloud.sim.now == 0.0
        assert len(cluster.nodes) == 3

    def test_unknown_node_type_rejected(self, cloud):
        with pytest.raises(UnknownCacheNodeType):
            cloud.cache.provision("cache.r9.mega")

    def test_zero_nodes_rejected(self, cloud):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            cloud.cache.provision("cache.r5.large", nodes=0)

    def test_requests_before_ready_rejected(self, cloud):
        boot = cloud.cache.provision("cache.r5.large")
        cluster = next(iter(cloud.cache.clusters.values()))
        client = cluster.client()

        def scenario():
            yield client.set("k", b"v")

        with pytest.raises(ClusterNotRunning):
            run(cloud, scenario())
        cloud.sim.run(until=boot)  # cleanup: let the boot finish

    def test_cluster_lookup_by_id(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        assert cloud.cache.cluster(cluster.cluster_id) is cluster

    def test_unknown_cluster_id_rejected(self, cloud):
        with pytest.raises(UnknownCluster):
            cloud.cache.cluster("cache-999")


class TestSingleKeyOps:
    def test_set_get_roundtrip(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.set("key", b"payload")
            return (yield client.mget(["key"]))[0]

        assert run(cloud, scenario()) == b"payload"

    def test_get_missing_key_fails(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.mget(["nope"])

        with pytest.raises(CacheKeyMissing):
            run(cloud, scenario())

    def test_set_replaces_value(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.set("key", b"one")
            yield client.set("key", b"two-longer")
            return (yield client.mget(["key"]))[0]

        assert run(cloud, scenario()) == b"two-longer"
        assert cluster.key_count == 1

    def test_delete_returns_existence(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.set("key", b"v")
            first = yield client.delete("key")
            second = yield client.delete("key")
            return first, second

        assert run(cloud, scenario()) == (True, False)

    def test_request_latency_is_submillisecond(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.set("key", b"")
            return cloud.sim.now

        elapsed = run(cloud, scenario())
        assert elapsed == pytest.approx(cloud.profile.memstore.write_latency.mean)
        assert elapsed < 0.01

    def test_logical_scale_applies_to_capacity(self):
        profile = ibm_us_east(logical_scale=1000.0, deterministic=True)
        cloud = Cloud.fresh(seed=5, profile=profile)
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.set("key", b"x" * 100)

        run(cloud, scenario())
        assert cluster.used_logical == pytest.approx(100 * 1000.0)


class TestBatchedOps:
    def test_mset_mget_roundtrip_in_input_order(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=3)
        client = cluster.client()
        items = [(f"k{i}", bytes([i]) * (i + 1)) for i in range(20)]

        def scenario():
            yield client.mset(items)
            return (yield client.mget([key for key, _ in reversed(items)]))

        values = run(cloud, scenario())
        assert values == [data for _, data in reversed(items)]

    def test_empty_batches_are_noops(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.mset([])
            return (yield client.mget([]))

        assert run(cloud, scenario()) == []
        assert cloud.sim.now == 0.0

    def test_mget_missing_key_names_it(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.mset([("a", b"1")])
            yield client.mget(["a", "ghost"])

        with pytest.raises(CacheKeyMissing, match="ghost"):
            run(cloud, scenario())

    def test_failed_mget_counts_nothing_as_served(self, cloud):
        """Every key is looked up before the transfer: a batch that fails
        on its second key neither sends nor counts the first."""
        cluster = cloud.cache.provision_ready("cache.r5.large")
        [node] = cluster.nodes
        client = cluster.client()

        def scenario():
            yield client.set("present", b"p", logical_size=100.0)
            yield client.mget(["present", "missing"])

        with pytest.raises(CacheKeyMissing, match="missing"):
            run(cloud, scenario())
        assert (node.stats.gets, node.stats.bytes_out, node.stats.misses) == (0, 0.0, 1)
        assert node.link.bytes_delivered == pytest.approx(100.0)  # the set only

    def test_batch_pays_one_latency_per_node_not_per_key(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=1)
        client = cluster.client()
        items = [(f"k{i}", b"") for i in range(50)]

        def scenario():
            yield client.mset(items)
            return cloud.sim.now

        elapsed = run(cloud, scenario())
        # One node batch: a single write latency, not 50.
        assert elapsed == pytest.approx(cloud.profile.memstore.write_latency.mean)

    def test_batch_consumes_one_token_per_key(self):
        # With a 10 ops/s node, a 40-key batch must wait ~3 s for rate-limit
        # tokens: batching amortizes latency but not the request rate.
        profile = ibm_us_east(deterministic=True)
        profile.memstore.ops_per_node = 10.0
        profile.memstore.ops_burst = 10.0
        cloud = Cloud.fresh(seed=5, profile=profile)
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=1)
        client = cluster.client()
        items = [(f"k{i}", b"") for i in range(40)]

        def scenario():
            yield client.mset(items)
            return cloud.sim.now

        elapsed = cloud.sim.run_process(scenario())
        assert elapsed == pytest.approx(
            3.0 + cloud.profile.memstore.write_latency.mean, rel=0.01
        )

    def test_mismatched_logical_sizes_rejected(self, cloud):
        from repro.errors import SimulationError

        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()

        def scenario():
            yield client.mset([("a", b"1"), ("b", b"2")], logical_sizes=[1.0])

        with pytest.raises(SimulationError):
            run(cloud, scenario())


class TestSharding:
    def test_keys_spread_across_nodes(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=4)
        client = cluster.client()
        items = [(f"key-{i}", b"x") for i in range(200)]

        def scenario():
            yield client.mset(items)

        run(cloud, scenario())
        counts = [node.key_count for node in cluster.nodes]
        assert sum(counts) == 200
        assert all(count > 0 for count in counts)

    def test_placement_is_stable(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=5)
        first = cluster.node_for("some-key")
        assert all(cluster.node_for("some-key") is first for _ in range(10))

    def test_multi_node_fan_out_is_pinned(self):
        """Oracle of the cache's batch fan-out over three nodes.

        Node groups are issued in first-appearance order (each draws its
        request latency in that order, from one jittered stream) and
        split the caller's NIC equally, capped per connection.  Node 0
        carries the most bytes, node 1 more keys than the ops burst, so
        the MSET time pins the order and the split, the MGET time and
        node 1's bucket pin the chunked token waits.
        """
        profile = ibm_us_east()
        profile.memstore.ops_per_node = 10.0
        profile.memstore.ops_burst = 4.0
        cloud = Cloud.fresh(seed=5, profile=profile)
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=3)
        client = cluster.client(connection_bandwidth=profile.faas.instance_bandwidth)
        sizes = {  # key -> logical MB; node 2, 0, 1 in first appearance
            "k3": 0.5, "k0": 2.5, "k1": 0.2, "k4": 0.5, "k2": 2.5,
            "k5": 0.2, "k7": 0.2, "k9": 0.5, "k18": 0.2, "k20": 0.2,
        }
        assert [cluster.nodes.index(cluster.node_for(key)) for key in sizes] == [
            2, 0, 1, 2, 0, 1, 1, 2, 1, 1,
        ]
        items = [(key, key.encode() * 8) for key in sizes]
        reads = ["k1", "k0", "k3", "k2", "k4", "k5", "k7", "k9", "k18", "k20"]
        times = []

        def scenario():
            yield client.mset(items, logical_sizes=[mb * MB for mb in sizes.values()])
            times.append(cloud.sim.now)
            values = yield client.mget(reads)
            times.append(cloud.sim.now)
            return values

        assert run(cloud, scenario()) == [dict(items)[key] for key in reads]
        assert [repr(time) for time in times] == [
            "0.17706990629785632", "0.6361438687915989",
        ]
        assert [
            (node.stats.bytes_in, node.stats.bytes_out, node.stats.sets, node.stats.gets)
            for node in cluster.nodes
        ] == [
            (2.5 * 2 * MB, 2.5 * 2 * MB, 2, 2),
            (1.0 * MB, 1.0 * MB, 5, 5),
            (1.5 * MB, 1.5 * MB, 3, 3),
        ]
        assert [repr(node.ops.tokens) for node in cluster.nodes] == [
            "4.0", "0.361438687915989", "4.0",
        ]


class TestMemoryPressure:
    def _small_cluster(self):
        profile = ibm_us_east(deterministic=True)
        # Shrink a node to ~1 KB usable so tests fill it instantly.
        profile.memstore.usable_memory_fraction = 1.0
        profile.memstore.catalog = {
            "tiny": type(next(iter(profile.memstore.catalog.values())))(
                name="tiny",
                memory_gb=1024 / (1 << 30),
                nic_bandwidth=100 * MB,
                hourly_usd=0.1,
            )
        }
        cloud = Cloud.fresh(seed=5, profile=profile)
        return cloud, cloud.cache.provision_ready("tiny")

    def test_noeviction_fails_when_full(self):
        cloud, cluster = self._small_cluster()
        client = cluster.client()

        def scenario():
            yield client.set("a", b"x" * 600)
            yield client.set("b", b"y" * 600)

        with pytest.raises(CacheOutOfMemory):
            cloud.sim.run_process(scenario())
        assert cluster.stats_totals()["oom_errors"] == 1

    def test_value_larger_than_node_always_fails(self):
        cloud, cluster = self._small_cluster()
        client = cluster.client()

        def scenario():
            yield client.set("a", b"x" * 2048)

        with pytest.raises(CacheOutOfMemory):
            cloud.sim.run_process(scenario())

    def test_refused_write_keeps_previous_value(self):
        cloud, cluster = self._small_cluster()
        client = cluster.client()

        def scenario():
            yield client.set("a", b"x" * 600)
            try:
                yield client.set("a", b"y" * 600 + b"z" * 600)
            except CacheOutOfMemory:
                pass
            return (yield client.mget(["a"]))[0]

        assert cloud.sim.run_process(scenario()) == b"x" * 600


class TestBillingAndLifecycle:
    def test_node_seconds_billed_on_terminate(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)

        def scenario():
            yield cloud.sim.timeout(100.0)
            cluster.terminate()

        run(cloud, scenario())
        lines = cloud.meter.filtered(service="memstore")
        assert len(lines) == 2  # one line per node
        node_type = cloud.profile.memstore.catalog["cache.r5.large"]
        expected = 100.0 * node_type.per_second_usd
        assert sum(line.usd for line in lines) == pytest.approx(2 * expected)

    def test_minimum_billed_duration(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")

        def scenario():
            yield cloud.sim.timeout(1.0)
            cluster.terminate()

        run(cloud, scenario())
        line = cloud.meter.filtered(service="memstore")[0]
        assert line.quantity == pytest.approx(cloud.profile.memstore.minimum_billed_s)

    def test_double_terminate_rejected(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        cluster.terminate()
        with pytest.raises(ClusterAlreadyTerminated):
            cluster.terminate()

    def test_requests_after_terminate_rejected(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        client = cluster.client()
        cluster.terminate()

        def scenario():
            yield client.mget(["k"])

        with pytest.raises(ClusterNotRunning):
            run(cloud, scenario())

    def test_finalize_terminates_running_clusters(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        cloud.finalize()
        assert cluster.state == "terminated"
        assert cloud.meter.filtered(service="memstore")

    def test_cost_scales_with_node_count(self, cloud):
        for nodes in (1, 3):
            fresh = Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))
            cluster = fresh.cache.provision_ready("cache.r5.large", nodes=nodes)

            def scenario():
                yield fresh.sim.timeout(500.0)
                cluster.terminate()

            fresh.sim.run_process(scenario())
            if nodes == 1:
                single = sum(l.usd for l in fresh.meter.filtered(service="memstore"))
            else:
                triple = sum(l.usd for l in fresh.meter.filtered(service="memstore"))
        assert triple == pytest.approx(3 * single)


class TestContextIntegration:
    def test_function_context_kv_access(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        cluster_id = cluster.cluster_id

        def handler(ctx, payload):
            client = ctx.kv(payload["cluster_id"])
            yield client.set("from-function", b"hello")
            return (yield client.mget(["from-function"]))[0]

        cloud.faas.register("kv-fn", handler)

        def scenario():
            return (
                yield cloud.faas.launch("kv-fn", {"cluster_id": cluster_id}).completion
            )

        assert run(cloud, scenario()) == b"hello"

    def test_function_client_is_nic_bounded(self, cloud):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        captured = {}

        def handler(ctx, payload):
            captured["client"] = ctx.kv(payload)
            yield ctx.sleep(0.0)

        cloud.faas.register("kv-fn", handler)

        def scenario():
            yield cloud.faas.launch("kv-fn", cluster.cluster_id).completion

        run(cloud, scenario())
        assert (
            captured["client"].connection_bandwidth
            == cloud.profile.faas.instance_bandwidth
        )

