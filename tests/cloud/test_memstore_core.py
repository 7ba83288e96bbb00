"""Tests of the one in-memory store core under the cache and the relay.

A cache node and a partition relay are both a
:class:`~repro.cloud.memstore.core.MemoryStore`; a cache cluster and a
relay fleet are both a :class:`~repro.cloud.memstore.core.ShardGroup`.
These tests pin what the two share (placement, aggregate views) and
the fan-out rules in which they differ.
"""

import zlib

import pytest

from repro.cloud import Cloud, MB
from repro.cloud.memstore.core import MemoryStore, ShardGroup
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm import fleet_ready


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))


def test_cache_and_fleet_place_keys_by_one_crc_rule(cloud):
    cluster = cloud.cache.provision_ready("cache.r5.large", nodes=4)
    fleet = fleet_ready(cloud.vms, "bx2-2x8", shards=4)
    assert isinstance(cluster, ShardGroup) and isinstance(fleet, ShardGroup)
    assert all(isinstance(store, MemoryStore) for store in cluster.nodes)
    assert all(isinstance(store, MemoryStore) for store in fleet.shards)
    keys = [f"job/m{m:05d}.r{r:05d}" for m in range(8) for r in range(8)]
    for key in keys:
        index = zlib.crc32(key.encode("utf-8")) % 4
        assert cluster.shard_index_for_key(key) == index
        assert fleet.shard_index_for_key(key) == index
        assert cluster.node_for(key) is cluster.nodes[index]
        assert fleet.shard_for_key(key) is fleet.shards[index]


def test_batch_order_first_appearance_on_the_cache_sorted_on_the_fleet(cloud):
    cluster = cloud.cache.provision_ready("cache.r5.large", nodes=3)
    fleet = fleet_ready(cloud.vms, "bx2-2x8", shards=3)
    by_shard = {2: [0, 3], 0: [1], 1: [2, 4]}
    assert cluster._batch_order(dict(by_shard)) == [(2, [0, 3]), (0, [1]), (1, [2, 4])]
    assert fleet._batch_order(dict(by_shard)) == [(0, [1]), (1, [2, 4]), (2, [0, 3])]


def test_nic_shares_equal_and_capped_on_the_cache_byte_weighted_on_the_fleet(cloud):
    cluster = cloud.cache.provision_ready("cache.r5.large", nodes=3)
    fleet = fleet_ready(cloud.vms, "bx2-2x8", shards=3)
    per_connection = cloud.profile.memstore.per_connection_bandwidth
    groups = [(0, [0]), (1, [1, 2]), (2, [3])]
    weights = {0: 1.0, 1: 3.0, 2: 0.0}

    def weigh(index, _positions):
        return weights[index]

    # The cache splits the caller's NIC equally, each stream capped per
    # connection; the weights play no part.
    narrow = per_connection  # three streams of a third each stay under the cap
    assert cluster._nic_shares(narrow, groups, weigh) == [narrow / 3] * 3
    wide = per_connection * 30  # a tenth of it per stream, capped
    assert cluster._nic_shares(wide, groups, weigh) == [per_connection] * 3
    assert cluster._nic_shares(None, groups, weigh) == [per_connection] * 3
    # The fleet splits it by bytes; a group that moves nothing gets the
    # full rate (its transfer is skipped), and no NIC bound stays none.
    assert fleet._nic_shares(400.0, groups, weigh) == [100.0, 300.0, 400.0]
    assert fleet._nic_shares(None, groups, weigh) == [None, None, None]


@pytest.mark.parametrize("substrate", ["cache", "fleet"])
def test_aggregate_views_sum_the_shards(cloud, substrate):
    if substrate == "cache":
        group = cloud.cache.provision_ready("cache.r5.large", nodes=3)
        client = group.client()
        write = client.mset
    else:
        group = fleet_ready(cloud.vms, "bx2-2x8", shards=3)
        client = group.client()
        write = client.mpush
    items = [(f"k{i}", bytes([i + 1]) * 8) for i in range(12)]
    sizes = [(i + 1) * MB for i in range(12)]

    def scenario():
        yield write(items, logical_sizes=sizes)

    cloud.sim.run_process(scenario())
    stores = group.shards
    assert group.capacity_bytes == sum(store.capacity_bytes for store in stores)
    assert group.used_logical == pytest.approx(sum(sizes))
    assert group.key_count == 12
    assert sum(store.key_count for store in stores) == 12
    assert group.fill_fraction == pytest.approx(sum(sizes) / group.capacity_bytes)
    totals = group.stats_totals()
    assert totals["bytes_in"] == pytest.approx(sum(sizes))
    assert totals["bytes_in"] == pytest.approx(
        sum(store.stats.bytes_in for store in stores)
    )
    assert totals["misses"] == 0


def test_cache_totals_keep_the_keys_reports_read(cloud):
    cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
    client = cluster.client()

    def scenario():
        yield client.mset([("a", b"1" * 8), ("b", b"2" * 8)])
        yield client.mget(["a", "b"])
        yield client.delete("a")

    cloud.sim.run_process(scenario())
    totals = cluster.stats_totals()
    assert (totals["sets"], totals["gets"], totals["deletes"]) == (2, 2, 1)
    assert totals["dedup_restores"] == 0
    assert "evictions" not in totals
