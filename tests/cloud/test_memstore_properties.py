"""Property-based tests of cache-node and cache-cluster invariants.

The capacity accounting of :class:`CacheNode` is load bearing for the
cache-shuffle experiments: a leak in ``used_logical`` would silently
change when clusters refuse writes, and with it every S8 result.  These
properties pin the bookkeeping down across randomized operation
sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Cloud
from repro.cloud.memstore.errors import CacheOutOfMemory
from repro.cloud.memstore.node import CacheNode
from repro.cloud.profiles import CacheNodeType, MemStoreProfile, ibm_us_east
from repro.sim import Simulator

#: ~4 KB usable so small value sequences exercise the full-node refusal.
TINY = CacheNodeType("tiny", 4096 / (1 << 30), 1e8, 0.1)


def make_node() -> CacheNode:
    profile = MemStoreProfile(usable_memory_fraction=1.0)
    return CacheNode(Simulator(seed=1), "n0", TINY, profile)


#: op = (kind, key index, size) over a small key universe.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["store", "fetch", "remove"]),
        st.integers(0, 7),
        st.integers(0, 1200),
    ),
    max_size=80,
)


def apply_ops(node: CacheNode, ops) -> dict[str, bytes]:
    """Drive the node, mirroring its expected contents in a plain dict."""
    mirror: dict[str, bytes] = {}
    for kind, key_index, size in ops:
        key = f"k{key_index}"
        if kind == "store":
            data = bytes(size)
            room = node.capacity_bytes - node.used_logical + len(mirror.get(key, b""))
            try:
                node.store(key, data, float(size))
            except CacheOutOfMemory:
                assert size > room
                continue
            assert size <= room
            mirror[key] = data
        elif kind == "fetch":
            entry = node._entries.get(key)
            if key in mirror:
                assert entry is not None and entry.data == mirror[key]
            else:
                assert entry is None
        else:
            existed = node.remove(key)
            assert existed == (key in mirror)
            mirror.pop(key, None)
    return mirror


class TestNodeInvariants:
    @given(ops=OPS)
    @settings(max_examples=80, deadline=None)
    def test_noeviction_never_drops_keys_silently(self, ops):
        node = make_node()
        mirror = apply_ops(node, ops)
        # Everything the mirror believes is stored must be readable, and
        # only a write that did not fit was refused.
        for key, value in mirror.items():
            entry = node._entries.get(key)
            assert entry is not None and entry.data == value
        assert node.key_count == len(mirror)
        assert node.used_logical == pytest.approx(
            sum(len(value) for value in mirror.values())
        )


class TestClusterInvariants:
    @given(
        items=st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=24,
            ),
            st.binary(max_size=64),
            min_size=1,
            max_size=30,
        ),
        nodes=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_mset_mget_roundtrip_any_keys(self, items, nodes):
        cloud = Cloud.fresh(seed=2, profile=ibm_us_east(deterministic=True))
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=nodes)
        client = cluster.client()
        pairs = sorted(items.items())

        def driver():
            yield client.mset(pairs)
            return (yield client.mget([key for key, _value in pairs]))

        values = cloud.sim.run_process(driver())
        assert values == [value for _key, value in pairs]
        assert cluster.key_count == len(pairs)

    @given(
        keys=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=16,
            ),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        nodes=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharding_is_a_partition_of_the_keyspace(self, keys, nodes):
        cloud = Cloud.fresh(seed=2, profile=ibm_us_east(deterministic=True))
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=nodes)
        owners = {key: cluster.node_for(key).node_id for key in keys}
        # Placement is a function of the key alone (stable), and every
        # key has exactly one owner.
        assert owners == {key: cluster.node_for(key).node_id for key in keys}
