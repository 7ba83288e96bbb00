"""Tests for the relay rows' shard dimension and fleet sizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.profiles import GB, ibm_us_east
from repro.errors import ShuffleError
from repro.shuffle import SUBSTRATES, ShuffleCostModel, exchange_terms, predict_shuffle_time
from repro.shuffle.relayplanner import (
    MAX_RELAY_SHARDS,
    SHARD_IMBALANCE_HEADROOM,
    relay_usable_bytes,
    required_relay_fleet,
    resolve_relay_instance,
)

PROFILE = ibm_us_east(deterministic=True)
SIZE = 3.5 * GB


def predict_fleet(workers, shards):
    """The one model over a ``shards``-instance bx2-8x32 fleet's row."""
    cost = ShuffleCostModel()
    terms = exchange_terms("sharded-relay", PROFILE, cost, "bx2-8x32", shards)
    return predict_shuffle_time(SIZE, workers, PROFILE, cost, terms=terms)


class TestShardPrediction:
    def test_more_shards_never_predict_slower(self):
        for workers in (16, 64, 256):
            times = [predict_fleet(workers, n).total_s for n in (1, 2, 4)]
            assert times[0] >= times[1] >= times[2]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ShuffleError, match="shards"):
            predict_fleet(8, 0)

    def test_unknown_flavour_rejected(self):
        with pytest.raises(ShuffleError, match="unknown relay instance type"):
            exchange_terms("relay", PROFILE, None, "bx2-1x1")

    def test_single_relay_is_the_fleet_row_at_one_shard(self):
        terms = exchange_terms("relay", PROFILE, None, "bx2-8x32")
        single = predict_shuffle_time(
            SIZE, 64, PROFILE, ShuffleCostModel(), terms=terms
        )
        assert single == predict_fleet(64, 1)


class TestRequiredRelayFleet:
    def test_small_data_fits_one_cheap_instance(self):
        name, shards = required_relay_fleet(SIZE, PROFILE)
        assert shards == 1
        assert name in PROFILE.vm.catalog

    def test_oversized_data_needs_a_fleet(self):
        name, shards = required_relay_fleet(1000 * GB, PROFILE, max_shards=8)
        assert shards > 1
        usable = PROFILE.vm.relay_usable_bytes(PROFILE.vm.catalog[name])
        assert shards * usable >= 1000 * GB * 1.3

    def test_pinned_flavour_sizes_its_own_shard_count(self):
        name, shards = required_relay_fleet(
            100 * GB, PROFILE, instance_type_name="bx2-8x32", max_shards=8,
        )
        assert name == "bx2-8x32"
        usable = PROFILE.vm.relay_usable_bytes(PROFILE.vm.catalog[name])
        assert shards == -(-int(100 * GB * 1.3) // int(usable))

    def test_beyond_max_shards_raises(self):
        with pytest.raises(ShuffleError, match="max_shards"):
            required_relay_fleet(
                1000 * GB, PROFILE, instance_type_name="bx2-2x8", max_shards=8,
            )
        with pytest.raises(ShuffleError, match="no fleet"):
            required_relay_fleet(100_000 * GB, PROFILE, max_shards=8)

    def test_max_shards_below_one_rejected(self):
        with pytest.raises(ShuffleError, match="max_shards must be >= 1"):
            required_relay_fleet(SIZE, PROFILE, max_shards=0)

    @given(mult=st.floats(0.1, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_pinned_fleet_shards_always_fit(self, mult):
        """A fleet the planner accepts never exceeds per-shard usable
        relay bytes on its mean shard (headroom included)."""
        usable = relay_usable_bytes(PROFILE, resolve_relay_instance(PROFILE, "bx2-8x32"))
        logical = mult * usable
        try:
            _, shards = required_relay_fleet(
                logical, PROFILE, "bx2-8x32", max_shards=64
            )
        except ShuffleError:
            return  # declared infeasible, not silently under-sized
        assert SHARD_IMBALANCE_HEADROOM * logical / shards <= usable * (1 + 1e-9)

    @given(logical_gb=st.floats(0.5, 400.0))
    @settings(max_examples=60, deadline=None)
    def test_catalog_search_shards_always_fit(self, logical_gb):
        """Same invariant over the whole-catalog search path."""
        logical = logical_gb * GB
        try:
            name, shards = required_relay_fleet(logical, PROFILE, max_shards=8)
        except ShuffleError:
            return
        usable = relay_usable_bytes(PROFILE, resolve_relay_instance(PROFILE, name))
        assert SHARD_IMBALANCE_HEADROOM * logical / shards <= usable * (1 + 1e-9)


@pytest.mark.parametrize("name", ["relay", "sharded-relay"])
def test_pinned_fat_relay_is_priced_faster_and_costlier(name):
    """A pinned fat flavour is the configuration priced, and its NIC
    makes the relay row faster than the auto-sized one's but dearer."""
    cost = ShuffleCostModel()
    backend_class = SUBSTRATES[name]

    def priced(pinned):
        flavour, count = backend_class.configurations(SIZE, PROFILE, flavour=pinned)[0]
        terms = exchange_terms(name, PROFILE, cost, flavour, count)
        point = predict_shuffle_time(SIZE, 64, PROFILE, cost, terms=terms)
        return flavour, point.total_s, count * PROFILE.vm.catalog[flavour].hourly_usd

    pinned_flavour, pinned_s, pinned_usd = priced("bx2-48x192")
    auto_flavour, auto_s, auto_usd = priced(None)
    assert pinned_flavour == "bx2-48x192" != auto_flavour
    assert pinned_s < auto_s
    assert pinned_usd > auto_usd


@pytest.mark.parametrize("size_gb", (1.0, 40.0, 200.0))
def test_fleet_configurations_run_from_the_sized_fleet_to_the_limit(size_gb):
    """The fleet rows the selector prices: the sized fleet's flavour at
    every shard count from its own up to :data:`MAX_RELAY_SHARDS`."""
    logical = size_gb * GB
    flavour, min_shards = required_relay_fleet(logical, PROFILE)
    assert SUBSTRATES["sharded-relay"].configurations(logical, PROFILE) == [
        (flavour, shards) for shards in range(min_shards, MAX_RELAY_SHARDS + 1)
    ]
