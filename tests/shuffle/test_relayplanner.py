"""Tests for the relay rows' shard dimension and fleet sizing."""

import pytest

from repro.cloud.profiles import GB, ibm_us_east
from repro.errors import ShuffleError
from repro.shuffle import ShuffleCostModel, exchange_terms, predict_shuffle_time
from repro.shuffle.relayplanner import required_relay_fleet

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
