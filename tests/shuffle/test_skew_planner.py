"""Skew-priced planners and the adaptive selector (PR 5).

Every substrate's analytic model gained a straggler term: the reduce
side is paced by the reducer owning the hottest partition, whose fetch
transfer, sort CPU and output write scale with the workload's
max-over-mean partition bytes.  The acceptance case: the *same
total-bytes* workload picks a different exchange configuration when its
keys are Zipf instead of uniform.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.profiles import GB, ibm_us_east
from repro.errors import ShuffleError
from repro.shuffle import (
    ShuffleCostModel,
    SkewSpec,
    choose_exchange_substrate,
    choose_weighted_boundaries,
    estimate_partition_weights,
    exchange_terms,
    partition_skew_of,
    plan_shuffle,
    predict_shuffle_time,
    predict_streaming_shuffle_time,
    skewed_keys,
)
from repro.shuffle.relayplanner import (
    SHARD_IMBALANCE_HEADROOM,
    hot_shard_bytes,
    relay_usable_bytes,
    required_relay_fleet,
    resolve_relay_instance,
)

pytestmark = pytest.mark.skew

PROFILE = ibm_us_east(deterministic=True)
SIZE = 3.5 * GB


#: One configuration per substrate row of the cost model.
CONFIGURATIONS = {
    "objectstore": (None, 1),
    "cache": ("cache.r5.large", 2),
    "relay": ("bx2-8x32", 1),
}


def predict_all(workers, skew):
    """One PlanPoint per substrate row at the given skew."""
    cost = ShuffleCostModel()
    return {
        substrate: predict_shuffle_time(
            SIZE, workers, PROFILE, cost, skew=skew,
            terms=exchange_terms(substrate, PROFILE, cost, flavour, count),
        )
        for substrate, (flavour, count) in CONFIGURATIONS.items()
    }


class TestStragglerTerm:
    def test_skew_one_is_the_identity(self):
        for substrate, point in predict_all(32, 1.0).items():
            baseline = predict_all(32, None)[substrate]
            assert point.total_s == pytest.approx(baseline.total_s), substrate

    @pytest.mark.parametrize("workers", [8, 32, 128])
    def test_predictions_increase_monotonically_with_skew(self, workers):
        for substrate in ("objectstore", "cache", "relay"):
            times = [
                predict_all(workers, skew)[substrate].total_s
                for skew in (1.0, 2.0, 4.0, 8.0)
            ]
            assert times == sorted(times), substrate
            assert times[-1] > times[0], substrate

    def test_skew_touches_only_the_reduce_side(self):
        flat = predict_all(32, 1.0)["objectstore"].breakdown
        hot = predict_all(32, 6.0)["objectstore"].breakdown
        # Input splits stay byte-even: the map side must not move.
        for term in ("startup", "map_read", "partition_cpu", "map_write",
                     "driver"):
            assert hot[term] == pytest.approx(flat[term]), term
        for term in ("reduce_fetch", "sort_cpu", "reduce_write"):
            assert hot[term] > flat[term], term

    def test_default_skew_is_balanced(self):
        cost = ShuffleCostModel()
        implicit = predict_shuffle_time(SIZE, 32, PROFILE, cost)
        explicit = predict_shuffle_time(SIZE, 32, PROFILE, cost, skew=1.0)
        assert implicit.breakdown == explicit.breakdown
        assert implicit.total_s == explicit.total_s

    def test_invalid_skew_rejected(self):
        with pytest.raises(ShuffleError, match="skew"):
            predict_shuffle_time(SIZE, 8, PROFILE, ShuffleCostModel(), skew=0.5)
        with pytest.raises(ShuffleError, match="skew"):
            predict_all(8, 0.0)

    def test_streaming_transform_composes_with_skew(self):
        """The pipelined transform consumes the skewed staged point: a
        hotter consumer side grows the pipelined exchange term."""
        flat = predict_streaming_shuffle_time(
            predict_all(32, 1.0)["relay"], chunks=8
        )
        hot = predict_streaming_shuffle_time(
            predict_all(32, 6.0)["relay"], chunks=8
        )
        assert hot.total_s > flat.total_s

    def test_plan_shuffle_reoptimizes_workers_under_skew(self):
        """Skew inflates per-worker reduce terms, so the U-curve's
        minimum moves right: the planner buys more workers to shrink
        the straggler's base."""
        flat = plan_shuffle(SIZE, PROFILE, max_workers=128)
        hot = plan_shuffle(SIZE, PROFILE, max_workers=128, skew=6.0)
        assert hot.workers > flat.workers

    def test_plan_shuffle_threads_skew_through_a_relay_row(self):
        terms = exchange_terms("relay", PROFILE, None, "bx2-8x32")
        flat = plan_shuffle(SIZE, PROFILE, max_workers=64, terms=terms)
        hot = plan_shuffle(SIZE, PROFILE, max_workers=64, skew=6.0, terms=terms)
        assert hot.predicted_s > flat.predicted_s


class TestSkewAwareSelector:
    def test_decision_changes_between_uniform_and_skewed(self):
        """The acceptance case: same bytes, same candidates, same time
        value — only the key distribution differs, and the selector
        changes its substrate.  At W=256 the uniform workload's
        all-to-all is worth provisioned relay NICs; under 6x skew the
        hot reducer (which no exchange hardware can shrink) dominates,
        the fleet's latency edge collapses, and pay-as-you-go object
        storage wins the monetized score."""
        uniform = choose_exchange_substrate(
            SIZE, PROFILE, workers=256, time_value_usd_per_hour=0.95
        )
        skewed = choose_exchange_substrate(
            SIZE, PROFILE, workers=256, time_value_usd_per_hour=0.95,
            partition_skew=6.0,
        )
        assert uniform.substrate == "sharded-relay"
        assert skewed.substrate == "objectstore"
        assert skewed.partition_skew == 6.0
        assert "partition skew 6.00x" in skewed.describe()

    def test_auto_worker_decision_changes_too(self):
        """With per-substrate planning the skewed variant sizes a
        different wave (more workers shrink the straggler's base)."""
        uniform = choose_exchange_substrate(SIZE, PROFILE)
        skewed = choose_exchange_substrate(SIZE, PROFILE, partition_skew=6.0)
        assert skewed.chosen.workers > uniform.chosen.workers

    def test_every_estimate_is_priced_at_the_skew(self):
        decision = choose_exchange_substrate(
            SIZE, PROFILE, workers=32, partition_skew=4.0
        )
        flat = choose_exchange_substrate(SIZE, PROFILE, workers=32)
        for hot, cold in zip(decision.estimates, flat.estimates):
            assert hot.predicted_s > cold.predicted_s, hot.substrate

    def test_invalid_partition_skew_rejected(self):
        with pytest.raises(ShuffleError, match="partition_skew"):
            choose_exchange_substrate(SIZE, PROFILE, partition_skew=0.9)

    def test_uniform_skew_default_matches_legacy_behaviour(self):
        default = choose_exchange_substrate(SIZE, PROFILE, workers=64)
        explicit = choose_exchange_substrate(
            SIZE, PROFILE, workers=64, partition_skew=1.0
        )
        assert default.substrate == explicit.substrate
        assert default.chosen.score_usd == pytest.approx(
            explicit.chosen.score_usd
        )


class TestSkewAwareFleetSizing:
    """The skew-sizing bugfix (PR 6 satellite): ``required_relay_fleet``
    sizes the fleet for the *hot shard's* expected bytes, not the mean.

    The regression: CRC routing parks a hot partition entirely on one
    shard, so the old mean-based ``ceil(headroom * logical / usable)``
    under-provisions any Zipf workload whenever load-aware rebalancing
    is off — the hot shard overflows its usable relay memory while the
    planner believes the fleet fits.
    """

    INSTANCE = "bx2-8x32"

    def usable(self):
        return relay_usable_bytes(
            PROFILE, resolve_relay_instance(PROFILE, self.INSTANCE)
        )

    def test_hot_shard_bytes_is_the_skewed_mean_capped_at_everything(self):
        assert hot_shard_bytes(1000.0, 4) == pytest.approx(250.0)
        assert hot_shard_bytes(1000.0, 4, 3.0) == pytest.approx(750.0)
        # One shard can never receive more than the whole dataset.
        assert hot_shard_bytes(1000.0, 2, 8.0) == pytest.approx(1000.0)
        assert hot_shard_bytes(1000.0, 1, 5.0) == pytest.approx(1000.0)

    def test_mean_based_sizing_under_provisions_a_zipf_workload(self):
        """The pinned regression, with the skew *measured* from a Zipf
        key stream the way the operator measures it (partition weights
        at the planned boundaries) rather than assumed."""
        keys = skewed_keys(
            20_000,
            SkewSpec(distribution="zipf", zipf_s=1.2, distinct_keys=64),
            random.Random(5),
        )
        weights = estimate_partition_weights(
            keys, choose_weighted_boundaries(keys, 16)
        )
        skew = partition_skew_of(weights)
        assert skew > 1.5  # the workload genuinely concentrates mass

        usable = self.usable()
        logical = 3.0 * usable
        _, lean = required_relay_fleet(
            logical, PROFILE, self.INSTANCE, max_shards=64
        )
        _, sized = required_relay_fleet(
            logical, PROFILE, self.INSTANCE, max_shards=64,
            partition_skew=skew,
        )
        assert sized > lean
        # The old mean-based fleet cannot hold its hot shard (this is
        # the bug: rebalance=False leaves the hot partition where CRC
        # routing put it)...
        assert SHARD_IMBALANCE_HEADROOM * hot_shard_bytes(
            logical, lean, skew
        ) > usable
        # ...while the skew-sized fleet can.
        assert SHARD_IMBALANCE_HEADROOM * hot_shard_bytes(
            logical, sized, skew
        ) <= usable

    def test_default_skew_matches_legacy_sizing(self):
        logical = 2.5 * self.usable()
        default = required_relay_fleet(logical, PROFILE, self.INSTANCE)
        explicit = required_relay_fleet(
            logical, PROFILE, self.INSTANCE, partition_skew=1.0
        )
        assert default == explicit

    def test_invalid_partition_skew_rejected(self):
        with pytest.raises(ShuffleError, match="partition_skew"):
            required_relay_fleet(
                GB, PROFILE, self.INSTANCE, partition_skew=0.5
            )

    @given(
        mult=st.floats(0.1, 6.0),
        skew=st.floats(1.0, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_pinned_fleet_hot_shard_always_fits(self, mult, skew):
        """The chaos-matrix invariant: whatever the workload's measured
        skew, a fleet the planner accepts never exceeds per-shard usable
        relay bytes on its hottest shard (headroom included)."""
        usable = self.usable()
        logical = mult * usable
        try:
            _, shards = required_relay_fleet(
                logical, PROFILE, self.INSTANCE, max_shards=64,
                partition_skew=skew,
            )
        except ShuffleError:
            return  # declared infeasible, not silently under-sized
        assert SHARD_IMBALANCE_HEADROOM * hot_shard_bytes(
            logical, shards, skew
        ) <= usable * (1 + 1e-9)

    @given(
        logical_gb=st.floats(0.5, 400.0),
        skew=st.floats(1.0, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_catalog_search_hot_shard_always_fits(self, logical_gb, skew):
        """Same invariant over the whole-catalog search path."""
        logical = logical_gb * GB
        try:
            name, shards = required_relay_fleet(
                logical, PROFILE, max_shards=8, partition_skew=skew
            )
        except ShuffleError:
            return
        usable = relay_usable_bytes(
            PROFILE, resolve_relay_instance(PROFILE, name)
        )
        assert SHARD_IMBALANCE_HEADROOM * hot_shard_bytes(
            logical, shards, skew
        ) <= usable * (1 + 1e-9)
