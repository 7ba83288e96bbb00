"""The skew-priced predictor.

Every substrate's row of the analytic model carries a straggler term:
the reduce side is paced by the reducer owning the hottest partition,
whose fetch transfer, sort CPU and output write scale with the
workload's max-over-mean partition bytes (``predict_shuffle_time``'s
``skew``, which S11 prices its measured skew with).
"""

import pytest

from repro.cloud.profiles import GB, ibm_us_east
from repro.errors import ShuffleError
from repro.shuffle import (
    SUBSTRATES,
    ShuffleCostModel,
    exchange_terms,
    predict_shuffle_time,
    predict_streaming_shuffle_time,
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


def default_row(name, cost):
    """The row of the first configuration ``name`` sizes for ``SIZE``
    with nothing pinned: what the selector prices first."""
    flavour, count = SUBSTRATES[name].size_to_fit(SIZE, PROFILE)
    return exchange_terms(name, PROFILE, cost, flavour or None, count)


class TestEverySubstrateRow:
    """The straggler term on every :data:`~repro.shuffle.SUBSTRATES`
    row, the sharded fleet's included."""

    @pytest.mark.parametrize("name", list(SUBSTRATES))
    def test_every_substrate_row_is_priced_at_the_skew(self, name):
        cost = ShuffleCostModel()
        terms = default_row(name, cost)
        flat = predict_shuffle_time(SIZE, 32, PROFILE, cost, terms=terms)
        hot = predict_shuffle_time(SIZE, 32, PROFILE, cost, skew=4.0, terms=terms)
        assert hot.total_s > flat.total_s

    @pytest.mark.parametrize("name", list(SUBSTRATES))
    def test_skew_moves_the_worker_optimum_right(self, name):
        """Skew inflates only per-worker reduce terms, so the U-curve's
        minimum moves to more workers: they shrink the straggler's
        base."""
        cost = ShuffleCostModel()
        terms = default_row(name, cost)

        def best_workers(skew):
            return min(
                range(1, 257),
                key=lambda workers: predict_shuffle_time(
                    SIZE, workers, PROFILE, cost, skew=skew, terms=terms
                ).total_s,
            )

        assert best_workers(6.0) > best_workers(1.0)
