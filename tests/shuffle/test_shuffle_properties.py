"""Property-based tests of the shuffle planners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.profiles import ibm_us_east
from repro.shuffle.cacheplanner import CACHE_HEADROOM
from repro.shuffle import (
    ShuffleCostModel,
    exchange_terms,
    plan_shuffle,
    predict_shuffle_time,
    required_cache_nodes,
)

PROFILE = ibm_us_east()
NODE_TYPE = PROFILE.memstore.catalog["cache.r5.large"]


def predict_cache(size, workers, nodes):
    """The one model over a ``nodes``-node cache cluster's term row."""
    terms = exchange_terms("cache", PROFILE, None, NODE_TYPE.name, nodes)
    return predict_shuffle_time(
        size, workers, PROFILE, ShuffleCostModel(), terms=terms
    )


class TestPlannerProperties:
    @given(
        size=st.floats(1e6, 1e11),
        workers=st.integers(1, 512),
    )
    @settings(max_examples=80, deadline=None)
    def test_cos_breakdown_sums_to_total(self, size, workers):
        point = predict_shuffle_time(size, workers, PROFILE, ShuffleCostModel())
        assert point.total_s == pytest.approx(sum(point.breakdown.values()))
        assert point.total_s > 0

    @given(
        size=st.floats(1e6, 1e11),
        workers=st.integers(1, 512),
        nodes=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_cache_breakdown_sums_to_total(self, size, workers, nodes):
        point = predict_cache(size, workers, nodes)
        assert point.total_s == pytest.approx(sum(point.breakdown.values()))
        assert point.total_s > 0

    @given(
        sizes=st.tuples(st.floats(1e6, 1e10), st.floats(1e6, 1e10)),
        workers=st.integers(1, 256),
    )
    @settings(max_examples=60, deadline=None)
    def test_predictions_monotone_in_size(self, sizes, workers):
        small, large = sorted(sizes)
        cos_small = predict_shuffle_time(small, workers, PROFILE, ShuffleCostModel())
        cos_large = predict_shuffle_time(large, workers, PROFILE, ShuffleCostModel())
        assert cos_small.total_s <= cos_large.total_s * (1 + 1e-9)
        cache_small = predict_cache(small, workers, 2)
        cache_large = predict_cache(large, workers, 2)
        assert cache_small.total_s <= cache_large.total_s * (1 + 1e-9)

    @given(
        size=st.floats(1e8, 1e10),
        candidates=st.lists(st.integers(1, 256), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_picks_the_curve_minimum(self, size, candidates):
        plan = plan_shuffle(size, PROFILE, candidates=candidates)
        assert plan.workers in set(candidates)
        assert plan.predicted_s == min(point.total_s for point in plan.curve)
        plan_cache = plan_shuffle(
            size, PROFILE, candidates=candidates,
            terms=exchange_terms("cache", PROFILE, None, "cache.r5.large", 2),
        )
        assert plan_cache.predicted_s == min(
            point.total_s for point in plan_cache.curve
        )

    @given(size=st.floats(1e6, 1e12))
    @settings(max_examples=60, deadline=None)
    def test_required_nodes_actually_fit_the_data(self, size):
        nodes = required_cache_nodes(size, PROFILE, "cache.r5.large")
        usable_per_node = (
            NODE_TYPE.memory_gb * (1 << 30)
            * PROFILE.memstore.usable_memory_fraction
        )
        assert nodes >= 1
        assert nodes * usable_per_node >= size
        # Minimality: one fewer node would not fit (with headroom).
        if nodes > 1:
            assert (nodes - 1) * usable_per_node < size * CACHE_HEADROOM

