"""Sampling and boundary selection under skew (PR 5 satellite 1).

Property-based coverage of ``reservoir_sample`` / ``choose_boundaries``
/ ``choose_weighted_boundaries`` on the inputs the uniform suite never
stressed — duplicate-heavy, constant-key, and
fewer-distinct-keys-than-partitions samples — plus the regression the
weighted mode exists for: positional quantiles on duplicate-heavy
samples emit *duplicate* boundaries, creating guaranteed-empty
partitions while the duplicated key's whole neighbourhood collapses
onto one reducer.
"""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShuffleError
from repro.shuffle.relay import assign_balanced
from repro.shuffle.stages import _sample_windows
from repro.shuffle import (
    SkewSpec,
    choose_boundaries,
    choose_weighted_boundaries,
    estimate_partition_weights,
    partition_index,
    partition_skew_of,
    reservoir_sample,
    skewed_fixed_payload,
    skewed_keys,
    zipf_weights,
)

pytestmark = pytest.mark.skew

#: Duplicate-heavy key pools: few distinct values, many samples.
dup_heavy_samples = st.lists(
    st.integers(0, 7), min_size=1, max_size=400
)
#: Generic pools mixing hot values with a uniform tail.
mixed_samples = st.one_of(
    dup_heavy_samples,
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=400),
    st.lists(st.just(42), min_size=1, max_size=100),  # constant key
)


def spread(keys, boundaries):
    """Partition a key multiset; returns per-partition key lists."""
    buckets = [[] for _ in range(len(boundaries) + 1)]
    for key in keys:
        buckets[partition_index(key, boundaries)].append(key)
    return buckets


class TestWeightedBoundariesProperties:
    @given(keys=mixed_samples, partitions=st.integers(1, 16))
    @settings(max_examples=200)
    def test_boundaries_ascending_and_sized(self, keys, partitions):
        boundaries = choose_weighted_boundaries(keys, partitions)
        assert len(boundaries) == partitions - 1
        assert boundaries == sorted(boundaries)

    @given(keys=mixed_samples, partitions=st.integers(1, 16))
    @settings(max_examples=200)
    def test_partitions_cover_the_key_space_and_lose_nothing(
        self, keys, partitions
    ):
        """Every key lands in exactly one in-range partition and the
        reassembled partitions are the original multiset, in global
        order."""
        boundaries = choose_weighted_boundaries(keys, partitions)
        buckets = spread(keys, boundaries)
        reassembled = [key for bucket in buckets for key in sorted(bucket)]
        assert reassembled == sorted(keys)  # nothing lost, order holds
        assert collections.Counter(reassembled) == collections.Counter(keys)

    @given(keys=mixed_samples, partitions=st.integers(2, 16))
    @settings(max_examples=200)
    def test_cross_partition_order_holds(self, keys, partitions):
        boundaries = choose_weighted_boundaries(keys, partitions)
        buckets = [b for b in spread(keys, boundaries) if b]
        for left, right in zip(buckets, buckets[1:]):
            assert max(left) < min(right) or max(left) <= min(right)

    @given(keys=mixed_samples, partitions=st.integers(2, 16))
    @settings(max_examples=200)
    def test_distinct_boundaries_whenever_possible(self, keys, partitions):
        """With >= ``partitions`` distinct keys the boundaries are
        strictly ascending — no guaranteed-empty partitions."""
        distinct = len(set(keys))
        boundaries = choose_weighted_boundaries(keys, partitions)
        if distinct >= partitions:
            assert len(set(boundaries)) == len(boundaries)

    def test_constant_key_sample_degrades_gracefully(self):
        """One distinct key can fill only one partition; the weighted
        mode parks the surplus partitions empty instead of raising."""
        boundaries = choose_weighted_boundaries([7] * 50, 4)
        assert len(boundaries) == 3
        buckets = spread([7] * 50, boundaries)
        assert sum(len(b) for b in buckets) == 50
        assert sum(1 for b in buckets if b) == 1

    def test_fewer_distinct_keys_than_partitions(self):
        keys = [1] * 10 + [2] * 10
        boundaries = choose_weighted_boundaries(keys, 5)
        buckets = spread(keys, boundaries)
        assert sum(1 for b in buckets if b) == 2
        assert sorted(key for b in buckets for key in b) == sorted(keys)

    def test_rejects_empty_sample_and_bad_partitions(self):
        with pytest.raises(ShuffleError):
            choose_weighted_boundaries([], 4)
        with pytest.raises(ShuffleError):
            choose_weighted_boundaries([1], 0)
        assert choose_weighted_boundaries([1, 2], 1) == []


class TestWeightedModeRegression:
    """The edge case the weighted mode fixes, pinned as a regression."""

    # 80% of the sample is the key 5; the rest spreads around it.
    HOT = [5] * 80 + list(range(10)) + list(range(20, 30))

    def test_positional_quantiles_emit_duplicate_boundaries(self):
        """The failure mode: classic quantiles cut *positions*, so the
        hot key occupies several quantile positions and the boundary
        list repeats it — partitions between equal boundaries can never
        receive a record."""
        positional = choose_boundaries(self.HOT, 4)
        assert len(set(positional)) < len(positional)  # duplicates
        buckets = spread(self.HOT, positional)
        assert any(not b for b in buckets)  # guaranteed-empty partition

    def test_weighted_mode_fixes_it(self):
        """Weighted boundaries are distinct, no partition is empty, and
        the hot reducer's share is capped at the hot key's own mass
        instead of absorbing its neighbours too."""
        weighted = choose_weighted_boundaries(self.HOT, 4)
        assert len(set(weighted)) == len(weighted)
        buckets = spread(self.HOT, weighted)
        assert all(b for b in buckets)
        positional_max = max(
            len(b) for b in spread(self.HOT, choose_boundaries(self.HOT, 4))
        )
        weighted_max = max(len(b) for b in buckets)
        assert weighted_max <= positional_max
        assert weighted_max == self.HOT.count(5)  # the indivisible hot key

    @given(keys=dup_heavy_samples, partitions=st.integers(2, 12))
    @settings(max_examples=150)
    def test_weighted_wastes_no_partition(self, keys, partitions):
        """The defect the mode fixes, as an invariant: weighted
        boundaries leave exactly the *unavoidable* number of empty
        partitions (`max(0, partitions - distinct)`) — positional
        quantiles can park arbitrarily many extra reducers idle next to
        a mega-partition."""
        weighted_empty = sum(
            1
            for b in spread(keys, choose_weighted_boundaries(keys, partitions))
            if not b
        )
        positional_empty = sum(
            1 for b in spread(keys, choose_boundaries(keys, partitions)) if not b
        )
        assert weighted_empty == max(0, partitions - len(set(keys)))
        assert weighted_empty <= positional_empty


class TestPartitionWeightEstimates:
    @given(keys=mixed_samples, partitions=st.integers(1, 16))
    @settings(max_examples=100)
    def test_weights_are_a_distribution_matching_the_split(
        self, keys, partitions
    ):
        boundaries = choose_weighted_boundaries(keys, partitions)
        weights = estimate_partition_weights(keys, boundaries)
        assert len(weights) == partitions
        assert sum(weights) == pytest.approx(1.0)
        buckets = spread(keys, boundaries)
        for weight, bucket in zip(weights, buckets):
            assert weight == pytest.approx(len(bucket) / len(keys))

    def test_empty_sample_rejected(self):
        with pytest.raises(ShuffleError):
            estimate_partition_weights([], [1, 2])

    def test_partition_skew_of(self):
        assert partition_skew_of([]) == 1.0
        assert partition_skew_of([0.0, 0.0]) == 1.0
        assert partition_skew_of([10, 10, 10]) == pytest.approx(1.0)
        assert partition_skew_of([30, 10, 20]) == pytest.approx(1.5)


class TestSkewedWorkloadGenerator:
    def test_zipf_weights_normalized_and_ranked(self):
        weights = zipf_weights(16, 1.2)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)
        with pytest.raises(ShuffleError):
            zipf_weights(0, 1.2)
        with pytest.raises(ShuffleError):
            zipf_weights(4, 0.0)

    def test_zipf_keys_are_duplicates_with_skewed_frequencies(self):
        spec = SkewSpec(distribution="zipf", zipf_s=1.5, distinct_keys=8)
        keys = skewed_keys(5000, spec, random.Random(3))
        counts = collections.Counter(keys)
        assert len(counts) <= 8
        top = counts.most_common()[0][1] / 5000
        assert top > 2.0 / 8  # far above the uniform share

    def test_heavy_dup_keys_are_uniform_duplicates(self):
        spec = SkewSpec(distribution="heavy-dup", distinct_keys=4)
        keys = skewed_keys(4000, spec, random.Random(3))
        counts = collections.Counter(keys)
        assert len(counts) == 4
        for count in counts.values():
            assert count == pytest.approx(1000, rel=0.25)

    def test_sorted_runs_are_locally_ascending(self):
        spec = SkewSpec(distribution="sorted-runs", run_length=64)
        keys = skewed_keys(1000, spec, random.Random(3))
        for start in range(0, 1000, 64):
            run = keys[start : start + 64]
            assert run == sorted(run)
        assert keys != sorted(keys)  # but not globally sorted

    def test_deterministic_and_validated(self):
        spec = SkewSpec(distribution="zipf")
        a = skewed_keys(100, spec, random.Random(9))
        b = skewed_keys(100, spec, random.Random(9))
        assert a == b
        with pytest.raises(ShuffleError):
            skewed_keys(10, SkewSpec(distribution="gaussian"), random.Random(1))
        with pytest.raises(ShuffleError):
            skewed_keys(10, SkewSpec(distinct_keys=0), random.Random(1))
        with pytest.raises(ShuffleError):
            skewed_keys(-1, spec, random.Random(1))

    def test_fixed_payload_shape(self):
        payload = skewed_fixed_payload(100, SkewSpec(), seed=5)
        assert len(payload) == 100 * 16
        with pytest.raises(ShuffleError):
            skewed_fixed_payload(10, SkewSpec(), seed=5, record_size=4)


class TestStridedSamplingWindows:
    """The head-of-split sampling-window bugfix (PR 6 satellite).

    A single head window per sampler split only ever sees the low-key
    head of each locally-ascending run on ``sorted-runs`` inputs, so
    every boundary lands in the bottom quantiles and the last partition
    swallows most of the data.  Spreading the same sampling budget over
    ``strides`` windows restores uniform positional coverage.
    """

    @given(
        span=st.integers(1, 100_000),
        start=st.integers(0, 50_000),
        sample_bytes=st.integers(1, 20_000),
        strides=st.integers(1, 16),
    )
    @settings(max_examples=200)
    def test_windows_are_ordered_disjoint_and_budgeted(
        self, span, start, sample_bytes, strides
    ):
        end = start + span
        windows = _sample_windows(start, end, sample_bytes, strides)
        assert windows
        cursor = start
        total = 0
        for window_start, window_end in windows:
            assert start <= window_start < window_end <= end
            assert window_start >= cursor  # ordered, non-overlapping
            cursor = window_end
            total += window_end - window_start
        # The budget is respected up to the 1-byte-per-window floor.
        assert total <= max(sample_bytes, strides)

    @given(
        span=st.integers(1, 100_000),
        start=st.integers(0, 50_000),
        sample_bytes=st.integers(1, 20_000),
    )
    @settings(max_examples=100)
    def test_one_stride_is_the_old_head_window(
        self, span, start, sample_bytes
    ):
        end = start + span
        assert _sample_windows(start, end, sample_bytes, 1) == [
            (start, min(end, start + sample_bytes))
        ]

    def test_small_split_collapses_to_a_single_window(self):
        # A split no larger than the budget needs no striding at all.
        assert _sample_windows(0, 100, 200, 4) == [(0, 100)]

    # -- the boundary-mass property the fix exists for -----------------
    RECORD = 16
    COUNT = 4096
    RUN = 512
    SAMPLERS = 8
    PARTITIONS = 8
    SAMPLE_BYTES = 64 * RECORD

    def max_partition_share(self, keys, strides):
        """Max partition mass share after sampling with ``strides``
        windows per (run-aligned) sampler split — the sampler's byte
        windows replayed over an in-memory key list."""
        total = len(keys) * self.RECORD
        per_split = total // self.SAMPLERS
        sampled = []
        for sampler in range(self.SAMPLERS):
            start = sampler * per_split
            for window_start, window_end in _sample_windows(
                start, start + per_split, self.SAMPLE_BYTES, strides
            ):
                sampled.extend(
                    keys[window_start // self.RECORD : window_end // self.RECORD]
                )
        boundaries = choose_weighted_boundaries(sampled, self.PARTITIONS)
        buckets = spread(keys, boundaries)
        return max(len(bucket) for bucket in buckets) / len(keys)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_strided_windows_fix_sorted_runs_boundary_bias(self, seed):
        """On run-aligned splits the head window samples only each run's
        lowest keys: boundaries collapse into the bottom quantiles and
        one partition takes ~90% of the mass.  Four strides over the
        *same* budget keep the heaviest partition near its fair share."""
        spec = SkewSpec(distribution="sorted-runs", run_length=self.RUN)
        keys = skewed_keys(self.COUNT, spec, random.Random(seed))
        head_share = self.max_partition_share(keys, strides=1)
        strided_share = self.max_partition_share(keys, strides=4)
        assert strided_share <= head_share
        assert head_share > 0.75  # the bias is catastrophic...
        assert strided_share < 0.40  # ...and striding removes it


class TestAssignBalanced:
    def test_balances_skewed_weights(self):
        weights = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        assignment = assign_balanced(weights, 2)
        loads = [0.0, 0.0]
        for weight, bin_index in zip(weights, assignment):
            loads[bin_index] += weight
        assert max(loads) == 8.0  # the indivisible hot item alone

    def test_deterministic(self):
        weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert assign_balanced(weights, 3) == assign_balanced(weights, 3)

    @given(
        weights=st.lists(st.floats(0, 100), min_size=0, max_size=64),
        bins=st.integers(1, 8),
    )
    @settings(max_examples=100)
    def test_property_within_lpt_bound(self, weights, bins):
        """LPT's classic guarantee: max load <= ideal * 4/3 + max item."""
        assignment = assign_balanced(weights, bins)
        assert len(assignment) == len(weights)
        assert all(0 <= b < bins for b in assignment)
        loads = [0.0] * bins
        for weight, bin_index in zip(weights, assignment):
            loads[bin_index] += weight
        ideal = sum(weights) / bins
        biggest = max(weights, default=0.0)
        assert max(loads, default=0.0) <= ideal * 4 / 3 + biggest + 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ShuffleError):
            assign_balanced([1.0], 0)
        with pytest.raises(ShuffleError):
            assign_balanced([-1.0], 2)
