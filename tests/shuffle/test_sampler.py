"""Unit and property tests for sampling and boundary selection."""

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShuffleError
from repro.shuffle import choose_boundaries, partition_index, reservoir_sample


class TestReservoirSample:
    def test_short_input_kept_entirely(self):
        rng = random.Random(1)
        assert sorted(reservoir_sample(range(5), 10, rng)) == [0, 1, 2, 3, 4]

    def test_capacity_respected(self):
        rng = random.Random(1)
        sample = reservoir_sample(range(1000), 32, rng)
        assert len(sample) == 32
        assert all(0 <= item < 1000 for item in sample)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ShuffleError):
            reservoir_sample(range(5), 0, random.Random(1))

    def test_deterministic_for_seed(self):
        a = reservoir_sample(range(1000), 16, random.Random(7))
        b = reservoir_sample(range(1000), 16, random.Random(7))
        assert a == b

    def test_roughly_uniform(self):
        """Mean of many samples approaches the population mean."""
        rng = random.Random(3)
        means = []
        for _ in range(200):
            sample = reservoir_sample(range(1000), 20, rng)
            means.append(sum(sample) / len(sample))
        grand_mean = sum(means) / len(means)
        assert grand_mean == pytest.approx(499.5, abs=25)


class TestChooseBoundaries:
    def test_single_partition_no_boundaries(self):
        assert choose_boundaries([5, 1, 3], 1) == []

    def test_boundaries_are_ascending_quantiles(self):
        keys = list(range(100))
        boundaries = choose_boundaries(keys, 4)
        assert boundaries == [25, 50, 75]

    def test_empty_sample_rejected(self):
        with pytest.raises(ShuffleError):
            choose_boundaries([], 4)

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ShuffleError):
            choose_boundaries([1], 0)

    def test_few_distinct_keys_degrade_gracefully(self):
        boundaries = choose_boundaries([7, 7, 7], 4)
        assert len(boundaries) == 3  # duplicates allowed; partitions may be empty

    @given(
        keys=st.lists(st.integers(-1000, 1000), min_size=1, max_size=500),
        partitions=st.integers(1, 16),
    )
    def test_property_boundaries_sorted_and_sized(self, keys, partitions):
        boundaries = choose_boundaries(keys, partitions)
        assert len(boundaries) == partitions - 1
        assert boundaries == sorted(boundaries)


class TestPartitionIndex:
    def test_no_boundaries_single_partition(self):
        assert partition_index(42, []) == 0

    def test_standard_ranges(self):
        boundaries = [10, 20, 30]
        assert partition_index(5, boundaries) == 0
        assert partition_index(10, boundaries) == 1  # boundary goes right
        assert partition_index(15, boundaries) == 1
        assert partition_index(29, boundaries) == 2
        assert partition_index(30, boundaries) == 3
        assert partition_index(99, boundaries) == 3

    @given(
        keys=st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=300),
        partitions=st.integers(1, 12),
    )
    def test_property_partitioning_preserves_order(self, keys, partitions):
        """Records in partition i all sort before records in partition i+1
        (ties at boundaries go right, so cross-partition order holds)."""
        boundaries = choose_boundaries(keys, partitions)
        buckets = {}
        for key in keys:
            buckets.setdefault(partition_index(key, boundaries), []).append(key)
        indices = sorted(buckets)
        for left, right in zip(indices, indices[1:]):
            assert max(buckets[left]) <= min(buckets[right])

    @given(keys=st.lists(st.integers(), min_size=1, max_size=200))
    def test_property_concatenated_partitions_sort_globally(self, keys):
        boundaries = choose_boundaries(keys, 4)
        buckets = [[] for _ in range(4)]
        for key in keys:
            buckets[partition_index(key, boundaries)].append(key)
        concatenated = [k for bucket in buckets for k in sorted(bucket)]
        assert concatenated == sorted(keys)


class TestPartitionIndexBisect:
    """PR 8 satellite: ``partition_index`` is now ``bisect_right``.

    The reference below is the O(P) linear scan the original
    implementation was defined against — the property pins exact
    equivalence on every (key, boundaries) pair, including duplicated
    boundaries and keys outside the boundary range.
    """

    @staticmethod
    def _linear_scan(key, boundaries):
        for index, boundary in enumerate(boundaries):
            if key < boundary:
                return index
        return len(boundaries)

    @given(
        key=st.integers(-(10**9), 10**9),
        boundaries=st.lists(st.integers(-(10**6), 10**6), max_size=32).map(sorted),
    )
    def test_property_matches_linear_scan(self, key, boundaries):
        assert partition_index(key, boundaries) == self._linear_scan(
            key, boundaries
        )

    @given(
        boundaries=st.lists(
            st.integers(0, 50), min_size=1, max_size=16
        ).map(sorted),
    )
    def test_property_boundary_keys_go_right(self, boundaries):
        for boundary in boundaries:
            index = partition_index(boundary, boundaries)
            assert index == self._linear_scan(boundary, boundaries)
            # bisect_right semantics: the key equal to a boundary lands
            # strictly after every copy of that boundary.
            assert boundaries[index - 1] == boundary

    def test_works_with_reverse_ordered_keys(self):
        """Any comparable key works, including one that orders its
        values backwards."""

        @functools.total_ordering
        class Reversed:
            def __init__(self, value):
                self.value = value

            def __lt__(self, other):
                return other.value < self.value

            def __eq__(self, other):
                return self.value == other.value

        boundaries = [Reversed(30), Reversed(20), Reversed(10)]
        assert partition_index(Reversed(40), boundaries) == 0
        assert partition_index(Reversed(30), boundaries) == 1
        assert partition_index(Reversed(25), boundaries) == 1
        assert partition_index(Reversed(5), boundaries) == 3
