"""Key sampling and range-boundary selection for the shuffle.

Primula partitions by *range* so reducer outputs concatenate into a
globally sorted result.  Boundaries come from a cheap sampling pass:
each sampler reads a small window of its input split, extracts record
keys, and the driver picks quantiles over the pooled sample.

Two boundary modes exist:

* :func:`choose_boundaries` — classic positional quantiles.  Fast and
  exact on distinct keys, but on duplicate-heavy samples the quantile
  positions can land on the *same* key repeatedly, emitting duplicate
  boundaries: every partition strictly between two equal boundaries is
  guaranteed empty, and all of the duplicated key's mass collapses onto
  one reducer.
* :func:`choose_weighted_boundaries` — duplicate-aware quantiles.  The
  sample is grouped into distinct-key runs and cut points are chosen
  between runs, as close to the ideal mass quantiles as the duplicate
  structure allows.  Boundaries are strictly ascending whenever the
  sample has enough distinct keys, so skewed (Zipf, heavy-duplicate)
  workloads degrade to "one hot key per reducer" instead of "all hot
  keys plus their neighbours on one reducer".  The shuffle operators
  use this mode.

:func:`estimate_partition_weights` turns the same pooled sample into a
per-partition mass estimate — the planner-side skew signal that the
sharded relay fleet uses for load-aware routing and the reports surface
as predicted partition bytes.
"""

from __future__ import annotations

import bisect
import itertools
import typing as t

from repro.errors import ShuffleError


def reservoir_sample(items: t.Iterable[t.Any], capacity: int, rng) -> list[t.Any]:
    """Classic reservoir sampling: ``capacity`` items, uniform over input."""
    if capacity < 1:
        raise ShuffleError(f"sample capacity must be >= 1, got {capacity}")
    reservoir: list[t.Any] = []
    for index, item in enumerate(items):
        if index < capacity:
            reservoir.append(item)
        else:
            slot = rng.randint(0, index)
            if slot < capacity:
                reservoir[slot] = item
    return reservoir


def choose_boundaries(sampled_keys: t.Sequence[t.Any], partitions: int) -> list[t.Any]:
    """Pick ``partitions - 1`` split points from pooled sample keys.

    Returns an ascending list of boundary keys; partition ``i`` holds the
    records with ``boundary[i-1] <= key < boundary[i]``.  With fewer
    distinct keys than partitions, some partitions simply end up empty —
    correctness is preserved, parallelism degrades gracefully.
    """
    if partitions < 1:
        raise ShuffleError(f"partitions must be >= 1, got {partitions}")
    if partitions == 1:
        return []
    if not sampled_keys:
        raise ShuffleError("cannot choose boundaries from an empty sample")
    ordered = sorted(sampled_keys)
    boundaries = []
    for index in range(1, partitions):
        position = (index * len(ordered)) // partitions
        boundaries.append(ordered[position])
    return boundaries


def choose_weighted_boundaries(
    sampled_keys: t.Sequence[t.Any], partitions: int
) -> list[t.Any]:
    """Duplicate-aware quantiles: split sample *mass* across partitions.

    The sorted sample is grouped into runs of equal keys; cut points may
    only fall between runs (equal keys are indivisible — they must land
    on one reducer), and each cut is placed where the cumulative run
    mass is closest to the ideal quantile ``i * n / partitions``, while
    staying strictly after the previous cut.  The emitted boundaries are
    therefore strictly ascending distinct keys whenever the sample has
    at least ``partitions`` distinct keys — no guaranteed-empty
    partitions, and a hot key caps its reducer's share at its own mass
    instead of absorbing its neighbours too.

    With fewer distinct keys than partitions the surplus boundaries
    repeat the largest key, parking the surplus partitions empty at the
    *end* (every real key still compares below-or-equal, so coverage and
    ordering are preserved).  On an all-distinct sample this is the
    classic quantile split up to cut placement.
    """
    if partitions < 1:
        raise ShuffleError(f"partitions must be >= 1, got {partitions}")
    if partitions == 1:
        return []
    if not sampled_keys:
        raise ShuffleError("cannot choose boundaries from an empty sample")
    ordered = sorted(sampled_keys)
    total = len(ordered)
    # Distinct-key runs and the cumulative count before each run.
    run_keys: list[t.Any] = []
    prefix: list[int] = []  # prefix[j] = samples strictly before run j
    seen = 0
    for key, group in itertools.groupby(ordered):
        run_keys.append(key)
        prefix.append(seen)
        seen += len(list(group))

    boundaries: list[t.Any] = []
    cut = 1  # candidate run index; a cut before run j emits boundary run_keys[j]
    for index in range(1, partitions):
        if cut >= len(run_keys):
            # Out of distinct keys: surplus partitions park empty at the
            # end, after every real key.
            boundaries.append(run_keys[-1])
            continue
        target = index * total / partitions
        # Reserve one candidate per *remaining* cut, so a greedy early
        # cut can never starve a later one of a distinct boundary —
        # clamped to at least one candidate when supply is short (the
        # next run in order, keeping boundaries monotone).
        remaining_after = (partitions - 1) - index
        upper = max(cut + 1, min(len(run_keys), len(run_keys) - remaining_after))
        best = cut
        for candidate in range(cut, upper):
            if abs(prefix[candidate] - target) < abs(prefix[best] - target):
                best = candidate
            if prefix[candidate] >= target:
                break  # later cuts only move further from the target
        boundaries.append(run_keys[best])
        cut = best + 1
    return boundaries


def estimate_partition_weights(
    sampled_keys: t.Sequence[t.Any], boundaries: t.Sequence[t.Any]
) -> list[float]:
    """Fraction of sample mass per partition (length ``len(boundaries)+1``).

    The sample is the only data-dependent signal the driver has before
    the map wave, so this is the shuffle's *predicted* load profile:
    multiplied by the dataset's logical size it estimates each
    reducer's bytes, which the sharded relay fleet uses to rebalance
    shard routing and the planners use to price the straggler reducer.
    """
    if not sampled_keys:
        raise ShuffleError("cannot estimate partition weights from an empty sample")
    counts = [0] * (len(boundaries) + 1)
    for key in sampled_keys:
        counts[partition_index(key, boundaries)] += 1
    total = len(sampled_keys)
    return [count / total for count in counts]


def partition_skew_of(sizes: t.Sequence[float]) -> float:
    """Max-over-mean partition size: 1.0 is perfectly balanced.

    The scalar skew signal shared by the measured reports
    (``ExchangeReport.partition_skew`` over reducer output bytes) and
    the planners' straggler term (the hot reducer handles
    ``skew * size / workers`` bytes).
    """
    if not sizes:
        return 1.0
    mean = sum(sizes) / len(sizes)
    if mean <= 0:
        return 1.0
    return max(sizes) / mean


def partition_index(key: t.Any, boundaries: t.Sequence[t.Any]) -> int:
    """Which partition ``key`` belongs to.

    ``bisect_right`` semantics: a key equal to ``boundaries[i]`` lands
    in partition ``i + 1`` (partition ``i`` holds ``boundary[i-1] <=
    key < boundary[i]``).  The C bisect compares with ``<`` exactly
    like the hand-rolled binary search it replaced, so any totally
    ordered key type works.
    """
    return bisect.bisect_right(boundaries, key)
