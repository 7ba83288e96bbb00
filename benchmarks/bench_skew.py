"""Benchmark S11: skew-aware shuffle under Zipfian key distributions.

Every earlier bench sorts uniform random keys, so range boundaries land
near-equal partitions and the relay fleet's CRC key routing never sees
a hot shard.  S11 sorts the *same seeded dataset* under a Zipf key law
(a handful of hot duplicate keys owning most of the mass) and contrasts
three configurations per distribution: the object-storage baseline, the
sharded relay fleet with naive CRC-32 routing, and the fleet with
load-aware routing (planned partition bytes spread across shards with a
deterministic LPT assignment — the ``ShardedRelayExchange`` default).

Asserted contract:

* **byte parity** — routing moves bytes between shards, never changes
  them: all three configurations of one distribution emit identical
  sorted artifacts;
* **CRC saturates a shard** — on the Zipf workload the naive fleet
  parks well over its fair share of exchange bytes on one shard, while
  the rebalanced fleet stays at ~1/shards; on the uniform control the
  two routings are equivalent;
* **strict win** — at byte parity, the rebalanced fleet strictly beats
  the CRC fleet on the Zipf workload (the hot shard's NIC is the
  exchange bottleneck the LPT assignment dissolves);
* **skew is measured and predicted** — ``ExchangeReport.partition_skew``
  (max/mean reducer bytes) blows up on the Zipf rows and the sampling
  pass's estimate agrees; the skew-aware planner's prediction tracks
  the measured latency within the same 2x tolerance the worker-sweep
  bench holds the uniform model to;
* **no leaks** — zero residual relay reservations on every fleet row.
"""

import math

import pytest


def test_skew_sweep(regenerate):
    rows = regenerate("sweep-skew")

    by_key = {(row["distribution"], row["routing"]): row for row in rows}
    shards = max(row["shards"] for row in rows)

    for distribution in ("uniform", "zipf"):
        base = by_key[(distribution, "-")]
        crc = by_key[(distribution, "crc")]
        rebalanced = by_key[(distribution, "rebalanced")]
        # Byte parity: routing (and the substrate) never changes bytes.
        assert base["output_digest"] == crc["output_digest"]
        assert base["output_digest"] == rebalanced["output_digest"]
        # The same dataset reports the same measured skew everywhere.
        assert crc["partition_skew"] == pytest.approx(base["partition_skew"])
        assert rebalanced["partition_skew"] == pytest.approx(
            base["partition_skew"]
        )
        # Zero residual relay reservations once each run settled.
        assert crc["residual_bytes"] == 0.0
        assert rebalanced["residual_bytes"] == 0.0
        # The rebalanced fleet always holds ~its fair share per shard.
        assert rebalanced["hot_shard_share"] == pytest.approx(
            1.0 / shards, abs=0.05
        )

    uniform_crc = by_key[("uniform", "crc")]
    uniform_reb = by_key[("uniform", "rebalanced")]
    zipf_crc = by_key[("zipf", "crc")]
    zipf_reb = by_key[("zipf", "rebalanced")]

    # The Zipf dataset is genuinely skewed (a hot indivisible key owns
    # most of the mass) and the sampling pass detected it.
    assert by_key[("zipf", "-")]["partition_skew"] > 4.0
    assert by_key[("uniform", "-")]["partition_skew"] < 1.5
    assert zipf_crc["predicted_skew"] == pytest.approx(
        zipf_crc["partition_skew"], rel=0.25
    )

    # Naive CRC routing saturates one shard on the Zipf workload...
    assert zipf_crc["hot_shard_share"] > zipf_reb["hot_shard_share"] + 0.08
    assert zipf_crc["hot_shard_share"] > 0.6
    # ...and the rebalanced fleet strictly beats it at byte parity.
    assert zipf_reb["sort_latency_s"] < zipf_crc["sort_latency_s"]
    # On the uniform control the two routings are equivalent: CRC is
    # only naive about *bytes*, which uniform keys spread by themselves.
    assert uniform_reb["sort_latency_s"] == pytest.approx(
        uniform_crc["sort_latency_s"], rel=0.05
    )
    assert uniform_crc["hot_shard_share"] == pytest.approx(
        1.0 / shards, abs=0.05
    )


def test_skew_aware_planner_tracks_measurement(regenerate):
    """The skew-priced relay model stays within the 2x envelope the
    worker-sweep bench holds the uniform model to — on both the uniform
    control and the 8x-skewed Zipf workload."""
    for row in regenerate("sweep-skew"):
        if row["strategy"] != "sharded-relay":
            continue
        assert not math.isnan(row["predicted_s"])
        ratio = row["sort_latency_s"] / row["predicted_s"]
        assert 0.5 < ratio < 2.0, (
            f"{row['distribution']}/{row['routing']}: ratio {ratio:.2f}"
        )
