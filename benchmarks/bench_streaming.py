"""Benchmark S10: streaming vs staged map→reduce exchange.

The staged shuffle pays a hard wave barrier on every substrate: no
reducer starts before the last mapper finished publishing.  The
streaming subsystem (`repro.shuffle.streaming`) removes it — the reduce
wave launches with the map wave and reducers consume partitions through
each substrate's readiness protocol (manifest polling on object
storage, set notification on the cache, rendezvous pulls on the relay).

S10 runs the same seeded 3.5 GB sort staged and streaming on three
substrates and asserts the subsystem's contract:

* **byte parity** — every run (staged, streaming, streaming with a
  bounded buffer) emits the identical sorted artifact; streaming moves
  *when* bytes flow, never the bytes;
* **strict win** — at byte parity, streaming strictly beats staged on
  at least one substrate (the relay's rendezvous pulls make it the
  natural fit), with positive measured map/reduce wall-clock overlap;
* **backpressure** — when the reducer buffers are bounded below what
  the map wave delivers, backpressure waits are recorded (> 0) and the
  buffer high watermark stays in the bound's neighbourhood, while byte
  parity still holds;
* **no leaks** — the relay reports zero residual reservations after
  every streaming run.
"""

#: ``sweep_streaming``'s chunk size: the title of its table names it,
#: its rows do not.
CHUNK_MB = 32.0


def test_streaming_sweep(regenerate):
    rows = regenerate("sweep-streaming")

    by_key = {(row["strategy"], row["mode"]): row for row in rows}
    strategies = sorted({row["strategy"] for row in rows})
    workers = rows[0]["workers"]

    # Byte parity across every (substrate, mode, buffer) combination.
    assert len({row["output_digest"] for row in rows}) == 1

    # Streaming strictly beats staged at byte parity on >= 1 substrate;
    # the relay's rendezvous pulls make it the guaranteed one.
    wins = [
        strategy
        for strategy in strategies
        if by_key[(strategy, "streaming")]["sort_latency_s"]
        < by_key[(strategy, "staged")]["sort_latency_s"]
    ]
    assert "relay" in wins and wins, "streaming never beat staged"

    for strategy in strategies:
        staged = by_key[(strategy, "staged")]
        streaming = by_key[(strategy, "streaming")]
        bounded = by_key[(strategy, "streaming-bounded")]
        # The waves genuinely overlapped...
        assert streaming["overlap_s"] > 0.0
        # ...and staged runs report no overlap (the barrier is real).
        assert staged["overlap_s"] == 0.0
        # Ample buffers never push back; bounded-below-throughput ones do.
        assert streaming["backpressure_waits"] == 0
        assert bounded["backpressure_waits"] > 0
        # The buffers were genuinely exercised, and the bounded
        # watermark respects the admission gate's hard ceiling: the
        # bound plus one in-flight segment per mapper (the gate admits
        # concurrent fetchers that each add at most one ~chunk/W
        # segment before re-checking).  Throttling realigns arrivals,
        # so it may sit slightly above or below the free-running peak.
        per_mapper_segment_mb = CHUNK_MB / workers
        assert (
            0.0
            < bounded["buffer_hwm_mb"]
            <= bounded["buffer_mb"] + workers * per_mapper_segment_mb
        )
        # Zero residual relay reservations once the job settled.
        assert staged["residual_bytes"] == 0.0
        assert streaming["residual_bytes"] == 0.0
        assert bounded["residual_bytes"] == 0.0


def test_streaming_pays_for_overlap_with_requests(regenerate):
    """Streaming is not free: the readiness protocol costs requests
    (manifests + polls on COS), which is why the planner charges a
    per-chunk overhead instead of assuming perfect pipelining."""
    by_key = {
        (row["strategy"], row["mode"]): row for row in regenerate("sweep-streaming")
    }
    cos_staged = by_key[("objectstore", "staged")]
    cos_streaming = by_key[("objectstore", "streaming")]
    assert cos_streaming["sort_cost_usd"] > cos_staged["sort_cost_usd"]
