"""Streaming exchange subsystem: parity, overlap, backpressure, pricing.

The contract under test: the streaming execution mode changes *when*
bytes move — the reduce wave overlaps the map wave — but never the
bytes (artifacts stay identical to the staged runs on every substrate),
bounded reducer buffers exert measurable backpressure, the uniform
report carries the streaming observables, and the planner/selector
price the mode as a decision variable.
"""

import contextlib
import gc
import weakref

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.errors import ShuffleError
from repro.executor import FunctionExecutor
from repro.shuffle import (
    EXCHANGE_MODES,
    CacheExchange,
    FixedWidthCodec,
    ObjectStoreExchange,
    RelayExchange,
    ShardedRelayExchange,
    ShuffleSort,
    StreamConfig,
    choose_exchange_substrate,
    predict_shuffle_time,
    predict_streaming_shuffle_time,
    streaming_chunk_count,
)
from repro.shuffle.planner import ShuffleCostModel
from tests.payloads import fixed_payload

SEED = 13
RECORDS = 3000
WORKERS = 4
SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")


def run_sort(substrate, payload, streaming, buffer_bytes=None, chunk_bytes=4096.0):
    """One seeded sort on a fresh region; returns (runs, result, op, relay)."""
    cloud = Cloud.fresh(seed=SEED, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    stream = StreamConfig(
        chunk_bytes=chunk_bytes, buffer_bytes=buffer_bytes, poll_interval_s=0.05
    )
    relay = None
    if substrate == "objectstore":
        operator = (
            ShuffleSort(
                executor, codec, backend=ObjectStoreExchange(stream=stream)
            )
            if streaming
            else ShuffleSort(executor, codec)
        )
    elif substrate == "cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        operator = (
            ShuffleSort(
                executor, codec,
                backend=CacheExchange(cluster, stream=stream),
            )
            if streaming
            else ShuffleSort(executor, codec, backend=CacheExchange(cluster))
        )
    elif substrate == "sharded-relay":
        relay = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(
            executor, codec,
            backend=ShardedRelayExchange(relay, stream=stream),
        )
    else:
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = (
            ShuffleSort(
                executor, codec, backend=RelayExchange(relay, stream=stream)
            )
            if streaming
            else ShuffleSort(executor, codec, backend=RelayExchange(relay))
        )

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=WORKERS))

    result = cloud.sim.run_process(driver())
    runs = [cloud.store.peek("data", run.key) for run in result.runs]
    return runs, result, operator, relay


@contextlib.contextmanager
def collector_off():
    """Cycle collector off for the block: what is freed is freed by refcount."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def staged_baseline():
    payload = fixed_payload(RECORDS, SEED)
    runs, result, operator, _relay = run_sort("objectstore", payload, streaming=False)
    return payload, runs, result


class TestPollMissesAreNotGarbage:
    """A manifest poll that finds nothing is a value, not a failure.

    At a logical scale where the map wave is slow, the object-store
    reducers poll manifests that are not there yet; a shorter interval
    means proportionally more misses.  What the cycle collector is left
    with after the sort must not depend on how many there were (when a
    miss was a ``NoSuchKey`` crossing two process boundaries, each one
    stranded some forty objects).
    """

    @staticmethod
    def sort_counting_misses(poll_interval_s):
        profile = ibm_us_east(deterministic=True)
        profile.logical_scale = 4096.0
        cloud = Cloud.fresh(seed=SEED, profile=profile)
        cloud.store.ensure_bucket("data")
        misses = []
        get_op = cloud.store._get_op

        # A view's request runs the store's GET body inline, so a miss
        # is counted where that body answers ``None``.
        def counting_get_op(bucket, key, *args):
            payload = yield from get_op(bucket, key, *args)
            if payload is None:
                misses.append(key)
            return payload

        cloud.store._get_op = counting_get_op
        operator = ShuffleSort(
            FunctionExecutor(cloud),
            FixedWidthCodec(record_size=16, key_bytes=8),
            backend=ObjectStoreExchange(
                stream=StreamConfig(
                    chunk_bytes=4096.0 * 4096,
                    buffer_bytes=None,
                    poll_interval_s=poll_interval_s,
                )
            ),
        )
        payload = fixed_payload(RECORDS, SEED)

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield operator.sort("data", "input.bin", workers=WORKERS))

        result = cloud.sim.run_process(driver())
        assert result.total_records == RECORDS
        return len(misses)

    def test_cyclic_garbage_does_not_grow_with_the_miss_count(self):
        counts = {}
        with collector_off():
            for interval in (0.4, 0.025):
                gc.collect()
                misses = self.sort_counting_misses(interval)
                counts[interval] = (misses, gc.collect())
        (few, garbage_few), (many, garbage_many) = counts[0.4], counts[0.025]
        assert few > 0 and many >= 3 * few  # ≈ N and ≈ 4N
        # The region itself is cyclic (simulator, services, link), so
        # neither count is zero; it is the same region both times.
        assert garbage_many <= garbage_few + (many - few) // 10


@pytest.mark.parametrize(
    "substrate, streaming",
    # run_sort builds the fleet sort in streaming mode only.
    [(name, mode) for name in SUBSTRATES for mode in (False, True)
     if mode or name != "sharded-relay"],
)
def test_a_finalized_region_is_freed_without_the_collector(substrate, streaming):
    """Dropping a finished region frees its stored payloads at once.

    Nothing cyclic may hold the object store: not an activation's
    context through its own relay hooks, not a VM through its service.
    (The simulator itself stays cyclic — pending timers point back at
    it — but holds no payload.)
    """
    payload = fixed_payload(RECORDS, SEED)
    with collector_off():
        _runs, result, operator, relay = run_sort(substrate, payload, streaming)
        cloud = operator.executor.cloud
        if relay is not None:
            relay.terminate()  # what a substrate's release does
        cloud.finalize()
        store = weakref.ref(cloud.store)
        del result, operator, relay, cloud
        assert store() is None


class TestStreamingParity:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_streaming_artifact_is_byte_identical_to_staged(
        self, staged_baseline, substrate
    ):
        payload, baseline, _ = staged_baseline
        runs, result, operator, relay = run_sort(substrate, payload, streaming=True)
        assert runs == baseline, f"streaming {substrate} diverged from staged"
        assert result.total_records == RECORDS
        if relay is not None:
            assert relay.residual_reservation_bytes() == 0.0
            assert relay.active_flows == 0
            relay.check_memory_accounting()

    # objectstore is excluded: at this toy scale its short map wave
    # genuinely finishes inside the reducers' startup window, so the
    # (honestly measured, execution-window) overlap is zero — the
    # at-scale COS overlap is S10's assertion.  The notify substrates
    # overlap even here because their map waves are paced by rendezvous
    # round trips.
    @pytest.mark.parametrize("substrate", ["cache", "relay", "sharded-relay"])
    def test_waves_overlap_and_report_says_so(self, staged_baseline, substrate):
        payload, _baseline, _ = staged_baseline
        _runs, _result, operator, _relay = run_sort(
            substrate, payload, streaming=True
        )
        report = operator.report
        assert report.mode == "streaming"
        assert report.overlap_s > 0.0
        assert report.stream_chunks > WORKERS  # multiple chunks per mapper

    def test_staged_report_shows_no_overlap(self, staged_baseline):
        _payload, _runs, result = staged_baseline
        # Re-run to grab the operator (module fixture only kept results).
        payload = fixed_payload(RECORDS, SEED)
        _r, _res, operator, _relay = run_sort("relay", payload, streaming=False)
        report = operator.report
        assert report.mode == "staged"
        assert report.overlap_s == 0.0
        assert report.buffer_high_watermark_bytes == 0.0


class TestBackpressure:
    def test_bounded_buffer_records_waits_and_preserves_parity(
        self, staged_baseline
    ):
        payload, baseline, _ = staged_baseline
        runs, _result, operator, relay = run_sort(
            "relay", payload, streaming=True, buffer_bytes=2048.0
        )
        report = operator.report
        assert runs == baseline
        assert report.buffer_backpressure_waits > 0
        assert report.buffer_wait_s >= 0.0
        assert report.buffer_high_watermark_bytes > 0.0
        assert relay.residual_reservation_bytes() == 0.0

    def test_unbounded_buffer_never_waits(self, staged_baseline):
        payload, _baseline, _ = staged_baseline
        _runs, _result, operator, _relay = run_sort(
            "relay", payload, streaming=True, buffer_bytes=None
        )
        assert operator.report.buffer_backpressure_waits == 0

    def test_relay_rendezvous_pull_parks_until_publish(self):
        """The primitive under the streaming reducer: a pull_wait issued
        before the key exists parks (counted) and resolves with the
        pushed bytes once the producer commits."""
        cloud = Cloud.fresh(seed=SEED, profile=ibm_us_east(deterministic=True))
        relay = relay_ready(cloud.vms, "bx2-8x32")
        client = relay.client()

        def consumer():
            return (yield client.pull_wait("late-key"))

        def producer():
            yield cloud.sim.timeout(5.0)
            yield client.push("late-key", b"payload")

        consume = cloud.sim.process(consumer(), name="consumer")
        cloud.sim.process(producer(), name="producer")
        value = cloud.sim.run(until=consume.completion)
        assert value == b"payload"
        assert cloud.sim.now >= 5.0  # genuinely waited for the producer
        assert relay.stats.rendezvous_waits == 1
        assert relay.stats.pulls == 1


class TestStreamingOperatorGuards:
    def test_mode_is_a_field_of_the_backend(self):
        """One backend class per substrate: ``stream=`` alone selects the
        mode, the worker stages and the (mode-specific) name strings."""
        staged = ObjectStoreExchange()
        streaming = ObjectStoreExchange(stream=StreamConfig())
        assert type(staged) is type(streaming)
        assert (staged.mode, streaming.mode) == ("staged", "streaming")
        assert staged.mapper_stage() is not streaming.mapper_stage()
        assert staged.labels[staged.mode] == ("shuffle", "shuffle-out")
        assert streaming.labels[streaming.mode] == (
            "streamshuffle", "streaming-shuffle"
        )

    def test_report_as_dict_carries_streaming_fields(self, staged_baseline):
        payload, _baseline, _ = staged_baseline
        _runs, _result, operator, _relay = run_sort(
            "relay", payload, streaming=True
        )
        flat = operator.report.as_dict()
        assert flat["overlap_s"] > 0.0
        assert "buffer_high_watermark_bytes" in flat
        assert flat["mode"] == "streaming"


class TestExchangeReportFields:
    """Unit tests of the uniform report's streaming observables."""

    def test_defaults_are_staged_shaped(self):
        from repro.shuffle import ExchangeReport

        report = ExchangeReport(
            substrate="objectstore", workers=4, predicted_s=None, actual_s=1.0,
            provisioned_usd=0.0,
        )
        assert report.overlap_s == 0.0
        assert report.buffer_high_watermark_bytes == 0.0
        flat = report.as_dict()
        assert flat["overlap_s"] == 0.0
        assert flat["buffer_high_watermark_bytes"] == 0.0

    def test_backend_report_threads_observations_and_extras(self):
        backend = ObjectStoreExchange()
        report = backend.report(
            4, None, 2.5,
            overlap_s=1.25,
            buffer_high_watermark_bytes=4096.0,
            extra={"buffer_backpressure_waits": 3},
        )
        assert report.overlap_s == 1.25
        assert report.buffer_high_watermark_bytes == 4096.0
        assert report.buffer_backpressure_waits == 3  # extras passthrough
        assert report.mode == "staged"  # the backend's mode, always set
        flat = report.as_dict()
        assert flat["overlap_s"] == 1.25
        assert flat["mode"] == "staged"

    def test_extras_never_shadow_the_common_fields(self):
        # Shadowing used to be silently dropped in as_dict(); it is now
        # rejected at construction so the attribute passthrough and the
        # flattened dict can never disagree.
        backend = ObjectStoreExchange()
        with pytest.raises(ValueError, match="shadow"):
            backend.report(4, None, 2.5, extra={"overlap_s": 99.0})

    def test_streaming_backend_reports_streaming_mode(self):
        backend = ObjectStoreExchange(stream=StreamConfig())
        assert backend.report(4, None, 1.0).mode == "streaming"

    def test_streaming_backend_plans_with_the_streaming_model(self):
        """An auto-planned streaming sort must size its wave for the
        mode it runs: the plan comes from the transformed (pipelined)
        curve, so predicted_s is comparable to the streaming actual_s."""
        profile = ibm_us_east()
        size = 3.5 * (1 << 30)
        staged_plan = ObjectStoreExchange().plan(size, profile, 64)
        streaming_plan = ObjectStoreExchange(stream=StreamConfig()).plan(
            size, profile, 64
        )
        assert streaming_plan.predicted_s < staged_plan.predicted_s
        chosen = streaming_plan.point(streaming_plan.workers)
        assert "pipelined_exchange" in chosen.breakdown


class TestStreamingPlanner:
    PROFILE = ibm_us_east()
    COST = ShuffleCostModel()
    SIZE = 3.5 * (1 << 30)

    def test_degenerates_to_staged_at_one_chunk_and_zero_overhead(self):
        staged = predict_shuffle_time(self.SIZE, 16, self.PROFILE, self.COST)
        streaming = predict_streaming_shuffle_time(staged, chunks=1)
        assert streaming.total_s == pytest.approx(staged.total_s)

    def test_more_chunks_overlap_more_until_overhead_bites(self):
        staged = predict_shuffle_time(self.SIZE, 16, self.PROFILE, self.COST)
        free = [
            predict_streaming_shuffle_time(staged, chunks).total_s
            for chunks in (1, 2, 8, 64)
        ]
        assert free == sorted(free, reverse=True)  # monotone improvement
        # With a per-chunk overhead, very fine chunking loses again.
        costly = predict_streaming_shuffle_time(
            staged, chunks=10_000, per_chunk_overhead_s=0.01
        )
        assert costly.total_s > staged.total_s

    def test_streaming_never_beats_the_slower_side(self):
        staged = predict_shuffle_time(self.SIZE, 16, self.PROFILE, self.COST)
        streaming = predict_streaming_shuffle_time(staged, chunks=1000)
        b = staged.breakdown
        floor = (
            b["startup"] + b["map_read"]
            + max(b["partition_cpu"] + b["map_write"],
                  b["reduce_fetch"] + b["sort_cpu"])
            + b["reduce_write"] + b["driver"]
        )
        assert streaming.total_s >= floor - 1e-9

    def test_chunk_count_and_validation(self):
        assert streaming_chunk_count(64 * (1 << 20), 4, 16 * (1 << 20)) == 1
        assert streaming_chunk_count(512 * (1 << 20), 4, 16 * (1 << 20)) == 8
        staged = predict_shuffle_time(self.SIZE, 4, self.PROFILE, self.COST)
        with pytest.raises(ShuffleError):
            predict_streaming_shuffle_time(staged, chunks=0)
        with pytest.raises(ShuffleError):
            predict_streaming_shuffle_time(staged, 4, per_chunk_overhead_s=-1.0)


class TestStreamingAsDecisionVariable:
    PROFILE = ibm_us_east()
    SIZE = 3.5 * (1 << 30)

    def test_default_stays_staged_only(self):
        decision = choose_exchange_substrate(self.SIZE, self.PROFILE, workers=16)
        assert all(e.mode == "staged" for e in decision.estimates)
        assert len(decision.estimates) == 4

    def test_both_modes_price_every_substrate(self):
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=16,
            modes=("staged", "streaming"),
        )
        pairs = {(e.substrate, e.mode) for e in decision.estimates}
        assert len(pairs) == 8
        for substrate in ("objectstore", "cache", "relay", "sharded-relay"):
            assert (substrate, "staged") in pairs
            assert (substrate, "streaming") in pairs

    def test_streaming_with_latency_value_wins(self):
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=16,
            modes=("staged", "streaming"), time_value_usd_per_hour=30.0,
        )
        assert decision.chosen.mode == "streaming"
        assert "[streaming]" in decision.describe()

    def test_streaming_only_mode_is_allowed(self):
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=16, modes=("streaming",),
        )
        assert all(e.mode == "streaming" for e in decision.estimates)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ShuffleError, match="unknown execution mode"):
            choose_exchange_substrate(
                self.SIZE, self.PROFILE, modes=("pipelined",)
            )
        with pytest.raises(ShuffleError, match="empty candidate mode"):
            choose_exchange_substrate(self.SIZE, self.PROFILE, modes=())

    def test_modes_are_defined_in_tiebreak_order(self):
        assert EXCHANGE_MODES == ("staged", "streaming")
