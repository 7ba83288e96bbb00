"""Chaos harness: crash mappers/reducers mid-transfer on every substrate.

Parameterized fault injection over the four exchange substrates
(object storage, cache cluster, single VM relay, sharded relay fleet)
— in both execution modes, staged and streaming: the platform kills
activations at injected rates (often mid-MPUSH/MPULL on the stateful
substrates, and mid-*stream* on the streaming paths, where reducers are
already consuming chunks the crashed mapper published), the executor
re-invokes them, and the final sorted artifact must still be
byte-identical to a crash-free object-storage run — plus the relay
(every shard of it, for the fleet) must report **zero** residual
reservations once the job settles, proving no dead attempt leaked
memory.

The seed matrix is fixed for reproducibility and can be widened via the
``REPRO_CHAOS_SEEDS`` environment variable (comma-separated ints), which
is what ``make test-faults`` uses.
"""

import os

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    ObjectStoreExchange,
    RelayExchange,
    ShardedRelayExchange,
    ShuffleCostModel,
    ShuffleSort,
    SkewSpec,
    StreamConfig,
    skewed_fixed_payload,
)
from tests.payloads import fixed_payload

pytestmark = pytest.mark.chaos

SUBSTRATES = (
    "objectstore", "cache", "relay", "sharded-relay",
    "streaming-objectstore", "streaming-cache", "streaming-relay",
    "relay-consume", "sharded-relay-consume",
)

#: Rows whose reducers delete as they read — crashes land mid-consume,
#: so the read-lease protocol (reinstate on death, remove at commit) is
#: what byte parity and the empty-relay postcondition prove.
CONSUME_SUBSTRATES = frozenset({"relay-consume", "sharded-relay-consume"})

#: Mid-stream chaos wants several chunks per mapper (so kills land
#: between publishes) and a bounded reducer buffer (so the backpressure
#: path is exercised under crash-retry too).
CHAOS_STREAM = dict(chunk_bytes=4096.0, buffer_bytes=8192.0, poll_interval_s=0.05)

#: Fixed default seed matrix; override with REPRO_CHAOS_SEEDS=1,2,3.
CHAOS_SEEDS = tuple(
    int(seed)
    for seed in os.environ.get("REPRO_CHAOS_SEEDS", "13,2021,77").split(",")
)

CRASH_RATES = (0.15, 0.3)

RECORDS = 3000
WORKERS = 4


def run_chaos_sort(substrate, payload, seed, crash_rate, retries=6):
    """One sort on a fresh region with crash injection; returns
    (runs_bytes, cloud, relay_or_none)."""
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    cloud.faas.crash_probability = crash_rate
    # Body durations at this scale are fractions of a second; a short
    # kill window guarantees injected kills land while bodies (and their
    # exchange transfers) are still in flight instead of fizzling.
    cloud.faas.crash_latest_s = 0.1
    executor = FunctionExecutor(cloud, retries=retries)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    relay = None
    stream = StreamConfig(**CHAOS_STREAM)
    if substrate == "objectstore":
        operator = ShuffleSort(executor, codec)
    elif substrate == "cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        operator = ShuffleSort(executor, codec, backend=CacheExchange(cluster))
    elif substrate == "sharded-relay":
        relay = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(executor, codec, backend=ShardedRelayExchange(relay))
    elif substrate == "relay-consume":
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(
            executor, codec,
            backend=RelayExchange(relay, ShuffleCostModel(consume=True)),
        )
    elif substrate == "sharded-relay-consume":
        relay = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(
            executor, codec,
            backend=ShardedRelayExchange(relay, ShuffleCostModel(consume=True)),
        )
    elif substrate == "streaming-objectstore":
        operator = ShuffleSort(
            executor, codec, backend=ObjectStoreExchange(stream=stream)
        )
    elif substrate == "streaming-cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        operator = ShuffleSort(
            executor, codec, backend=CacheExchange(cluster, stream=stream)
        )
    elif substrate == "streaming-relay":
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(
            executor, codec, backend=RelayExchange(relay, stream=stream)
        )
    elif substrate == "streaming-sharded-relay":
        relay = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(
            executor, codec,
            backend=ShardedRelayExchange(relay, stream=stream),
        )
    else:
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(executor, codec, backend=RelayExchange(relay))

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=WORKERS))

    result = cloud.sim.run_process(driver())
    runs = [cloud.store.peek("data", run.key) for run in result.runs]
    return runs, cloud, relay


@pytest.fixture(scope="module")
def baselines():
    """Crash-free object-storage artifacts, one per seed."""
    artifacts = {}
    for seed in CHAOS_SEEDS:
        payload = fixed_payload(RECORDS, seed)
        runs, _cloud, _relay = run_chaos_sort("objectstore", payload, seed, 0.0)
        artifacts[seed] = runs
    return artifacts


@pytest.mark.parametrize("crash_rate", CRASH_RATES)
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestChaosParity:
    def test_crashes_preserve_byte_parity_and_leak_nothing(
        self, baselines, substrate, seed, crash_rate
    ):
        payload = fixed_payload(RECORDS, seed)
        runs, cloud, relay = run_chaos_sort(substrate, payload, seed, crash_rate)

        # The chaos must actually bite for the run to prove anything;
        # with ~3x WORKERS invocations at >= 10% rate every fixed seed
        # here injects at least one kill.
        assert cloud.faas.stats.crashes > 0, "no crash injected — raise the rate"

        # Byte parity with the crash-free object-storage artifact.
        assert runs == baselines[seed], (
            f"{substrate} diverged under crash injection "
            f"(seed={seed}, rate={crash_rate})"
        )

        if relay is not None:
            # Zero leaked relay memory: every reservation a dead attempt
            # held was reclaimed, every surviving byte is a committed
            # partition, and no orphaned flow is still draining any NIC
            # (the fleet aggregates these checks across its shards).
            assert relay.residual_reservation_bytes() == 0.0
            assert relay.active_flows == 0
            assert relay.used_logical == pytest.approx(relay.entry_bytes)
            relay.check_memory_accounting()

        if substrate in CONSUME_SUBSTRATES:
            # Consume mode under crashes: every committed reducer's
            # leases removed its partitions (empty relay afterwards).
            # A reducer killed mid-consume has its leases reinstated,
            # which is what keeps the byte-parity assertion above alive
            # — the pre-lease immediate delete would have lost those
            # partitions for the retry.
            stats = relay.stats.as_dict()
            assert relay.key_count == 0
            assert stats["consume_leases"] > 0
            assert stats["lease_commits"] > 0


#: Zipf duplicate keys: one hot partition owns most of the bytes, so
#: injected kills land mid-transfer of *large* segments, the hot
#: partition's stream far exceeds the bounded reducer buffer
#: (CHAOS_STREAM's 8 KiB vs tens of KiB of hot-partition data), and the
#: fleet's rebalance map is live while attempts die and retry.
SKEWED_SPEC = SkewSpec(distribution="zipf", zipf_s=1.5, distinct_keys=8)

#: Staged + streaming substrates of the skewed matrix (the stateful
#: ones, where routing and reservations can leak; the objectstore rows
#: anchor the baseline).
SKEWED_SUBSTRATES = (
    "sharded-relay", "streaming-relay", "streaming-sharded-relay",
    "streaming-cache",
)


@pytest.fixture(scope="module")
def skewed_baselines():
    """Crash-free object-storage artifacts of the Zipf payloads."""
    artifacts = {}
    for seed in CHAOS_SEEDS:
        payload = skewed_fixed_payload(RECORDS, SKEWED_SPEC, seed=seed)
        runs, _cloud, _relay = run_chaos_sort("objectstore", payload, seed, 0.0)
        artifacts[seed] = runs
    return artifacts


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("substrate", SKEWED_SUBSTRATES)
class TestSkewedChaosParity:
    def test_skewed_crashes_preserve_parity_and_leak_nothing(
        self, skewed_baselines, substrate, seed
    ):
        """Crash-retry under a hot partition: byte parity with the
        crash-free baseline, zero residual reservations, and — on the
        streaming rows — completion itself proves the bounded buffer
        absorbed a hot-partition burst far beyond its size without
        deadlocking."""
        payload = skewed_fixed_payload(RECORDS, SKEWED_SPEC, seed=seed)
        runs, cloud, relay = run_chaos_sort(substrate, payload, seed, 0.3)
        assert cloud.faas.stats.crashes > 0, "no crash injected — raise the rate"
        assert runs == skewed_baselines[seed], (
            f"{substrate} diverged under crash injection on a Zipf "
            f"workload (seed={seed})"
        )
        # The workload genuinely concentrated bytes: the hot partition
        # holds several times its fair share.
        sizes = [len(run) for run in runs]
        assert max(sizes) > 1.8 * (sum(sizes) / len(sizes))
        if relay is not None:
            assert relay.residual_reservation_bytes() == 0.0
            assert relay.active_flows == 0
            assert relay.used_logical == pytest.approx(relay.entry_bytes)
            relay.check_memory_accounting()


class TestStreamingFleetChaos:
    def test_streaming_fleet_crash_retry_preserves_parity(self, baselines):
        """The fleet flavour of the streaming path, once per seed matrix:
        rendezvous pulls route across shards while mappers crash
        mid-stream, and the artifact still matches the staged baseline
        with zero residual reservations on every shard."""
        seed = CHAOS_SEEDS[0]
        payload = fixed_payload(RECORDS, seed)
        runs, cloud, fleet = run_chaos_sort(
            "streaming-sharded-relay", payload, seed, 0.3
        )
        assert cloud.faas.stats.crashes > 0
        assert runs == baselines[seed]
        assert fleet.residual_reservation_bytes() == 0.0
        assert fleet.active_flows == 0
        fleet.check_memory_accounting()
        for shard in fleet.shards:
            assert shard.residual_reservation_bytes() == 0.0


class TestChaosAccounting:
    def test_every_crash_is_retried_and_billed_once(self):
        seed = CHAOS_SEEDS[0]
        payload = fixed_payload(RECORDS, seed)
        _runs, cloud, relay = run_chaos_sort("relay", payload, seed, 0.3)
        assert cloud.faas.stats.crashes > 0
        # No activation is ever billed twice, crashed ones included.
        billed_ids = [line.activation_id for line in cloud.faas.billing_log]
        assert len(billed_ids) == len(set(billed_ids))
        crash_lines = [
            line for line in cloud.faas.billing_log if line.outcome == "crash"
        ]
        assert len(crash_lines) == cloud.faas.stats.crashes
        # Dead attempts were actively reclaimed or fenced on the relay.
        assert (
            relay.stats.cancelled_transfers > 0
            or relay.stats.reclaimed_bytes >= 0.0
        )

    def test_retry_exhaustion_still_reclaims_the_relay(self):
        """Even when the job *fails* (crash rate beyond the retry
        budget), dead attempts must not leak relay memory."""
        seed = CHAOS_SEEDS[0]
        payload = fixed_payload(600, seed)
        with pytest.raises(Exception):
            run_chaos_sort("relay", payload, seed, 0.95, retries=1)
        # The relay object is gone with the region here; re-run with a
        # handle we keep to inspect post-failure state.
        cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")
        cloud.faas.crash_probability = 0.95
        cloud.faas.crash_latest_s = 2.0
        executor = FunctionExecutor(cloud, retries=1)
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(executor, codec, backend=RelayExchange(relay))

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield operator.sort("data", "input.bin", workers=WORKERS))

        with pytest.raises(Exception):
            cloud.sim.run_process(driver())
        assert relay.residual_reservation_bytes() == 0.0
        assert relay.active_flows == 0
        relay.check_memory_accounting()

    def test_retry_exhaustion_still_reclaims_the_fleet(self):
        """Same invariant, shard by shard: a failed job must leave zero
        residual reservations on every member of the fleet."""
        seed = CHAOS_SEEDS[0]
        payload = fixed_payload(600, seed)
        cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
        cloud.store.ensure_bucket("data")
        cloud.faas.crash_probability = 0.95
        cloud.faas.crash_latest_s = 2.0
        executor = FunctionExecutor(cloud, retries=1)
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=3)
        operator = ShuffleSort(executor, codec, backend=ShardedRelayExchange(fleet))

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            return (yield operator.sort("data", "input.bin", workers=WORKERS))

        with pytest.raises(Exception):
            cloud.sim.run_process(driver())
        assert fleet.residual_reservation_bytes() == 0.0
        assert fleet.active_flows == 0
        fleet.check_memory_accounting()
        for shard in fleet.shards:
            assert shard.residual_reservation_bytes() == 0.0
