"""Speculation parity: backup tasks are safe on every exchange substrate.

Pre-cancellation, speculation was only safe on the idempotent
object-storage path — a losing speculative mapper kept draining into
the cache/relay and could race the winner.  With attempt-scoped
cancellation the speculator kills losers the moment a call settles, so
the same seeded job with ``speculation=`` enabled must produce
identical output digests on objectstore, cache, relay and the sharded
relay fleet — and cancelled attempts must be billed exactly once, only
up to the kill.
"""

import hashlib

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor, SpeculationPolicy
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    ObjectStoreExchange,
    RelayExchange,
    ShardedRelayExchange,
    ShuffleSort,
    SkewSpec,
    StreamConfig,
    skewed_fixed_payload,
)
from tests.payloads import fixed_payload

pytestmark = pytest.mark.chaos

#: Both execution modes: a losing speculative attempt must be fenced
#: out of a *stream* it was mid-publish into just as cleanly as out of
#: a staged batch.
SUBSTRATES = (
    "objectstore", "cache", "relay", "sharded-relay",
    "streaming-objectstore", "streaming-cache", "streaming-relay",
)
SEED = 11
RECORDS = 3000
WORKERS = 4

#: Aggressive trigger so backups actually fire at this small scale.
POLICY = SpeculationPolicy(quantile=0.5, latency_multiplier=1.05)


def heavy_tailed_profile():
    """Lognormal cold starts wide enough to create real stragglers."""
    profile = ibm_us_east()
    profile.faas.cold_start.mean = 1.5
    profile.faas.cold_start.sigma = 1.4
    return profile


def run_speculative_sort(substrate, payload, crash_rate=0.0):
    cloud = Cloud.fresh(seed=SEED, profile=heavy_tailed_profile())
    cloud.store.ensure_bucket("data")
    cloud.faas.crash_probability = crash_rate
    cloud.faas.crash_latest_s = 0.1
    executor = FunctionExecutor(cloud, retries=6, speculation=POLICY)
    codec = FixedWidthCodec(record_size=16, key_bytes=8)
    relay = None
    stream = StreamConfig(
        chunk_bytes=4096.0, buffer_bytes=8192.0, poll_interval_s=0.05
    )
    if substrate == "objectstore":
        operator = ShuffleSort(executor, codec)
    elif substrate == "cache":
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        operator = ShuffleSort(executor, codec, backend=CacheExchange(cluster))
    elif substrate == "sharded-relay":
        relay = fleet_ready(cloud.vms, "bx2-8x32", shards=2)
        operator = ShuffleSort(executor, codec, backend=ShardedRelayExchange(relay))
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
    else:
        relay = relay_ready(cloud.vms, "bx2-8x32")
        operator = ShuffleSort(executor, codec, backend=RelayExchange(relay))

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=WORKERS))

    result = cloud.sim.run_process(driver())
    digest = hashlib.sha256()
    for run in result.runs:
        digest.update(cloud.store.peek("data", run.key))
    return digest.hexdigest(), executor, cloud, relay


@pytest.fixture(scope="module")
def speculative_runs():
    payload = fixed_payload(RECORDS, SEED)
    return {
        substrate: run_speculative_sort(substrate, payload)
        for substrate in SUBSTRATES
    }


class TestSpeculationParity:
    def test_backups_fire_on_every_substrate(self, speculative_runs):
        for substrate, (_digest, executor, _cloud, _relay) in speculative_runs.items():
            assert executor.speculative_launches > 0, (
                f"speculation never triggered on {substrate} — the parity "
                "claim would be vacuous"
            )

    def test_digests_identical_across_substrates(self, speculative_runs):
        digests = {
            substrate: digest
            for substrate, (digest, _ex, _cloud, _relay) in speculative_runs.items()
        }
        assert len(set(digests.values())) == 1, f"diverged: {digests}"

    def test_no_double_billing_of_cancelled_attempts(self, speculative_runs):
        for substrate, (_digest, _ex, cloud, _relay) in speculative_runs.items():
            billed = [line.activation_id for line in cloud.faas.billing_log]
            assert len(billed) == len(set(billed)), (
                f"{substrate}: an activation was billed twice"
            )
            cancelled = [
                line for line in cloud.faas.billing_log if line.outcome == "cancelled"
            ]
            # Every billed cancellation corresponds to a platform
            # cancellation; losers killed while still *queued* never
            # started executing and are (correctly) not billed at all.
            assert len(cancelled) <= cloud.faas.stats.cancellations
            assert cloud.faas.stats.cancellations > 0
            completed = [
                line.billed_s
                for line in cloud.faas.billing_log
                if line.outcome == "ok"
            ]
            for line in cancelled:
                assert line.billed_s <= max(completed) + 1e-9

    def test_relay_reports_zero_residual_after_speculation(self, speculative_runs):
        for substrate in ("relay", "sharded-relay", "streaming-relay"):
            _digest, _ex, _cloud, relay = speculative_runs[substrate]
            assert relay.residual_reservation_bytes() == 0.0
            assert relay.active_flows == 0
            assert relay.used_logical == pytest.approx(relay.entry_bytes)
            relay.check_memory_accounting()

    def test_speculation_composes_with_crash_injection_on_relay(self):
        """The acceptance scenario: crashes + retries + speculation on
        the relay produce byte-identical output to object storage."""
        payload = fixed_payload(RECORDS, SEED)
        base_digest, _ex, _cloud, _r = run_speculative_sort("objectstore", payload)
        digest, _ex2, cloud, relay = run_speculative_sort(
            "relay", payload, crash_rate=0.2
        )
        assert cloud.faas.stats.crashes > 0
        assert digest == base_digest
        assert relay.residual_reservation_bytes() == 0.0
        relay.check_memory_accounting()


class TestSkewedSpeculationParity:
    """Skewed-seed rows of the parity matrix: the hot partition's big
    segments are exactly what a losing speculative attempt is most
    likely to be caught mid-transfer of."""

    SKEWED_SUBSTRATES = (
        "objectstore", "sharded-relay", "streaming-relay", "streaming-cache",
    )

    @pytest.fixture(scope="class")
    def skewed_runs(self):
        payload = skewed_fixed_payload(
            RECORDS, SkewSpec(distribution="zipf", zipf_s=1.5, distinct_keys=8),
            seed=SEED,
        )
        return {
            substrate: run_speculative_sort(substrate, payload)
            for substrate in self.SKEWED_SUBSTRATES
        }

    def test_digests_identical_and_backups_fired(self, skewed_runs):
        digests = set()
        for substrate, (digest, executor, cloud, _relay) in skewed_runs.items():
            digests.add(digest)
            assert executor.speculative_launches > 0, substrate
            assert cloud.faas.stats.cancellations > 0, substrate
        assert len(digests) == 1, "skewed speculation diverged"

    def test_zero_residual_reservations(self, skewed_runs):
        for substrate in ("sharded-relay", "streaming-relay"):
            _digest, _ex, _cloud, relay = skewed_runs[substrate]
            assert relay.residual_reservation_bytes() == 0.0
            assert relay.active_flows == 0
            relay.check_memory_accounting()


class TestLoserCancellation:
    def test_cancelled_losers_are_fenced_not_drained(self, speculative_runs):
        _digest, _ex, cloud, relay = speculative_runs["relay"]
        # The platform cancelled losing attempts...
        assert cloud.faas.stats.cancellations > 0
        # ...and whatever they still had in flight on the relay was torn
        # down rather than drained (reclaimed bytes or aborted flows, or
        # the loser lost before ever reaching its MPUSH — then nothing
        # needed tearing down and the counters legitimately stay zero).
        assert relay.residual_reservation_bytes() == 0.0

    def test_speculator_counts_cancelled_losers(self):
        """Executor-level view: a straggling call's backup wins, the
        primary is cancelled, and the job's duplicate cost is bounded."""
        payload = fixed_payload(600, SEED)
        _digest, executor, cloud, _relay = run_speculative_sort(
            "objectstore", payload
        )
        # Each backup creates at most one loser to cancel (whichever
        # side loses), so cancellations are bounded by backups launched.
        assert cloud.faas.stats.cancellations <= executor.speculative_launches
