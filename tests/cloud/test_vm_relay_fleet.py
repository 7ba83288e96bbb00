"""Unit tests for the sharded multi-relay fleet.

The fleet must look exactly like one relay to the rest of the stack
(same client API, same cancellation/fencing contract, same accounting
invariants) while actually spreading keys, memory and NIC load over N
shard VMs — and billing N instances for it.
"""

import zlib

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm import (
    RelayAttemptFenced,
    RelayKeyMissing,
    UnknownRelay,
    fleet_ready,
    provision_fleet,
)

pytestmark = pytest.mark.chaos


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=9, profile=ibm_us_east(deterministic=True))


@pytest.fixture
def fleet(cloud):
    return fleet_ready(cloud.vms, "bx2-2x8", shards=3)


class TestRouting:
    def test_routing_is_deterministic_and_total(self, fleet):
        keys = [f"prefix/m{m:05d}.r{r:05d}" for m in range(8) for r in range(8)]
        first = [fleet.shard_index_for_key(key) for key in keys]
        second = [fleet.shard_index_for_key(key) for key in keys]
        assert first == second
        assert all(0 <= index < fleet.shard_count for index in first)

    def test_routing_spreads_keys_over_every_shard(self, fleet):
        keys = [f"prefix/m{m:05d}.r{r:05d}" for m in range(16) for r in range(16)]
        used = {fleet.shard_index_for_key(key) for key in keys}
        assert used == set(range(fleet.shard_count))

    def test_same_key_always_same_shard_object(self, fleet):
        assert fleet.shard_for_key("k1") is fleet.shard_for_key("k1")

    def test_namespace_claims_only_keys_under_it(self, cloud):
        """A router under ``svc/job-1`` must not claim ``svc/job-10``'s
        keys: a sort without a router of its own would be routed by its
        neighbour's until that router retires, then by CRC."""
        fleet = fleet_ready(cloud.vms, "bx2-2x8", shards=4)

        def crc(key):
            return zlib.crc32(key.encode("utf-8")) % 4

        # Routes every key it is asked about one shard past its CRC.
        fleet.set_router(lambda key: crc(key) + 1, namespace="svc/job-1")
        own = "svc/job-1/m00000.r00000"
        neighbour = "svc/job-10/m00000.r00000"
        assert fleet.shard_index_for_key(own) == (crc(own) + 1) % 4
        assert fleet.shard_index_for_key(neighbour) == crc(neighbour)
        # The longest namespace a key lies under still wins.
        fleet.set_router(lambda key: crc(key) + 2, namespace="svc")
        assert fleet.shard_index_for_key(own) == (crc(own) + 1) % 4
        assert fleet.shard_index_for_key(neighbour) == (crc(neighbour) + 2) % 4
        fleet.set_router(None, namespace="svc")
        fleet.set_router(None, namespace="svc/job-1")
        assert fleet.shard_index_for_key(own) == crc(own)


class TestFanOut:
    def test_mpush_mpull_roundtrip_preserves_order(self, cloud, fleet):
        client = fleet.client()
        items = [(f"k{i}", bytes([i + 1]) * 16) for i in range(12)]

        def scenario():
            yield client.mpush(items)
            return (yield client.mpull([key for key, _data in items]))

        assert cloud.sim.run_process(scenario()) == [d for _k, d in items]
        # The batch really spread over the shards...
        resident = [shard.key_count for shard in fleet.shards]
        assert sum(resident) == len(items)
        assert sum(1 for count in resident if count > 0) > 1
        # ...and the aggregate stats line up.
        assert fleet.stats.pushes == len(items)
        assert fleet.stats.pulls == len(items)

    def test_single_key_ops_route_to_one_shard(self, cloud, fleet):
        client = fleet.client()

        def scenario():
            yield client.push("solo", b"x" * 32)
            resident = [shard.key_count for shard in fleet.shards]
            (data,) = yield client.mpull(["solo"], consume=True)
            return data, resident

        data, resident = cloud.sim.run_process(scenario())
        assert data == b"x" * 32
        assert sorted(resident) == [0] * (len(resident) - 1) + [1]
        assert fleet.key_count == 0

    def test_mpull_missing_key_fails_whole_batch(self, cloud, fleet):
        client = fleet.client()

        def scenario():
            yield client.mpush([("a", b"1"), ("b", b"2")])
            yield client.mpull(["a", "ghost", "b"])

        with pytest.raises(RelayKeyMissing):
            cloud.sim.run_process(scenario())

    def test_empty_batches_are_cheap_noops(self, cloud, fleet):
        client = fleet.client()

        def scenario():
            yield client.mpush([])
            return (yield client.mpull([]))

        assert cloud.sim.run_process(scenario()) == []


class TestAggregation:
    def test_capacity_and_fill_aggregate_over_shards(self, cloud, fleet):
        per_shard = fleet.shards[0].capacity_bytes
        assert fleet.capacity_bytes == pytest.approx(3 * per_shard)
        client = fleet.client()

        def scenario():
            yield client.mpush([(f"k{i}", b"y" * 64) for i in range(6)])

        cloud.sim.run_process(scenario())
        assert fleet.used_logical == pytest.approx(fleet.entry_bytes)
        assert 0 < fleet.fill_fraction < 1
        assert fleet.peak_fill_fraction >= max(
            shard.peak_fill_fraction for shard in fleet.shards
        ) - 1e-12
        fleet.check_memory_accounting()

    def test_terminate_bills_every_shard_and_deregisters(self, cloud, fleet):
        def tick():
            yield cloud.sim.timeout(120.0)

        cloud.sim.run_process(tick())
        marker = cloud.meter.snapshot()
        fleet.terminate()
        assert fleet.state == "terminated"
        lines = [
            line for line in cloud.meter.since(marker).lines
            if line.service == "vm" and line.item == "instance_second"
        ]
        assert len(lines) == 3
        with pytest.raises(UnknownRelay):
            cloud.vms.relay(fleet.relay_id)

    def test_workers_resolve_the_fleet_by_id(self, cloud, fleet):
        """The fleet id travels in task payloads exactly like a relay
        id; the VM service resolves it to the fleet façade."""
        assert cloud.vms.relay(fleet.relay_id) is fleet


class TestFleetCancellation:
    def test_cancel_attempt_forwards_to_every_shard(self, cloud, fleet):
        client = fleet.client(attempt_id="attempt-1")

        def scenario():
            yield client.mpush([(f"k{i}", b"w" * 32) for i in range(9)])

        cloud.sim.run_process(scenario())
        fleet.cancel_attempt("attempt-1")
        assert fleet.is_fenced("attempt-1")
        for shard in fleet.shards:
            assert shard.is_fenced("attempt-1")
        # Committed data is untouched; nothing was in flight to reclaim.
        assert fleet.key_count == 9
        assert fleet.residual_reservation_bytes("attempt-1") == 0.0

    def test_fenced_attempt_rejected_on_any_shard(self, cloud, fleet):
        fleet.cancel_attempt("zombie")
        client = fleet.client(attempt_id="zombie")

        def scenario():
            yield client.mpush([("a", b"1"), ("b", b"2"), ("c", b"3")])

        with pytest.raises(RelayAttemptFenced):
            cloud.sim.run_process(scenario())
        assert fleet.residual_reservation_bytes() == 0.0
        fleet.check_memory_accounting()

    def test_mid_transfer_cancel_reclaims_on_every_shard(self, cloud, fleet):
        """Cancel while a fan-out MPUSH is mid-flight: every shard's
        reservation must be reclaimed and accounting must balance."""
        # A slow caller NIC stretches the transfers to tens of ms, so
        # the cancel below is guaranteed to land mid-flight.
        client = fleet.client(connection_bandwidth=1e6, attempt_id="doomed")
        items = [(f"big{i}", b"B" * 4096) for i in range(9)]

        def pusher():
            yield client.mpush(items)

        def canceller():
            # Past the request latency (sub-ms), inside the transfer.
            yield cloud.sim.timeout(0.002)
            reclaimed = fleet.cancel_attempt("doomed")
            return reclaimed

        push_process = cloud.sim.process(pusher(), name="pusher")
        cancel = cloud.sim.process(canceller(), name="canceller")
        with pytest.raises(RelayAttemptFenced):
            cloud.sim.run(until=push_process.completion)
        cloud.sim.run(until=cancel.completion)
        assert fleet.residual_reservation_bytes() == 0.0
        assert fleet.active_flows == 0
        assert fleet.key_count == 0  # nothing committed
        fleet.check_memory_accounting()


class TestValidateHeadroom:
    def test_fleet_sort_rejects_data_without_per_shard_headroom(self, cloud):
        """Aggregate capacity is not enough: the hash split is uneven,
        so a fleet that only just fits in total must be rejected before
        a hot shard can backpressure-deadlock mid-run."""
        from repro.errors import ShuffleError
        from repro.shuffle import ShardedRelayExchange

        fleet = fleet_ready(cloud.vms, "bx2-2x8", shards=2)
        exchange = ShardedRelayExchange(fleet)
        # 95% of aggregate capacity: passes the total check, fails the
        # per-shard imbalance headroom.
        with pytest.raises(ShuffleError, match="imbalance headroom"):
            exchange.validate(fleet.capacity_bytes * 0.95)
        # Well under the headroom: accepted.
        exchange.validate(fleet.capacity_bytes * 0.5)


class TestProvisioning:
    def test_cold_fleet_boots_shards_in_parallel(self, cloud):
        started = cloud.sim.now

        def scenario():
            return (yield provision_fleet(cloud.vms, "bx2-2x8", shards=4))

        fleet = cloud.sim.run_process(scenario())
        boot = cloud.profile.vm.boot.mean
        # One boot latency, not four: the shards provision concurrently.
        assert cloud.sim.now - started == pytest.approx(boot, rel=0.01)
        assert fleet.shard_count == 4
        assert fleet.state == "running"

    def test_zero_shards_rejected(self, cloud):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            fleet_ready(cloud.vms, "bx2-2x8", shards=0)
