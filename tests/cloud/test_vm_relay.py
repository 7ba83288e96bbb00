"""Unit tests for the VM-hosted partition relay.

Covers the three behaviours the substrate's economics rest on:
bounded memory with backpressure, NIC contention between concurrent
PUSH/PULL flows, and per-second billing from provision to terminate.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import GB, ibm_us_east
from repro.cloud.vm import (
    RelayCapacityExceeded,
    RelayKeyMissing,
    UnknownRelay,
    VmNotRunning,
    provision_relay,
    relay_ready,
)


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))


@pytest.fixture
def relay(cloud):
    return relay_ready(cloud.vms, "bx2-2x8")


class TestBasicOps:
    def test_push_pull_roundtrip(self, cloud, relay):
        client = relay.client()

        def scenario():
            yield client.push("k", b"partition-bytes")
            return (yield client.mpull(["k"]))[0]

        assert cloud.sim.run_process(scenario()) == b"partition-bytes"
        assert relay.stats.pushes == 1
        assert relay.stats.pulls == 1

    def test_mpush_mpull_preserve_order(self, cloud, relay):
        client = relay.client()
        items = [(f"k{i}", bytes([i]) * 8) for i in range(6)]

        def scenario():
            yield client.mpush(items)
            return (yield client.mpull([key for key, _data in items]))

        assert cloud.sim.run_process(scenario()) == [d for _k, d in items]

    def test_pull_missing_key_raises(self, cloud, relay):
        client = relay.client()

        def scenario():
            yield client.mpull(["ghost"])

        with pytest.raises(RelayKeyMissing):
            cloud.sim.run_process(scenario())

    def test_overwriting_push_releases_old_reservation_first(self, cloud, relay):
        """Re-pushing a key (a retried/speculative mapper) must not
        demand old+new bytes at once — that deadlocks on a full relay."""
        client = relay.client()
        chunk = relay.capacity_bytes * 0.6  # two copies cannot coexist

        def scenario():
            yield client.push("k", b"v1", logical_size=chunk)
            yield client.push("k", b"v2", logical_size=chunk)
            return (yield client.mpull(["k"]))[0]

        assert cloud.sim.run_process(scenario()) == b"v2"
        assert relay.used_logical == pytest.approx(chunk)
        assert relay.key_count == 1

    def test_repushed_mpush_batch_is_idempotent_on_a_full_relay(self, cloud, relay):
        client = relay.client()
        chunk = relay.capacity_bytes * 0.4
        items = [("a", b"x"), ("b", b"y")]
        sizes = [chunk, chunk]

        def scenario():
            yield client.mpush(items, logical_sizes=sizes)
            yield client.mpush(items, logical_sizes=sizes)  # mapper retry

        cloud.sim.run_process(scenario())
        assert relay.used_logical == pytest.approx(2 * chunk)
        assert relay.key_count == 2

    def test_failed_mpull_does_not_count_served_pulls(self, cloud, relay):
        client = relay.client()

        def scenario():
            yield client.push("k1", b"alive", logical_size=500.0)
            try:
                yield client.mpull(["k1", "ghost"])
            except RelayKeyMissing:
                pass

        cloud.sim.run_process(scenario())
        assert relay.stats.pulls == 0  # nothing was actually served
        assert relay.stats.bytes_out == 0.0
        assert relay.stats.misses == 1

    def test_failed_consuming_mpull_neither_loses_data_nor_leaks(self, cloud, relay):
        """A missing key mid-batch must abort the MPULL before anything
        is consumed: present keys stay pullable and reserved memory is
        not leaked."""
        client = relay.client()

        def scenario():
            yield client.push("k1", b"alive", logical_size=500.0)
            try:
                yield client.mpull(["k1", "ghost"], consume=True)
            except RelayKeyMissing:
                pass
            return (yield client.mpull(["k1"]))[0]

        assert cloud.sim.run_process(scenario()) == b"alive"
        assert relay.used_logical == 500.0  # still resident, not leaked

    def test_consuming_pull_frees_memory(self, cloud, relay):
        client = relay.client()

        def scenario():
            yield client.push("k", b"x" * 64, logical_size=1000.0)
            before = relay.used_logical
            yield client.mpull(["k"], consume=True)
            return before, relay.used_logical

        before, after = cloud.sim.run_process(scenario())
        assert before == 1000.0
        assert after == 0.0
        assert relay.key_count == 0

    def test_terminated_relay_refuses_requests(self, cloud, relay):
        client = relay.client()
        relay.terminate()

        def scenario():
            yield client.push("k", b"x")

        with pytest.raises(VmNotRunning):
            cloud.sim.run_process(scenario())

    def test_unknown_relay_id_rejected(self, cloud):
        with pytest.raises(UnknownRelay):
            cloud.vms.relay("relay-vm-999")

    def test_terminate_drops_payloads_and_deregisters(self, cloud, relay):
        client = relay.client()

        def scenario():
            yield client.push("k", b"payload", logical_size=500.0)

        cloud.sim.run_process(scenario())
        relay_id = relay.relay_id
        relay.terminate()
        assert relay.key_count == 0
        assert relay.used_logical == 0.0
        with pytest.raises(UnknownRelay):
            cloud.vms.relay(relay_id)


class TestCapacityAndBackpressure:
    def test_partition_that_can_never_fit_rejected(self, cloud, relay):
        client = relay.client()
        too_big = relay.capacity_bytes * 1.01

        def scenario():
            yield client.push("k", b"x", logical_size=too_big)

        with pytest.raises(RelayCapacityExceeded):
            cloud.sim.run_process(scenario())

    def test_rejected_oversized_repush_preserves_old_value(self, cloud, relay):
        """A push that can never fit must fail *before* evicting the
        key's resident value — failed requests are side-effect-free."""
        client = relay.client()

        def scenario():
            yield client.push("k", b"old", logical_size=100.0)
            try:
                yield client.push("k", b"huge",
                                  logical_size=relay.capacity_bytes * 2)
            except RelayCapacityExceeded:
                pass
            try:
                yield client.mpush([("k", b"huge2")],
                                   logical_sizes=[relay.capacity_bytes * 2])
            except RelayCapacityExceeded:
                pass
            return (yield client.mpull(["k"]))[0]

        assert cloud.sim.run_process(scenario()) == b"old"
        assert relay.used_logical == 100.0

    def test_oversubscribed_push_waits_for_consumer(self, cloud, relay):
        """A PUSH that does not fit blocks until a consuming PULL frees
        space — backpressure, not failure."""
        client = relay.client()
        chunk = relay.capacity_bytes * 0.6  # two of these cannot coexist
        events = []

        def pusher():
            yield client.push("a", b"a" * 16, logical_size=chunk)
            events.append(("pushed-a", cloud.sim.now))
            yield client.push("b", b"b" * 16, logical_size=chunk)
            events.append(("pushed-b", cloud.sim.now))

        def consumer():
            yield cloud.sim.timeout(50.0)  # relay is full by now
            yield client.mpull(["a"], consume=True)
            events.append(("consumed-a", cloud.sim.now))

        cloud.sim.process(pusher())
        cloud.sim.process(consumer())
        cloud.sim.run()

        order = [name for name, _time in events]
        assert order == ["pushed-a", "consumed-a", "pushed-b"]
        times = dict(events)
        assert times["pushed-b"] >= times["consumed-a"]
        assert times["pushed-b"] >= 50.0
        assert relay.stats.backpressure_waits == 1

    def test_waiting_pushes_drain_in_fifo_order(self, cloud, relay):
        client = relay.client()
        chunk = relay.capacity_bytes * 0.9
        completions = []

        def pusher(name, delay):
            yield cloud.sim.timeout(delay)
            yield client.push(name, b"x", logical_size=chunk)
            completions.append(name)

        def consumer():
            for step in range(3):
                # Poll until push ``step`` has landed, then consume it so
                # the next queued push can be admitted.
                while f"p{step}" not in completions:
                    yield cloud.sim.timeout(1.0)
                yield client.mpull([f"p{step}"], consume=True)

        cloud.sim.process(pusher("p0", 0.0))
        cloud.sim.process(pusher("p1", 1.0))
        cloud.sim.process(pusher("p2", 2.0))
        cloud.sim.process(consumer())
        cloud.sim.run()
        assert completions == ["p0", "p1", "p2"]
        assert relay.stats.backpressure_waits == 2

    def test_peak_fill_tracks_reservations(self, cloud, relay):
        client = relay.client()
        half = relay.capacity_bytes / 2

        def scenario():
            yield client.push("a", b"x", logical_size=half)
            yield client.mpull(["a"], consume=True)
            yield client.push("b", b"x", logical_size=half / 2)

        cloud.sim.run_process(scenario())
        assert relay.peak_fill_fraction == pytest.approx(0.5)
        assert relay.fill_fraction == pytest.approx(0.25)


class TestNicContention:
    # Big enough that transfer dominates latency, small enough that two
    # partitions coexist in a bx2-2x8 relay's memory (8 GB x 0.85).
    LOGICAL = 2.0 * GB

    def _pull_duration(self, cloud, relay, streams):
        client = relay.client()
        finished = {}

        def seed():
            for index in range(streams):
                yield client.push(f"k{index}", b"x", logical_size=self.LOGICAL)

        cloud.sim.run_process(seed())
        started = cloud.sim.now

        def puller(index):
            yield client.mpull([f"k{index}"])
            finished[index] = cloud.sim.now - started

        for index in range(streams):
            cloud.sim.process(puller(index))
        cloud.sim.run()
        return finished

    def test_concurrent_pulls_share_the_instance_nic(self, cloud):
        relay_one = relay_ready(cloud.vms, "bx2-2x8")
        one = self._pull_duration(cloud, relay_one, streams=1)
        relay_two = relay_ready(cloud.vms, "bx2-2x8")
        two = self._pull_duration(cloud, relay_two, streams=2)

        nic = relay_one.vm.instance_type.nic_bandwidth
        assert one[0] == pytest.approx(self.LOGICAL / nic, rel=0.01)
        # Two uncapped flows split the NIC: each takes ~twice as long.
        for duration in two.values():
            assert duration == pytest.approx(2 * self.LOGICAL / nic, rel=0.01)

    def test_concurrent_push_and_pull_contend(self, cloud, relay):
        client = relay.client()
        nic = relay.vm.instance_type.nic_bandwidth
        done = {}

        def seed():
            yield client.push("seed", b"x", logical_size=self.LOGICAL)

        cloud.sim.run_process(seed())
        started = cloud.sim.now

        def pusher():
            yield client.push("new", b"y", logical_size=self.LOGICAL)
            done["push"] = cloud.sim.now - started

        def puller():
            yield client.mpull(["seed"])
            done["pull"] = cloud.sim.now - started

        cloud.sim.process(pusher())
        cloud.sim.process(puller())
        cloud.sim.run()
        # Inbound and outbound flows share one NIC in this model, so
        # both finish in ~2x the uncontended time.
        for duration in done.values():
            assert duration == pytest.approx(2 * self.LOGICAL / nic, rel=0.01)

    def test_client_nic_cap_bounds_single_flow(self, cloud, relay):
        capped = relay.client(connection_bandwidth=relay.vm.instance_type.nic_bandwidth / 8)

        def scenario():
            yield capped.push("k", b"x", logical_size=self.LOGICAL)
            before = cloud.sim.now
            yield capped.mpull(["k"])
            return cloud.sim.now - before

        duration = cloud.sim.run_process(scenario())
        expected = self.LOGICAL / (relay.vm.instance_type.nic_bandwidth / 8)
        assert duration == pytest.approx(expected, rel=0.01)


class TestBilling:
    def test_billed_from_warm_provision_to_terminate(self, cloud):
        relay = relay_ready(cloud.vms, "bx2-8x32")

        def scenario():
            yield cloud.sim.timeout(300.0)

        cloud.sim.run_process(scenario())
        relay.terminate()
        vm_lines = cloud.meter.filtered(service="vm")
        assert vm_lines, "terminate must bill the relay VM"
        seconds = sum(
            line.quantity for line in vm_lines if line.item == "instance_second"
        )
        assert seconds == pytest.approx(300.0)
        instance = relay.vm.instance_type
        instance_usd = sum(
            line.usd for line in vm_lines if line.item == "instance_second"
        )
        assert instance_usd == pytest.approx(300.0 * instance.per_second_usd)
        # The boot volume is billed alongside the instance.
        assert any(line.item == "volume_gb_hour" for line in vm_lines)

    def test_cold_provision_pays_boot_and_bills_it(self, cloud):
        def scenario():
            relay = yield provision_relay(cloud.vms, "bx2-8x32")
            return relay, cloud.sim.now

        relay, ready_at = cloud.sim.run_process(scenario())
        assert relay.state == "running"
        assert ready_at == pytest.approx(cloud.profile.vm.boot.mean)
        relay.terminate()
        seconds = sum(
            line.quantity
            for line in cloud.meter.filtered(service="vm")
            if line.item == "instance_second"
        )
        # Billing starts at the provision call, so the boot window and
        # the provider's minimum billed runtime both count.
        assert seconds == pytest.approx(
            max(ready_at, cloud.profile.vm.minimum_billed_s)
        )

    def test_minimum_billed_window_applies(self, cloud):
        relay = relay_ready(cloud.vms, "bx2-2x8")
        relay.terminate()  # immediately
        seconds = sum(
            line.quantity
            for line in cloud.meter.filtered(service="vm")
            if line.item == "instance_second"
        )
        assert seconds == pytest.approx(cloud.profile.vm.minimum_billed_s)
