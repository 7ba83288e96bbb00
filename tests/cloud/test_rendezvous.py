"""Rendezvous primitives under the streaming exchange.

`RelayClient.pull_wait` and `CacheClient.get_wait` block until their key
is published instead of failing a miss — these tests pin down the edge
cases the streaming reducer relies on: immediate reads when the key
already exists, fencing of cancelled attempts parked at the rendezvous,
fleet routing, and clean failure (not a hang) when the backing
infrastructure is terminated underneath a parked reader.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.memstore.errors import ClusterNotRunning
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.errors import RelayAttemptFenced, VmNotRunning
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready


def fresh_cloud():
    return Cloud.fresh(seed=7, profile=ibm_us_east(deterministic=True))


class TestRelayPullWait:
    def test_resolves_immediately_when_key_exists(self):
        cloud = fresh_cloud()
        relay = relay_ready(cloud.vms, "bx2-8x32")
        client = relay.client()

        def driver():
            yield client.push("k", b"v")
            return (yield client.pull_wait("k"))

        assert cloud.sim.run_process(driver()) == b"v"
        # No rendezvous wait was needed, and no miss was counted.
        assert relay.stats.rendezvous_waits == 0
        assert relay.stats.misses == 0

    def test_multiple_waiters_all_wake_on_one_publish(self):
        cloud = fresh_cloud()
        relay = relay_ready(cloud.vms, "bx2-8x32")
        client = relay.client()
        results = []

        def consumer(index):
            value = yield client.pull_wait("shared")
            results.append((index, value))

        consumers = [
            cloud.sim.process(consumer(index), name=f"c{index}")
            for index in range(3)
        ]

        def producer():
            yield cloud.sim.timeout(1.0)
            yield client.push("shared", b"x")

        cloud.sim.process(producer(), name="p")
        cloud.sim.run(until=cloud.sim.all_of([c.completion for c in consumers]))
        assert sorted(results) == [(0, b"x"), (1, b"x"), (2, b"x")]
        assert relay.stats.rendezvous_waits == 3

    def test_fenced_attempt_cannot_complete_a_parked_pull(self):
        """A zombie parked at the rendezvous must not read the winner's
        data after its attempt was cancelled and fenced."""
        cloud = fresh_cloud()
        relay = relay_ready(cloud.vms, "bx2-8x32")
        zombie = relay.client(attempt_id="attempt-z")
        fresh = relay.client()

        def parked():
            return (yield zombie.pull_wait("contested"))

        process = cloud.sim.process(parked(), name="zombie")

        def rest():
            yield cloud.sim.timeout(1.0)
            relay.cancel_attempt("attempt-z")
            yield fresh.push("contested", b"winner-data")

        cloud.sim.process(rest(), name="rest")
        with pytest.raises(RelayAttemptFenced):
            cloud.sim.run(until=process.completion)
        assert relay.stats.fenced_requests >= 1

    def test_terminate_fails_parked_readers_instead_of_hanging(self):
        cloud = fresh_cloud()
        relay = relay_ready(cloud.vms, "bx2-8x32")
        client = relay.client()

        def parked():
            return (yield client.pull_wait("never"))

        process = cloud.sim.process(parked(), name="parked")

        def killer():
            yield cloud.sim.timeout(1.0)
            relay.terminate()

        cloud.sim.process(killer(), name="killer")
        # The same infrastructure-level error every other operation on a
        # dead relay raises — not a data-level "key missing".
        with pytest.raises(VmNotRunning):
            cloud.sim.run(until=process.completion)

    def test_fleet_routes_pull_wait_to_the_owning_shard(self):
        cloud = fresh_cloud()
        fleet = fleet_ready(cloud.vms, "bx2-8x32", shards=3)
        client = fleet.client()

        def driver():
            results = []
            for index in range(6):
                key = f"part-{index}"
                yield client.push(key, bytes([index]))
                results.append((yield client.pull_wait(key)))
            return results

        assert cloud.sim.run_process(driver()) == [bytes([i]) for i in range(6)]
        # Keys spread over shards, and every pull hit its owner.
        assert sum(shard.stats.pulls for shard in fleet.shards) == 6


class TestCacheGetWait:
    def test_resolves_once_the_value_is_set(self):
        cloud = fresh_cloud()
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
        client = cluster.client()

        def consumer():
            return (yield client.get_wait("late"))

        process = cloud.sim.process(consumer(), name="consumer")

        def producer():
            yield cloud.sim.timeout(2.0)
            yield client.set("late", b"value")

        cloud.sim.process(producer(), name="producer")
        assert cloud.sim.run(until=process.completion) == b"value"
        assert cloud.sim.now >= 2.0
        assert cluster.stats_totals()["rendezvous_waits"] == 1

    def test_immediate_when_present(self):
        cloud = fresh_cloud()
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=1)
        client = cluster.client()

        def driver():
            yield client.set("k", b"v")
            return (yield client.get_wait("k"))

        assert cloud.sim.run_process(driver()) == b"v"
        assert cluster.stats_totals()["rendezvous_waits"] == 0

    def test_terminate_fails_parked_readers(self):
        cloud = fresh_cloud()
        cluster = cloud.cache.provision_ready("cache.r5.large", nodes=1)
        client = cluster.client()

        def parked():
            return (yield client.get_wait("never"))

        process = cloud.sim.process(parked(), name="parked")

        def killer():
            yield cloud.sim.timeout(1.0)
            cluster.terminate()

        cloud.sim.process(killer(), name="killer")
        with pytest.raises(ClusterNotRunning):
            cloud.sim.run(until=process.completion)
