"""Attempt-tagged reservations, cancel-and-reclaim and the atomic swap.

The relay's side of the attempt-scoped cancellation contract: a dead
attempt's reservations are reclaimed immediately (waiting *and*
mid-transfer), the attempt id is fenced against stragglers, and a
replacing PUSH swaps old for new atomically so concurrent readers never
observe a missing key — the absence window the pre-cancellation design
had is a regression test here.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm import RelayAttemptFenced, relay_ready

pytestmark = pytest.mark.chaos


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))


@pytest.fixture
def relay(cloud):
    return relay_ready(cloud.vms, "bx2-2x8")


class TestCancelAndReclaim:
    def test_cancel_reclaims_mid_transfer_reservation(self, cloud, relay):
        client = relay.client(attempt_id="att-1")
        big = 4e9  # ~8 s on this NIC: still in flight at t=5

        def pusher():
            yield client.push("k", b"x", logical_size=big)

        process = cloud.sim.process(pusher())
        snapshots = {}

        def canceller():
            yield cloud.sim.timeout(5.0)
            snapshots["before"] = (
                relay.used_logical,
                relay.link.active_flows,
                relay.residual_reservation_bytes("att-1"),
            )
            process.interrupt(cause="killed")
            relay.cancel_attempt("att-1")
            snapshots["after"] = (
                relay.used_logical,
                relay.link.active_flows,
                relay.residual_reservation_bytes("att-1"),
            )

        cloud.sim.process(canceller())
        cloud.sim.run()
        assert snapshots["before"] == (big, 1, big)
        assert snapshots["after"] == (0.0, 0, 0.0)
        assert relay.key_count == 0
        assert relay.stats.cancelled_transfers == 1
        relay.check_memory_accounting()

    def test_cancel_reclaims_waiting_admission(self, cloud, relay):
        filler = relay.client()
        victim = relay.client(attempt_id="att-2")
        chunk = relay.capacity_bytes * 0.7
        outcome = []

        def fill():
            yield filler.push("resident", b"x", logical_size=chunk)

        cloud.sim.run_process(fill())

        def pusher():
            try:
                yield victim.push("new", b"y", logical_size=chunk)
                outcome.append("pushed")
            except RelayAttemptFenced:
                outcome.append("fenced")

        def canceller():
            yield cloud.sim.timeout(5.0)  # pusher is queued by now
            relay.cancel_attempt("att-2")

        cloud.sim.process(pusher())
        cloud.sim.process(canceller())
        cloud.sim.run()
        # The queued admission was failed, not left to hang, and the
        # resident entry was untouched.
        assert outcome == ["fenced"]
        assert relay.used_logical == pytest.approx(chunk)
        assert relay.key_count == 1
        relay.check_memory_accounting()

    def test_cancel_spares_committed_entries_and_delete_frees_waiters(
        self, cloud, relay
    ):
        """cancel_attempt reclaims only *uncommitted* custody: data a
        dead attempt finished publishing stays valid (the exchange is
        idempotent by content); a consuming driver pull then frees the
        space and wakes queued pushes."""
        dead = relay.client(attempt_id="dead")
        live = relay.client()
        chunk = relay.capacity_bytes * 0.6
        done = []

        def dead_pusher():
            yield dead.push("a", b"x", logical_size=chunk)

        cloud.sim.run_process(dead_pusher())

        def live_pusher():
            yield live.push("b", b"y", logical_size=chunk)  # must queue
            done.append(cloud.sim.now)

        def canceller():
            yield cloud.sim.timeout(50.0)
            relay.cancel_attempt("dead")
            assert relay.key_count == 1  # committed entry untouched
            yield live.mpull(["a"], consume=True)

        cloud.sim.process(live_pusher())
        cloud.sim.process(canceller())
        cloud.sim.run()
        assert done and done[0] >= 50.0
        relay.check_memory_accounting()

    def test_cancel_attempt_is_idempotent_and_none_safe(self, cloud, relay):
        assert relay.cancel_attempt(None) == 0.0
        assert relay.cancel_attempt("ghost") == 0.0
        assert relay.cancel_attempt("ghost") == 0.0
        assert not relay.is_fenced(None)

    def test_terminate_aborts_inflight_reservations(self, cloud, relay):
        client = relay.client(attempt_id="att-t")
        outcome = []

        def pusher():
            try:
                yield client.push("k", b"x", logical_size=4e9)
                outcome.append("pushed")
            except RelayAttemptFenced:
                outcome.append("aborted")

        cloud.sim.process(pusher())

        def terminator():
            yield cloud.sim.timeout(5.0)  # push is mid-transfer
            relay.terminate()

        cloud.sim.process(terminator())
        cloud.sim.run()
        assert outcome == ["aborted"]
        assert relay.used_logical == 0.0
        assert relay.residual_reservation_bytes() == 0.0


class TestFencing:
    def test_fenced_attempt_rejected_on_every_op(self, cloud, relay):
        client = relay.client(attempt_id="loser")
        relay.cancel_attempt("loser")
        ops = [
            lambda: client.push("k", b"x"),
            lambda: client.mpush([("k", b"x")]),
            lambda: client.mpull(["k"]),
            lambda: client.mpull(["k"], consume=True),
            lambda: client.pull_wait("k"),
        ]
        for op in ops:
            def scenario(op=op):
                yield op()

            with pytest.raises(RelayAttemptFenced):
                cloud.sim.run_process(scenario())
        assert relay.stats.fenced_requests == len(ops)

    def test_driver_clients_are_never_fenced(self, cloud, relay):
        client = relay.client()  # no attempt id
        relay.cancel_attempt("someone-else")

        def scenario():
            yield client.push("k", b"payload")
            return (yield client.mpull(["k"]))[0]

        assert cloud.sim.run_process(scenario()) == b"payload"

    def test_fence_catches_request_parked_upstream_of_its_reservation(
        self, cloud, relay
    ):
        """A push cancelled while still waiting on the ops bucket or the
        request latency has no reservation yet for cancel_attempt to
        abort — the fence must stop it before it takes memory custody,
        and a parked consuming pull before it destroys the winner's
        entry."""
        zombie = relay.client(attempt_id="zombie")
        winner = relay.client()
        outcome = []

        def seed():
            yield winner.push("k", b"winner-bytes", logical_size=500.0)

        cloud.sim.run_process(seed())

        def zombie_push():
            try:
                yield zombie.push("k", b"zombie-bytes", logical_size=500.0)
                outcome.append("pushed")
            except RelayAttemptFenced:
                outcome.append("push fenced")

        def zombie_consume():
            try:
                yield zombie.mpull(["k"], consume=True)
                outcome.append("consumed")
            except RelayAttemptFenced:
                outcome.append("pull fenced")

        cloud.sim.process(zombie_push())
        cloud.sim.process(zombie_consume())
        # Fence immediately: both requests are still parked upstream
        # (kickoff/token/latency), neither has touched relay state.
        relay.cancel_attempt("zombie")
        cloud.sim.run()
        assert sorted(outcome) == ["pull fenced", "push fenced"]

        def check():
            return (yield winner.mpull(["k"]))[0]

        assert cloud.sim.run_process(check()) == b"winner-bytes"
        assert relay.used_logical == pytest.approx(500.0)
        relay.check_memory_accounting()

    def test_fence_prevents_zombie_overwrite(self, cloud, relay):
        """A fenced loser's late MPUSH must not clobber the winner's
        partitions — the speculative-race guarantee."""
        winner = relay.client(attempt_id="winner")
        loser = relay.client(attempt_id="loser")

        def scenario():
            yield winner.push("m0.r0", b"winner-bytes")
            relay.cancel_attempt("loser")
            try:
                yield loser.mpush([("m0.r0", b"loser-bytes")])
            except RelayAttemptFenced:
                pass
            return (yield winner.mpull(["m0.r0"]))[0]

        assert cloud.sim.run_process(scenario()) == b"winner-bytes"


class TestAtomicSwap:
    def test_concurrent_pull_never_observes_missing_key(self, cloud, relay):
        """Regression for the replacing-MPUSH absence window: the old
        value stays pullable for the whole replacement transfer."""
        client = relay.client()
        chunk = relay.capacity_bytes * 0.6  # old+new can never coexist
        observed = []

        def seed():
            yield client.push("k", b"v1", logical_size=chunk)

        cloud.sim.run_process(seed())

        def replacer():
            yield client.mpush([("k", b"v2")], logical_sizes=[chunk])

        def poller():
            for _ in range(40):
                (data,) = yield client.mpull(["k"])  # must never raise
                observed.append(data)
                yield cloud.sim.timeout(1.0)

        cloud.sim.process(replacer())
        cloud.sim.process(poller())
        cloud.sim.run()
        assert set(observed) == {b"v1", b"v2"}  # both sides seen, no gap
        assert observed == sorted(observed)  # v1...v1,v2...v2: one swap
        assert relay.used_logical == pytest.approx(chunk)
        relay.check_memory_accounting()

    def test_same_size_repush_admitted_on_full_relay(self, cloud, relay):
        """The swap credit: a retried mapper re-pushing its batch needs
        zero extra bytes even when the relay is completely full."""
        client = relay.client()
        half = relay.capacity_bytes * 0.5
        times = []

        def scenario():
            yield client.mpush([("a", b"1"), ("b", b"2")],
                               logical_sizes=[half, half])
            started = cloud.sim.now
            yield client.mpush([("a", b"3"), ("b", b"4")],
                               logical_sizes=[half, half])
            times.append(cloud.sim.now - started)
            return (yield client.mpull(["a", "b"]))

        assert cloud.sim.run_process(scenario()) == [b"3", b"4"]
        assert relay.stats.backpressure_waits == 0  # no admission wait
        assert relay.used_logical == pytest.approx(relay.capacity_bytes)
        relay.check_memory_accounting()

    def test_cancelled_replacement_preserves_old_value(self, cloud, relay):
        winner = relay.client()
        loser = relay.client(attempt_id="loser")
        chunk = relay.capacity_bytes * 0.6  # ~8 s replacement transfer

        def seed():
            yield winner.push("k", b"old", logical_size=chunk)

        cloud.sim.run_process(seed())

        def replacer():
            yield loser.push("k", b"new", logical_size=chunk)

        process = cloud.sim.process(replacer())

        def canceller():
            yield cloud.sim.timeout(5.0)  # replacement mid-transfer
            process.interrupt(cause="lost race")
            relay.cancel_attempt("loser")

        cloud.sim.process(canceller())
        cloud.sim.run()

        def check():
            return (yield winner.mpull(["k"]))[0]

        assert cloud.sim.run_process(check()) == b"old"
        assert relay.used_logical == pytest.approx(chunk)
        relay.check_memory_accounting()

    def test_consume_during_replacement_is_absorbed(self, cloud, relay):
        """An old entry consumed mid-swap keeps its bytes reserved for
        the incoming replacement — no release/re-admit churn, exact
        accounting either way the swap ends."""
        client = relay.client()

        def scenario():
            yield client.push("a", b"old", logical_size=1000.0)
            replacement = client.push("a", b"new", logical_size=2e9)
            yield cloud.sim.timeout(0.5)  # replacement is mid-transfer
            (data,) = yield client.mpull(["a"], consume=True)
            assert data == b"old"
            relay.check_memory_accounting()
            yield replacement
            return (yield client.mpull(["a"]))[0]

        assert cloud.sim.run_process(scenario()) == b"new"
        assert relay.used_logical == pytest.approx(2e9)
        relay.check_memory_accounting()

    def test_rejected_oversized_swap_preserves_old_value(self, cloud, relay):
        client = relay.client()

        def scenario():
            yield client.push("k", b"old", logical_size=100.0)
            try:
                yield client.mpush([("k", b"huge")],
                                   logical_sizes=[relay.capacity_bytes * 2])
            except Exception:
                pass
            return (yield client.mpull(["k"]))[0]

        assert cloud.sim.run_process(scenario()) == b"old"
        assert relay.used_logical == 100.0
        relay.check_memory_accounting()


class Owner:
    """A bare process tracker standing in for an activation context."""

    def __init__(self):
        self.processes = []

    def track(self, process):
        self.processes.append(process)
        return process


class TestInterruptCleanup:
    """A killed op leaves the store as if it had never been issued: the
    relay and the cache share one token wait and one transfer step."""

    def test_interrupted_pull_aborts_its_flow(self, cloud, relay):
        """Killing the tracked op process (what the activation's cancel
        scope does) must stop the pull's NIC flow immediately."""
        owner = Owner()
        client = relay.client(owner=owner)
        checked = []

        def seed():
            yield client.push("k", b"x", logical_size=4e9)

        cloud.sim.run_process(seed())

        def puller():
            yield client.mpull(["k"])

        cloud.sim.process(puller())

        def canceller():
            yield cloud.sim.timeout(5.0)
            assert relay.link.active_flows == 1
            pull_op = owner.processes[-1]  # the spawned _pull_op process
            pull_op.interrupt(cause="killed")
            assert relay.link.active_flows == 0
            checked.append(True)

        cloud.sim.process(canceller())
        cloud.sim.run()
        assert checked == [True]
        assert relay.used_logical == pytest.approx(4e9)  # entry untouched
        relay.check_memory_accounting()

    @pytest.mark.parametrize("verb", ["mget", "get_wait"])
    def test_interrupted_cache_read_aborts_its_flow(self, cloud, verb):
        cluster = cloud.cache.provision_ready("cache.r5.large")
        [node] = cluster.nodes
        owner = Owner()
        client = cluster.client(owner=owner)
        cloud.sim.run_process(iter_of(client.set("k", b"x", logical_size=4e9)))
        read = client.mget(["k"]) if verb == "mget" else client.get_wait("k")
        observed = []

        def canceller():
            yield cloud.sim.timeout(5.0)  # ~13 s read: mid-transfer
            observed.append(node.link.active_flows)
            owner.processes[-1].interrupt(cause="killed")
            observed.append(node.link.active_flows)

        cloud.sim.process(canceller())
        cloud.sim.run()
        assert observed == [1, 0]
        assert not read.ok
        assert (node.stats.gets, node.key_count) == (0, 1)

    @pytest.mark.parametrize("target", ["relay", "cache-mset", "cache-set"])
    def test_interrupted_token_wait_does_not_burn_tokens(self, cloud, target):
        """A cancelled request queued on the ops bucket withdraws its
        token demand so later requests are not stalled behind a ghost."""
        owner = Owner()
        if target == "relay":
            store = relay_ready(cloud.vms, "bx2-2x8")
            client = store.client(owner=owner)
            batch = client.mpush
        else:
            # A slow bucket, so that even a single SET queues behind the
            # burst the first batch took.
            cloud.cache.profile.ops_per_node = cloud.cache.profile.ops_burst = 10.0
            cluster = cloud.cache.provision_ready("cache.r5.large")
            [store] = cluster.nodes
            client = cluster.client(owner=owner)
            batch = client.mset
        burst = int(store.ops.capacity)
        keys = [(f"k{i}", b"") for i in range(burst)]
        # Exhaust the whole burst so the next request must queue.
        cloud.sim.run_process(iter_of(batch(keys, logical_sizes=[0.0] * burst)))
        if target == "cache-set":
            client.set("k0", b"")
        else:
            batch(keys, logical_sizes=[0.0] * burst)
        observed = []

        def canceller():
            yield cloud.sim.timeout(0.001)  # the victim is queued on tokens
            observed.append(store.ops.pending_demand)
            owner.processes[-1].interrupt(cause="killed")
            observed.append(store.ops.pending_demand)

        cloud.sim.process(canceller())
        cloud.sim.run()
        assert observed[0] > 0.0  # it really was waiting for tokens
        assert observed[1] == 0.0  # the demand was withdrawn, not burned
        if target == "relay":
            store.check_memory_accounting()


def iter_of(event):
    """A driver process body that waits for one event."""
    return (yield event)
