"""Multi-tenant relay primitives: read-leases, scopes, peak epochs.

The three single-job assumptions the shared ExchangeService exposed,
pinned at the relay level:

* consuming pulls from *worker attempts* take read-leases — the entry
  stays resident and pullable until the attempt commits, and a dead or
  fenced attempt's leases are reinstated (crash-safe consume mode);
* scope fencing — attempts bind to a ``tenant/job`` scope and
  ``cancel_scope`` reclaims/fences exactly that scope's attempts,
  never a sibling tenant's;
* epoch-scoped peak tracking — concurrent jobs measure their own high
  watermark without resetting each other's.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm import RelayAttemptFenced, relay_ready
from repro.cloud.vm.fleet import fleet_ready
from repro.errors import SimulationError

pytestmark = pytest.mark.service


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))


@pytest.fixture
def relay(cloud):
    return relay_ready(cloud.vms, "bx2-2x8")


class TestConsumeLeases:
    def test_driver_consume_removes_immediately(self, cloud, relay):
        """Clients without an attempt id keep the old semantics."""
        client = relay.client()

        def scenario():
            yield client.push("k", b"v", logical_size=100.0)
            yield client.mpull(["k"], consume=True)
            return relay.key_count

        assert cloud.sim.run_process(scenario()) == 0
        assert relay.stats.consume_leases == 0

    def test_attempt_consume_defers_removal_to_commit(self, cloud, relay):
        client = relay.client(attempt_id="att-1")

        def scenario():
            yield client.push("k", b"v", logical_size=100.0)
            (data,) = yield client.mpull(["k"], consume=True)
            assert data == b"v"
            # Leased, not removed: still resident and re-pullable.
            assert relay.key_count == 1
            assert (yield client.mpull(["k"]))[0] == b"v"
            removed = relay.commit_attempt("att-1")
            assert removed == 1
            assert relay.key_count == 0

        cloud.sim.run_process(scenario())
        assert relay.stats.consume_leases == 1
        assert relay.stats.lease_commits == 1
        relay.check_memory_accounting()

    def test_dead_attempt_lease_is_reinstated(self, cloud, relay):
        filler = relay.client()
        victim = relay.client(attempt_id="att-2")

        def scenario():
            yield filler.push("k", b"v", logical_size=100.0)
            yield victim.mpull(["k"], consume=True)
            assert relay.key_count == 1
            relay.cancel_attempt("att-2")
            # The lease died with the attempt; the entry survives.
            assert relay.key_count == 1
            assert (yield filler.mpull(["k"]))[0] == b"v"

        cloud.sim.run_process(scenario())
        assert relay.stats.lease_reinstatements == 1
        assert relay.stats.lease_commits == 0
        assert relay.used_logical == pytest.approx(100.0)
        relay.check_memory_accounting()

    def test_commit_of_unknown_attempt_is_noop(self, cloud, relay):
        assert relay.commit_attempt("never-seen") == 0
        assert relay.commit_attempt(None) == 0

    def test_double_lease_commits_once(self, cloud, relay):
        """A retried pull of the same key by the same attempt holds one
        lease, and commit removes the entry exactly once."""
        client = relay.client(attempt_id="att-3")

        def scenario():
            yield client.push("k", b"v", logical_size=50.0)
            yield client.mpull(["k"], consume=True)
            yield client.mpull(["k"], consume=True)
            assert relay.stats.consume_leases == 1
            assert relay.commit_attempt("att-3") == 1

        cloud.sim.run_process(scenario())
        relay.check_memory_accounting()


class TestScopeFencing:
    def test_cancel_scope_reclaims_only_its_tenant(self, cloud, relay):
        alice = relay.client(attempt_id="a-1", scope="alice/job-1")
        bob = relay.client(attempt_id="b-1", scope="bob/job-2")

        def scenario():
            yield alice.push("alice-k", b"a", logical_size=200.0)
            yield bob.push("bob-k", b"b", logical_size=300.0)
            relay.cancel_scope("alice/job-1")
            # Alice's attempt is fenced; Bob's bytes are untouched.
            assert relay.is_fenced("a-1")
            assert not relay.is_fenced("b-1")
            assert (yield bob.mpull(["bob-k"]))[0] == b"b"

        cloud.sim.run_process(scenario())
        assert relay.scope_fenced("alice/job-1")
        assert not relay.scope_fenced("bob/job-2")
        assert relay.residual_reservation_bytes() == 0.0
        relay.check_memory_accounting()

    def test_binding_into_fenced_scope_is_dead_on_arrival(self, cloud, relay):
        relay.cancel_scope("alice/job-1")
        zombie = relay.client(attempt_id="late-1", scope="alice/job-1")

        def scenario():
            with pytest.raises(RelayAttemptFenced):
                yield zombie.push("k", b"v", logical_size=10.0)

        cloud.sim.run_process(scenario())

    def test_scope_cancel_reinstates_consume_leases(self, cloud, relay):
        filler = relay.client()
        worker = relay.client(attempt_id="w-1", scope="alice/job-1")

        def scenario():
            yield filler.push("k", b"v", logical_size=100.0)
            yield worker.mpull(["k"], consume=True)
            relay.cancel_scope("alice/job-1")
            assert relay.key_count == 1
            assert (yield filler.mpull(["k"]))[0] == b"v"

        cloud.sim.run_process(scenario())
        assert relay.stats.lease_reinstatements == 1

    def test_fleet_scope_fencing_covers_every_shard(self, cloud):
        fleet = fleet_ready(cloud.vms, "bx2-2x8", shards=2)
        client = fleet.client(attempt_id="w-1", scope="alice/job-1")

        def scenario():
            # Two keys that land on different shards (CRC spread).
            yield client.mpush(
                [("k-0", b"a"), ("k-7", b"b")], logical_sizes=[100.0, 100.0]
            )

        cloud.sim.run_process(scenario())
        fleet.cancel_scope("alice/job-1")
        assert fleet.scope_fenced("alice/job-1")
        assert fleet.is_fenced("w-1")
        assert fleet.residual_reservation_bytes() == 0.0
        fleet.check_memory_accounting()


class TestPeakEpochs:
    def test_epochs_track_independent_windows(self, cloud, relay):
        client = relay.client()
        cap = relay.capacity_bytes

        def scenario():
            yield client.push("a", b"x", logical_size=cap * 0.5)
            first = relay.begin_peak_epoch()
            yield client.push("b", b"x", logical_size=cap * 0.25)
            second = relay.begin_peak_epoch()
            yield client.mpull(["a"], consume=True)  # driver: immediate
            yield client.mpull(["b"], consume=True)
            # Both epochs saw the 0.75 peak fill (fractions of capacity);
            # the later low-water traffic never lowers either.
            assert relay.peak_fill_since(first) == pytest.approx(0.75)
            assert relay.peak_fill_since(second) == pytest.approx(0.75)
            yield client.push("c", b"x", logical_size=cap * 0.1)
            assert relay.end_peak_epoch(first) == pytest.approx(0.75)
            assert relay.end_peak_epoch(second) == pytest.approx(0.75)

        cloud.sim.run_process(scenario())

    def test_epoch_does_not_disturb_legacy_peak(self, cloud, relay):
        client = relay.client()

        def scenario():
            yield client.push("a", b"x", logical_size=1000.0)
            token = relay.begin_peak_epoch()
            yield client.mpull(["a"], consume=True)
            relay.end_peak_epoch(token)
            # The relay-global peak still remembers the early high.
            assert relay.peak_used_logical == pytest.approx(1000.0)

        cloud.sim.run_process(scenario())

    def test_closed_or_unknown_token_raises(self, cloud, relay):
        token = relay.begin_peak_epoch()
        relay.end_peak_epoch(token)
        with pytest.raises(SimulationError):
            relay.peak_fill_since(token)
        with pytest.raises(SimulationError):
            relay.end_peak_epoch(token)
        with pytest.raises(SimulationError):
            relay.peak_fill_since(99999)

    def test_fleet_epoch_is_max_over_shards(self, cloud):
        fleet = fleet_ready(cloud.vms, "bx2-2x8", shards=2)
        client = fleet.client()
        token = fleet.begin_peak_epoch()

        def scenario():
            yield client.mpush(
                [("k-0", b"a"), ("k-7", b"b")],
                logical_sizes=[400.0, 100.0],
            )

        cloud.sim.run_process(scenario())
        hottest = max(
            shard.used_logical / shard.capacity_bytes for shard in fleet.shards
        )
        assert fleet.end_peak_epoch(token) == pytest.approx(hottest)
