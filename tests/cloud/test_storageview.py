"""Tests for the bandwidth-bounded, retrying storage views."""

import contextlib
import gc

import pytest

from repro.cloud import Cloud, MB
from repro.cloud.objectstore import NoSuchBucket, NoSuchKey, ObjectStore, SlowDown
from repro.cloud.profiles import ibm_us_east
from repro.cloud.retry import RETRY_POLICY, RetryPolicy
from repro.cloud.storageview import BoundStorage
from repro.errors import StorageError
from repro.sim import Process, Simulator, inline, render_name
from tests.stored import stored_keys


@pytest.fixture
def cloud():
    profile = ibm_us_east(deterministic=True)
    profile.objectstore.read_latency.mean = 0.0
    profile.objectstore.write_latency.mean = 0.0
    cloud = Cloud.fresh(seed=47, profile=profile)
    cloud.store.ensure_bucket("b")
    return cloud


class TestBoundStorage:
    def test_unbounded_view_uses_store_connection_cap(self, cloud):
        view = BoundStorage(cloud.store, None)
        per_connection = cloud.profile.objectstore.per_connection_bandwidth

        def scenario():
            yield view.put("b", "k", b"x" * (10 * MB))
            start = cloud.sim.now
            yield view.get("b", "k")
            return cloud.sim.now - start

        elapsed = cloud.sim.run_process(scenario())
        assert elapsed == pytest.approx(10 * MB / per_connection, rel=0.01)

    def test_bound_caps_transfer_rate(self, cloud):
        view = BoundStorage(cloud.store, 5 * MB)

        def scenario():
            yield view.put("b", "k", b"x" * (10 * MB))
            start = cloud.sim.now
            yield view.get("b", "k")
            return cloud.sim.now - start

        elapsed = cloud.sim.run_process(scenario())
        assert elapsed == pytest.approx(2.0, rel=0.01)  # 10 MB at 5 MB/s

    def test_bounded_never_exceeds_parent(self, cloud):
        parent = BoundStorage(cloud.store, 5 * MB)
        child = parent.bounded(50 * MB)  # request looser: must stay at 5
        assert child.connection_bandwidth == 5 * MB

    def test_bounded_tightens(self, cloud):
        parent = BoundStorage(cloud.store, 20 * MB)
        child = parent.bounded(5 * MB)
        assert child.connection_bandwidth == 5 * MB

    def test_bounded_from_unbounded(self, cloud):
        parent = BoundStorage(cloud.store, None)
        child = parent.bounded(7 * MB)
        assert child.connection_bandwidth == 7 * MB

    def test_delete_through_view(self, cloud):
        view = BoundStorage(cloud.store, None)

        def scenario():
            yield view.put("b", "a/1", b"x")
            yield view.put("b", "a/2", b"x")
            yield view.delete("b", "a/1")

        cloud.sim.run_process(scenario())
        assert stored_keys(cloud.store, "b", "a/") == ["a/2"]


def test_object_storage_has_one_request_path():
    """GET, range GET and DELETE exist only on the retrying client,
    and nothing lists: the store's own verbs stage inputs (``put``) and
    answer control-plane lookups (``head``), and the rest of its surface
    is free and off the clock.  Adding a verb is a deliberate change
    here."""
    def public(cls):
        return sorted(name for name in vars(cls) if not name.startswith("_"))

    assert public(ObjectStore) == [
        "cas_entries", "ensure_bucket", "finalize_billing", "head", "peek", "put",
    ]
    assert public(BoundStorage) == [
        "bounded", "delete", "delete_request", "get", "get_range",
        "get_range_request", "get_request", "head", "head_request", "put",
        "put_request",
    ]


class TestThrottledStore:
    def test_slowdowns_are_retried_transparently(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.ops_per_second = 50.0
        profile.objectstore.ops_burst = 5.0
        profile.objectstore.slowdown_after_s = 0.2
        cloud = Cloud.fresh(seed=17, profile=profile)
        cloud.store.ensure_bucket("b")
        view = BoundStorage(cloud.store, None, name="fn")
        outcomes = []

        def worker(index):
            yield view.put("b", f"k{index}", b"x")
            outcomes.append(index)

        for index in range(120):
            cloud.sim.process(worker(index))
        cloud.sim.run()
        assert len(outcomes) == 120  # every request eventually lands
        assert cloud.store.stats.slowdowns > 0  # the store refused some
        assert view.retries == cloud.store.stats.slowdowns


class TestRetryPolicy:
    class CeilingRng:
        """Deterministic stand-in: every jittered draw is its ceiling."""

        def uniform(self, low, high):
            return high

    def test_backoff_delays_grow(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=60.0, multiplier=2.0)
        delays = [policy.delay(attempt, self.CeilingRng()) for attempt in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=5.0, multiplier=10.0)
        assert policy.delay(5, self.CeilingRng()) == 5.0


@contextlib.contextmanager
def counted_processes(sim):
    """Processes ``sim`` builds — started or adopted — and kick-offs it
    schedules, inside the block."""
    counts = {"processes": 0, "kickoffs": 0}
    process, schedule = sim.process, sim._schedule
    adopt = Process.__dict__["adopt"]

    def counting_process(*args, **kwargs):
        counts["processes"] += 1
        return process(*args, **kwargs)

    def counting_adopt(cls, owner, *args, **kwargs):
        counts["processes"] += owner is sim
        return adopt.__func__(cls, owner, *args, **kwargs)

    def counting_schedule(delay, event):
        counts["kickoffs"] += render_name(event._name).endswith(".start")
        schedule(delay, event)

    sim.process, sim._schedule = counting_process, counting_schedule
    Process.adopt = classmethod(counting_adopt)
    try:
        yield counts
    finally:
        del sim.process, sim._schedule
        Process.adopt = adopt


def throttle(store, times):
    """Refuse the store's next ``times`` admissions with ``SlowDown``."""
    admit = store._admit
    refusals = iter(range(times))

    def refusing_admit():
        if next(refusals, None) is not None:
            raise SlowDown(1.0)
        return admit()

    store._admit = refusing_admit


class TestOneProcessPerRequest:
    """A view's request is the store's op body in at most one process,
    started at issue: no kick-off, and the retry loop runs every attempt
    inline.  Run with ``inline`` in the caller's process, it is no
    process at all."""

    VERBS = {
        "get": lambda view: view.get("b", "k"),
        "get_range": lambda view: view.get_range("b", "k", 1, 3),
        "put": lambda view: view.put("b", "k2", b"data"),
    }
    REQUESTS = {
        "get": lambda view: view.get_request("b", "k"),
        "get_range": lambda view: view.get_range_request("b", "k", 1, 3),
        "put": lambda view: view.put_request("b", "k2", b"data"),
    }

    def request(self, cloud, view, verb, slowdowns=0, inlined=False):
        def scenario():
            yield cloud.store.put("b", "k", b"0123")
            throttle(cloud.store, slowdowns)
            with counted_processes(cloud.sim) as counts:
                if inlined:
                    value = yield from inline(cloud.sim, self.REQUESTS[verb](view))
                else:
                    value = yield self.VERBS[verb](view)
            return value, counts

        return cloud.sim.run_process(scenario())

    @pytest.mark.parametrize("verb", VERBS)
    def test_a_view_adopts_one_process_without_a_kickoff(self, cloud, verb):
        view = BoundStorage(cloud.store, None, name="fn")
        _value, counts = self.request(cloud, view, verb)
        assert counts == {"processes": 1, "kickoffs": 0}

    @pytest.mark.parametrize("verb", VERBS)
    def test_an_inline_request_is_no_process(self, cloud, verb):
        view = BoundStorage(cloud.store, None, name="fn")
        value, counts = self.request(cloud, view, verb, inlined=True)
        assert counts == {"processes": 0, "kickoffs": 0}
        if verb == "get":
            assert value == b"0123"

    def test_two_slowdowns_then_success_is_still_one_process(self, cloud):
        view = BoundStorage(cloud.store, None, name="fn")
        value, counts = self.request(cloud, view, "get", slowdowns=2)
        assert value == b"0123"
        assert counts == {"processes": 1, "kickoffs": 0}
        assert view.retries == 2

    def test_two_slowdowns_then_success_inline_is_no_process(self, cloud):
        view = BoundStorage(cloud.store, None, name="fn")
        value, counts = self.request(cloud, view, "get", slowdowns=2, inlined=True)
        assert value == b"0123"
        assert counts == {"processes": 0, "kickoffs": 0}
        assert view.retries == 2

    def test_the_last_attempt_can_still_succeed(self, cloud):
        view = BoundStorage(cloud.store, None, name="fn")
        slowdowns = RETRY_POLICY.max_attempts - 1
        value, _counts = self.request(cloud, view, "get", slowdowns=slowdowns)
        assert value == b"0123"
        assert view.retries == slowdowns

    def test_an_exhausted_request_surfaces_the_slowdown(self, cloud):
        view = BoundStorage(cloud.store, None, name="fn")
        throttle(cloud.store, RETRY_POLICY.max_attempts)

        def scenario():
            yield view.get("b", "k")

        with pytest.raises(StorageError) as error:
            cloud.sim.run_process(scenario())
        assert str(error.value) == (
            "get:k: still failing after 6 attempts "
            "(request rate exceeded; estimated backlog 1.0s)"
        )
        assert view.retries == RETRY_POLICY.max_attempts - 1

    def test_backoff_draws_come_from_the_named_rng_stream(self, cloud):
        """An exhausted request's elapsed time replays exactly from a
        fresh ``<name>.backoff`` stream with the same root seed: the
        retry loop draws from no other randomness source."""
        view = BoundStorage(cloud.store, None, name="myclient")
        throttle(cloud.store, RETRY_POLICY.max_attempts)

        def scenario():
            start = cloud.sim.now
            with pytest.raises(StorageError):
                yield view.get("b", "k")
            return cloud.sim.now - start

        elapsed = cloud.sim.run_process(scenario())

        def backoffs(name):
            stream = Simulator(seed=47).rng.stream(f"{name}.backoff")
            return sum(
                RETRY_POLICY.delay(attempt, stream)
                for attempt in range(1, RETRY_POLICY.max_attempts)
            )

        assert elapsed == pytest.approx(backoffs("myclient"))
        # A different client name seeds a different stream.
        assert backoffs("otherclient") != pytest.approx(elapsed)

    def test_not_found_errors_surface_unchanged(self, cloud):
        view = BoundStorage(cloud.store, None, name="fn")

        def scenario(bucket):
            yield view.get_range(bucket, "missing", 0, 1)

        with pytest.raises(NoSuchKey, match="object does not exist: 'b'/'missing'"):
            cloud.sim.run_process(scenario("b"))
        with pytest.raises(NoSuchBucket, match="bucket does not exist: 'nope'"):
            cloud.sim.run_process(scenario("nope"))
        assert view.retries == 0

    def test_failed_requests_leave_nothing_for_the_collector(self, cloud):
        view = BoundStorage(cloud.store, None, name="fn")
        throttle_some_to_exhaustion(cloud.store)
        failures = []

        def worker(bucket):
            try:
                yield view.get(bucket, "missing")
            except StorageError as exc:  # exhausted, NoSuchKey, NoSuchBucket
                failures.append(type(exc).__name__)

        assert_collector_free(cloud, worker, failures)

    def test_failed_inline_requests_leave_nothing_for_the_collector(self, cloud):
        view = BoundStorage(cloud.store, None, name="fn")
        throttle_some_to_exhaustion(cloud.store)
        failures = []

        def worker(bucket):
            try:
                yield from inline(cloud.sim, view.get_request(bucket, "missing"))
            except StorageError as exc:  # exhausted, NoSuchKey, NoSuchBucket
                failures.append(type(exc).__name__)

        assert_collector_free(cloud, worker, failures)


def throttle_some_to_exhaustion(store):
    """Refuse all but 10 of the admissions ``assert_collector_free``'s 15
    requests to an existing bucket can make: at least 5 of them exhaust
    their attempts, and at least 2 get through to a ``NoSuchKey``."""
    throttle(store, 15 * RETRY_POLICY.max_attempts - 10)


def assert_collector_free(cloud, worker, failures):
    """Fail 30 requests through ``worker`` with the collector off: each
    failure is freed by reference count, none left for ``gc.collect``."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for bucket in ("b", "nope") * 15:
            cloud.sim.process(worker(bucket))
        cloud.sim.run()
        assert sorted(set(failures)) == ["NoSuchBucket", "NoSuchKey", "StorageError"]
        failures.clear()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
