"""Tests for the retrying storage client and serializer."""

import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud import Cloud
from repro.cloud.objectstore import NoSuchBucket, NoSuchKey
from repro.cloud.profiles import ibm_us_east
from repro.cloud.storageview import BoundStorage
from repro.errors import StorageError
from repro.storage import Storage, chunk_bytes, concat_chunks, deserialize, serialize
from repro.storage.api import RetryPolicy
from tests.cloud.test_storageview import counted_processes, throttle


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=17, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("bucket")
    return cloud


@pytest.fixture
def client(cloud):
    return Storage(cloud.sim, BoundStorage(cloud.store, None))


class TestBasicOps:
    def test_put_get_roundtrip(self, cloud, client):
        def scenario():
            yield client.put_object("bucket", "k", b"payload")
            return (yield client.get_object("bucket", "k"))

        assert cloud.sim.run_process(scenario()) == b"payload"

    def test_range_read(self, cloud, client):
        def scenario():
            yield client.put_object("bucket", "k", b"0123456789")
            return (yield client.get_object_range("bucket", "k", 2, 6))

        assert cloud.sim.run_process(scenario()) == b"2345"

    def test_list_and_delete(self, cloud, client):
        def scenario():
            yield client.put_object("bucket", "a/1", b"x")
            yield client.put_object("bucket", "a/2", b"x")
            yield client.delete_object("bucket", "a/1")
            return (yield client.list_keys("bucket", "a/"))

        assert cloud.sim.run_process(scenario()) == ["a/2"]


class TestRetry:
    def _throttled_cloud(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.ops_per_second = 50.0
        profile.objectstore.ops_burst = 5.0
        profile.objectstore.slowdown_after_s = 0.2
        cloud = Cloud.fresh(seed=17, profile=profile)
        cloud.store.ensure_bucket("bucket")
        return cloud

    def test_slowdown_retried_transparently(self):
        cloud = self._throttled_cloud()
        client = Storage(cloud.sim, BoundStorage(cloud.store, None))
        outcomes = []

        def worker(index):
            yield client.put_object("bucket", f"k{index}", b"x")
            outcomes.append(index)

        for index in range(120):
            cloud.sim.process(worker(index))
        cloud.sim.run()
        assert len(outcomes) == 120  # every request eventually lands
        assert client.retries > 0  # and some were throttled + retried

    def test_retries_exhausted_raises_storage_error(self):
        cloud = self._throttled_cloud()
        policy = RetryPolicy(max_attempts=1)
        client = Storage(cloud.sim, BoundStorage(cloud.store, None), retry=policy)
        failures = []

        def worker(index):
            try:
                yield client.put_object("bucket", f"k{index}", b"x")
            except StorageError:
                failures.append(index)

        for index in range(120):
            cloud.sim.process(worker(index))
        cloud.sim.run()
        assert failures  # with a single attempt, throttling surfaces

    def test_backoff_delays_grow(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=60.0, multiplier=2.0)

        class FakeRng:
            def uniform(self, low, high):
                return high  # deterministic: always the ceiling

        rng = FakeRng()
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=5.0, multiplier=10.0)

        class FakeRng:
            def uniform(self, low, high):
                return high

        assert policy.delay(5, FakeRng()) == 5.0


class TestOneProcessPerRequest:
    """The client's retry loop runs the backend's request inline and
    starts at issue: one process per request and no kick-off, however
    many attempts it takes."""

    VERBS = {
        "get_object": lambda client: client.get_object("bucket", "k"),
        "get_object_range": lambda client: client.get_object_range("bucket", "k", 1, 3),
        "put_object": lambda client: client.put_object("bucket", "k2", b"data"),
    }

    def request(self, cloud, client, verb, slowdowns=0):
        def scenario():
            yield cloud.store.put("bucket", "k", b"0123")
            throttle(cloud.store, slowdowns)
            with counted_processes(cloud.sim) as counts:
                value = yield self.VERBS[verb](client)
            return value, counts

        return cloud.sim.run_process(scenario())

    @pytest.mark.parametrize("verb", VERBS)
    def test_one_process_and_no_kickoff(self, cloud, client, verb):
        _value, counts = self.request(cloud, client, verb)
        assert counts == {"processes": 1, "kickoffs": 0}

    def test_two_slowdowns_then_success_is_still_one_process(self, cloud, client):
        value, counts = self.request(cloud, client, "get_object", slowdowns=2)
        assert value == b"0123"
        assert counts == {"processes": 1, "kickoffs": 0}
        assert client.retries == 2

    def test_an_exhausted_request_raises_the_same_storage_error(self, cloud):
        client = Storage(
            cloud.sim, BoundStorage(cloud.store, None), retry=RetryPolicy(max_attempts=3)
        )
        throttle(cloud.store, 3)

        def scenario():
            yield client.put_object("bucket", "k", b"x")

        with pytest.raises(StorageError) as error:
            cloud.sim.run_process(scenario())
        assert str(error.value) == (
            "put:k: still failing after 3 attempts "
            "(request rate exceeded; estimated backlog 1.0s)"
        )
        assert client.retries == 2

    def test_not_found_errors_surface_unchanged(self, cloud, client):
        def scenario(bucket):
            yield client.get_object(bucket, "missing")

        with pytest.raises(NoSuchKey, match="object does not exist: 'bucket'/'missing'"):
            cloud.sim.run_process(scenario("bucket"))
        with pytest.raises(NoSuchBucket, match="bucket does not exist: 'nope'"):
            cloud.sim.run_process(scenario("nope"))
        assert client.retries == 0

    def test_failed_requests_leave_nothing_for_the_collector(self, cloud):
        client = Storage(
            cloud.sim, BoundStorage(cloud.store, None), retry=RetryPolicy(max_attempts=2)
        )
        throttle(cloud.store, 20)
        failures = []

        def worker(bucket):
            try:
                yield client.get_object(bucket, "missing")
            except StorageError as exc:  # exhausted, NoSuchKey, NoSuchBucket
                failures.append(type(exc).__name__)

        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for bucket in ("bucket", "nope") * 15:
                cloud.sim.process(worker(bucket))
            cloud.sim.run()
            assert sorted(set(failures)) == ["NoSuchBucket", "NoSuchKey", "StorageError"]
            failures.clear()
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class _FlakyBackend:
    """Backend whose GETs fail with SlowDown a fixed number of times.

    Stands in for a BoundStorage so ``Storage``'s retry loop can be
    exercised deterministically, without tuning a throttled store.
    Like ``BoundStorage.get_request`` it hands out a request generator,
    which the client runs inline.
    """

    def __init__(self, sim, failures: int, payload: bytes = b"payload"):
        self.sim = sim
        self.failures = failures
        self.payload = payload
        self.calls = 0

    def get_request(self, bucket, key):
        from repro.cloud.objectstore.errors import SlowDown
        from repro.sim import SimEvent

        event = SimEvent(self.sim, name=f"flaky.get:{key}")
        self.calls += 1
        if self.calls <= self.failures:
            event.fail(SlowDown(1.0))
        else:
            event.succeed(self.payload)
        return (yield event)


class TestRetryLoopExhaustion:
    """Direct coverage of the Storage retry loop's bookkeeping."""

    def _sim(self, seed=17):
        from repro.sim import Simulator

        return Simulator(seed=seed)

    def test_retries_counter_counts_each_transient_failure(self):
        sim = self._sim()
        backend = _FlakyBackend(sim, failures=3)
        client = Storage(sim, backend, retry=RetryPolicy(max_attempts=6))

        def scenario():
            return (yield client.get_object("bucket", "k"))

        assert sim.run_process(scenario()) == b"payload"
        assert backend.calls == 4  # 3 failures + the success
        assert client.retries == 3

    def test_max_attempts_surfaces_the_underlying_slowdown(self):
        sim = self._sim()
        backend = _FlakyBackend(sim, failures=10**9)
        policy = RetryPolicy(max_attempts=4)
        client = Storage(sim, backend, retry=policy)

        def scenario():
            return (yield client.get_object("bucket", "k"))

        with pytest.raises(StorageError, match="after 4 attempts") as excinfo:
            sim.run_process(scenario())
        # The wrapped message names the throttling error it gave up on.
        assert "request rate exceeded" in str(excinfo.value)
        assert backend.calls == policy.max_attempts
        assert client.retries == policy.max_attempts - 1

    def test_backoff_draws_come_from_the_named_rng_stream(self):
        """The exhaustion run's elapsed time must replay exactly from a
        fresh ``<name>.backoff`` stream with the same root seed — the
        retry loop draws from no other randomness source."""
        policy = RetryPolicy(max_attempts=5)
        sim = self._sim(seed=99)
        backend = _FlakyBackend(sim, failures=10**9)
        client = Storage(sim, backend, retry=policy, name="myclient")

        def scenario():
            try:
                yield client.get_object("bucket", "k")
            except StorageError:
                pass

        sim.run_process(scenario())

        replay = self._sim(seed=99)
        stream = replay.rng.stream("myclient.backoff")
        expected = sum(
            policy.delay(attempt, stream)
            for attempt in range(1, policy.max_attempts)
        )
        assert sim.now == pytest.approx(expected)
        # A different client name seeds a different stream.
        other = self._sim(seed=99).rng.stream("otherclient.backoff")
        different = sum(
            policy.delay(attempt, other)
            for attempt in range(1, policy.max_attempts)
        )
        assert different != pytest.approx(expected)


class TestSerializer:
    def test_roundtrip_plain_data(self):
        value = {"a": [1, 2, 3], "b": b"bytes"}
        assert deserialize(serialize(value)) == value

    def test_roundtrip_lambda(self):
        fn = deserialize(serialize(lambda x: x + 1))
        assert fn(41) == 42

    def test_roundtrip_closure(self):
        offset = 100

        def add_offset(x):
            return x + offset

        fn = deserialize(serialize(add_offset))
        assert fn(1) == 101

    @given(st.binary(max_size=10_000), st.integers(1, 1_000))
    def test_chunk_concat_roundtrip(self, data, chunk_size):
        chunks = list(chunk_bytes(data, chunk_size))
        assert concat_chunks(chunks) == data
        assert all(len(chunk) <= chunk_size for chunk in chunks)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(Exception):
            list(chunk_bytes(b"xx", 0))
