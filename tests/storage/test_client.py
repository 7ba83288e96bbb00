"""Tests for the driver's object-store client, ``FunctionExecutor.storage``.

The driver uploads functions and inputs, reads results and HEADs sort
inputs through the same retrying :class:`BoundStorage` every function
and VM uses, unbounded and named after its executor.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.objectstore import NoSuchBucket, NoSuchKey
from repro.cloud.objectstore.errors import InternalError
from repro.cloud.profiles import ibm_us_east
from repro.cloud.retry import RETRY_POLICY
from repro.cloud.storageview import BoundStorage
from repro.errors import StorageError
from repro.executor import FunctionExecutor
from repro.sim import Simulator
from tests.cloud.test_storageview import (
    assert_collector_free,
    counted_processes,
    throttle,
    throttle_some_to_exhaustion,
)
from tests.stored import stored_keys


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=17, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("b")
    return cloud


@pytest.fixture
def executor(cloud):
    return FunctionExecutor(cloud)


@pytest.fixture
def client(executor):
    return executor.storage


def fail_internally(store, times):
    """Fail the store's next ``times`` requests with a 500 ``InternalError``."""
    inject = store._inject_fault
    failures = iter(range(times))

    def failing_inject(*args):
        if next(failures, None) is not None:
            raise InternalError("injected")
        return inject(*args)

    store._inject_fault = failing_inject


def count_admissions(store):
    """Count the store's admission attempts in the returned one-item list."""
    admit = store._admit
    attempts = [0]

    def counting_admit():
        attempts[0] += 1
        return admit()

    store._admit = counting_admit
    return attempts


class TestBasicOps:
    def test_the_client_is_the_workers_retrying_view(self, executor, client):
        assert isinstance(client, BoundStorage)
        assert client.name == f"{executor.executor_id}.driver"
        assert client.connection_bandwidth is None  # the store's own cap
        assert client.retries == 0

    def test_put_get_roundtrip(self, cloud, client):
        def scenario():
            yield client.put("b", "k", b"payload")
            return (yield client.get("b", "k"))

        assert cloud.sim.run_process(scenario()) == b"payload"

    def test_range_read(self, cloud, client):
        def scenario():
            yield client.put("b", "k", b"0123456789")
            return (yield client.get_range("b", "k", 2, 6))

        assert cloud.sim.run_process(scenario()) == b"2345"

    def test_head_reports_the_object_size(self, cloud, client):
        def scenario():
            yield client.put("b", "k", b"0123456789", logical_size=1000.0)
            return (yield client.head("b", "k"))

        meta = cloud.sim.run_process(scenario())
        assert (meta.bucket, meta.key, meta.size) == ("b", "k", 10)
        assert meta.logical_size == 1000.0

    def test_delete_removes_only_its_key(self, cloud, client):
        def scenario():
            yield client.put("b", "a/1", b"x")
            yield client.put("b", "a/2", b"x")
            yield client.delete("b", "a/1")

        cloud.sim.run_process(scenario())
        assert stored_keys(cloud.store, "b", "a/") == ["a/2"]


class TestRetry:
    def _throttled_cloud(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.ops_per_second = 50.0
        profile.objectstore.ops_burst = 5.0
        profile.objectstore.slowdown_after_s = 0.2
        cloud = Cloud.fresh(seed=17, profile=profile)
        cloud.store.ensure_bucket("b")
        return cloud

    def test_slowdown_retried_transparently(self):
        cloud = self._throttled_cloud()
        client = FunctionExecutor(cloud).storage
        outcomes = []

        def worker(index):
            yield client.put("b", f"k{index}", b"x")
            outcomes.append(index)

        for index in range(120):
            cloud.sim.process(worker(index))
        cloud.sim.run()
        assert len(outcomes) == 120  # every request eventually lands
        assert client.retries > 0  # and some were throttled + retried
        assert client.retries == cloud.store.stats.slowdowns

    def test_retries_exhausted_raises_storage_error(self, cloud, client):
        throttle(cloud.store, RETRY_POLICY.max_attempts)

        def scenario():
            yield client.put("b", "k", b"x")

        with pytest.raises(StorageError, match="still failing after 6 attempts"):
            cloud.sim.run_process(scenario())
        with pytest.raises(NoSuchKey):
            cloud.store.peek("b", "k")  # no attempt stored the object

    def test_internal_errors_are_retried_like_slowdowns(self, cloud, client):
        fail_internally(cloud.store, 2)

        def scenario():
            yield client.put("b", "k", b"x")
            return (yield client.get("b", "k"))

        assert cloud.sim.run_process(scenario()) == b"x"
        assert client.retries == 2

    def test_each_executor_counts_its_own_retries(self, cloud, client):
        other = FunctionExecutor(cloud).storage
        throttle(cloud.store, 2)

        def scenario():
            yield client.put("b", "k", b"x")
            yield other.put("b", "k2", b"x")

        cloud.sim.run_process(scenario())
        assert (client.retries, other.retries) == (2, 0)


class TestOneProcessPerRequest:
    """The driver's request is one process started at issue, however
    many attempts it takes."""

    VERBS = {
        "get": lambda client: client.get("b", "k"),
        "get_range": lambda client: client.get_range("b", "k", 1, 3),
        "head": lambda client: client.head("b", "k"),
        "put": lambda client: client.put("b", "k2", b"data"),
    }

    def request(self, cloud, client, verb, slowdowns=0):
        def scenario():
            yield cloud.store.put("b", "k", b"0123")
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
        value, counts = self.request(cloud, client, "get", slowdowns=2)
        assert value == b"0123"
        assert counts == {"processes": 1, "kickoffs": 0}
        assert client.retries == 2

    def test_an_exhausted_request_raises_the_same_storage_error(self, cloud, client):
        throttle(cloud.store, RETRY_POLICY.max_attempts)

        def scenario():
            yield client.put("b", "k", b"x")

        with pytest.raises(StorageError) as error:
            cloud.sim.run_process(scenario())
        assert str(error.value) == (
            "put:k: still failing after 6 attempts "
            "(request rate exceeded; estimated backlog 1.0s)"
        )
        assert client.retries == RETRY_POLICY.max_attempts - 1

    def test_not_found_errors_surface_unchanged(self, cloud, client):
        def scenario(bucket):
            yield client.get(bucket, "missing")

        with pytest.raises(NoSuchKey, match="object does not exist: 'b'/'missing'"):
            cloud.sim.run_process(scenario("b"))
        with pytest.raises(NoSuchBucket, match="bucket does not exist: 'nope'"):
            cloud.sim.run_process(scenario("nope"))
        assert client.retries == 0

    def test_failed_requests_leave_nothing_for_the_collector(self, cloud, client):
        throttle_some_to_exhaustion(cloud.store)
        failures = []

        def worker(bucket):
            try:
                yield client.get(bucket, "missing")
            except StorageError as exc:  # exhausted, NoSuchKey, NoSuchBucket
                failures.append(type(exc).__name__)

        assert_collector_free(cloud, worker, failures)


class TestRetryLoopExhaustion:
    """The driver's retry bookkeeping, on a store refusing admissions."""

    @pytest.mark.parametrize("slowdowns", [1, 3, RETRY_POLICY.max_attempts - 1])
    def test_retries_counter_counts_each_transient_failure(
        self, cloud, client, slowdowns
    ):
        def scenario():
            yield cloud.store.put("b", "k", b"payload")
            throttle(cloud.store, slowdowns)
            return (yield client.get("b", "k"))

        assert cloud.sim.run_process(scenario()) == b"payload"
        assert client.retries == slowdowns
        assert cloud.store.stats.gets == 1  # only the last attempt got through

    def test_max_attempts_surfaces_the_underlying_slowdown(self, cloud, client):
        throttle(cloud.store, 10**9)
        attempts = count_admissions(cloud.store)

        def scenario():
            return (yield client.get("b", "k"))

        with pytest.raises(StorageError, match="after 6 attempts") as excinfo:
            cloud.sim.run_process(scenario())
        # The wrapped message names the throttling error it gave up on.
        assert "request rate exceeded" in str(excinfo.value)
        assert attempts == [RETRY_POLICY.max_attempts]
        assert client.retries == RETRY_POLICY.max_attempts - 1

    def test_backoff_draws_come_from_the_named_rng_stream(self, cloud, executor, client):
        """An exhausted driver request's elapsed time replays exactly from
        a fresh ``<executor_id>.driver.backoff`` stream with the same root
        seed: the driver's retries draw from no other randomness source."""
        throttle(cloud.store, RETRY_POLICY.max_attempts)

        def scenario():
            start = cloud.sim.now
            with pytest.raises(StorageError):
                yield client.get("b", "k")
            return cloud.sim.now - start

        elapsed = cloud.sim.run_process(scenario())

        def backoffs(name):
            stream = Simulator(seed=17).rng.stream(f"{name}.backoff")
            return sum(
                RETRY_POLICY.delay(attempt, stream)
                for attempt in range(1, RETRY_POLICY.max_attempts)
            )

        assert elapsed == pytest.approx(backoffs(f"{executor.executor_id}.driver"))
        # Another executor's driver seeds a different stream.
        other = FunctionExecutor(cloud)
        assert backoffs(f"{other.executor_id}.driver") != pytest.approx(elapsed)
