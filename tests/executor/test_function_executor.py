"""Unit/integration tests for the Lithops-like FunctionExecutor."""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.errors import ExecutorError
from repro.executor import ALL_COMPLETED, ANY_COMPLETED, CallState, FunctionExecutor
from tests.cloud.test_storageview import throttle


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=11, profile=ibm_us_east(deterministic=True))


@pytest.fixture
def executor(cloud):
    return FunctionExecutor(cloud)


def square(x):
    return x * x


class TestMap:
    def test_map_returns_results_in_order(self, cloud, executor):
        def driver():
            futures = yield executor.map(square, [1, 2, 3, 4, 5])
            return (yield executor.get_result(futures))

        assert cloud.sim.run_process(driver()) == [1, 4, 9, 16, 25]

    def test_map_over_empty_iterdata_rejected(self, cloud, executor):
        def driver():
            yield executor.map(square, [])

        with pytest.raises(ExecutorError):
            cloud.sim.run_process(driver())

    def test_map_futures_carry_job_metadata(self, cloud, executor):
        def driver():
            futures = yield executor.map(square, [1, 2])
            yield executor.wait(futures)
            return futures

        futures = cloud.sim.run_process(driver())
        assert [future.call_id for future in futures] == [0, 1]
        assert len({future.job_id for future in futures}) == 1
        assert all(future.state is CallState.SUCCESS for future in futures)

    def test_map_runs_calls_in_parallel(self, cloud, executor):
        def slow(ctx, x):
            yield ctx.sleep(10.0)
            return x

        def driver():
            futures = yield executor.map(slow, list(range(8)))
            yield executor.wait(futures)
            return cloud.sim.now

        finished_at = cloud.sim.run_process(driver())
        assert finished_at < 20.0  # parallel, not 80 s serial

    def test_cpu_model_charges_time(self, cloud, executor):
        def driver(cpu_model):
            futures = yield executor.map(square, [1], cpu_model=cpu_model)
            yield executor.wait(futures)
            return cloud.sim.now

        fast = cloud.sim.run_process(driver(None))
        cloud2 = Cloud.fresh(seed=11, profile=ibm_us_east(deterministic=True))
        executor2 = FunctionExecutor(cloud2)

        def driver2():
            futures = yield executor2.map(square, [1], cpu_model=lambda x: 30.0)
            yield executor2.wait(futures)
            return cloud2.sim.now

        slow = cloud2.sim.run_process(driver2())
        assert slow - fast == pytest.approx(30.0, abs=1.0)

    def test_each_job_gets_unique_id(self, cloud, executor):
        def driver():
            futures_a = yield executor.map(square, [1])
            futures_b = yield executor.map(square, [2])
            yield executor.wait(futures_a + futures_b)

        cloud.sim.run_process(driver())
        assert len({job.job_id for job in executor.jobs}) == 2


class TestCallAsync:
    def test_single_call_roundtrip(self, cloud, executor):
        def driver():
            future = yield executor.call_async(square, 7)
            return (yield executor.get_result(future))

        assert cloud.sim.run_process(driver()) == 49

    def test_sim_aware_function_gets_context(self, cloud, executor):
        def uses_context(ctx, x):
            yield ctx.compute(0.1)
            data = yield ctx.storage.put("lithops-staging", "side-effect", b"hi")
            return (x, ctx.memory_mb, data.size)

        def driver():
            future = yield executor.call_async(uses_context, 1)
            return (yield executor.get_result(future))

        value, memory_mb, size = cloud.sim.run_process(driver())
        assert value == 1
        assert memory_mb == 2048
        assert size == 2


class TestErrors:
    def test_function_exception_surfaces_at_get_result(self, cloud, executor):
        def bad(x):
            raise ValueError(f"cannot process {x}")

        def driver():
            futures = yield executor.map(bad, [1])
            yield executor.get_result(futures)

        with pytest.raises(ValueError, match="cannot process 1"):
            cloud.sim.run_process(driver())

    def test_wait_absorbs_failures(self, cloud, executor):
        def flaky(x):
            if x % 2 == 0:
                raise RuntimeError("even numbers fail")
            return x

        def driver():
            futures = yield executor.map(flaky, [1, 2, 3, 4])
            done, not_done = yield executor.wait(futures)
            return len(done), len(not_done), [f.error is not None for f in futures]

        done_count, not_done_count, errors = cloud.sim.run_process(driver())
        assert done_count == 4
        assert not_done_count == 0
        assert errors == [False, True, False, True]

    def test_error_state_recorded_on_future(self, cloud, executor):
        def bad(x):
            raise RuntimeError("boom")

        def driver():
            futures = yield executor.map(bad, [1])
            yield executor.wait(futures)
            return futures[0]

        future = cloud.sim.run_process(driver())
        assert future.state is CallState.ERROR
        assert isinstance(future.error, RuntimeError)

    def test_unknown_return_when_rejected(self, cloud, executor):
        with pytest.raises(ExecutorError):
            executor.wait([], return_when="SOME_COMPLETED")


class TestWaitModes:
    def test_any_completed_returns_early(self, cloud, executor):
        def variable(ctx, delay):
            yield ctx.sleep(delay)
            return delay

        def driver():
            futures = yield executor.map(variable, [60.0, 1.0, 60.0])
            done, not_done = yield executor.wait(futures, return_when=ANY_COMPLETED)
            return cloud.sim.now, len(done), len(not_done)

        now, done_count, not_done_count = cloud.sim.run_process(driver())
        assert done_count == 1
        assert not_done_count == 2
        assert now < 30.0

    def test_all_completed_waits_for_stragglers(self, cloud, executor):
        def variable(ctx, delay):
            yield ctx.sleep(delay)
            return delay

        def driver():
            futures = yield executor.map(variable, [1.0, 30.0])
            done, _ = yield executor.wait(futures, return_when=ALL_COMPLETED)
            return cloud.sim.now, len(done)

        now, done_count = cloud.sim.run_process(driver())
        assert done_count == 2
        assert now >= 30.0


class TestMapReduce:
    def test_map_reduce_combines_results(self, cloud, executor):
        def driver():
            future = yield executor.map_reduce(square, [1, 2, 3, 4], sum)
            return (yield executor.get_result(future))

        assert cloud.sim.run_process(driver()) == 30

    def test_map_failure_aborts_reduce(self, cloud, executor):
        def bad(x):
            raise RuntimeError("map failed")

        def driver():
            yield executor.map_reduce(bad, [1], sum)

        with pytest.raises(RuntimeError, match="map failed"):
            cloud.sim.run_process(driver())

    def test_sim_aware_reduce(self, cloud, executor):
        def reduce_gen(ctx, results):
            yield ctx.compute(0.1)
            return max(results)

        def driver():
            future = yield executor.map_reduce(square, [3, 1, 2], reduce_gen)
            return (yield executor.get_result(future))

        assert cloud.sim.run_process(driver()) == 9


class TestStorageTraffic:
    def test_per_call_requests_hit_object_store(self, cloud, executor):
        """Every call must produce worker-side GETs and PUTs (the traffic
        that makes ops/s matter in the paper)."""

        def driver():
            futures = yield executor.map(square, list(range(10)))
            yield executor.get_result(futures)

        cloud.sim.run_process(driver())
        stats = cloud.store.stats
        # ≥ 1 function PUT + 10 input PUTs + 10 output PUTs + 10 status PUTs
        assert stats.puts >= 31
        # ≥ 10 function GETs + 10 input GETs + 10 result GETs
        assert stats.gets >= 30

    def test_the_driver_client_retries_a_throttled_upload(self, cloud, executor):
        """The driver uploads through the workers' retrying client: a
        store refusing its first admissions (the function and input
        PUTs, before any call runs) costs backoff, not the map."""

        def driver():
            throttle(cloud.store, 3)
            futures = yield executor.map(square, [1, 2, 3])
            return (yield executor.get_result(futures))

        assert cloud.sim.run_process(driver()) == [1, 4, 9]
        assert executor.storage.retries == 3

    def test_the_driver_client_retries_a_throttled_result_read(self, cloud, executor):
        """Results come back through the same client: a store refusing
        the driver's result GETs costs backoff, not the results."""

        def driver():
            futures = yield executor.map(square, [1, 2, 3])
            yield executor.wait(futures)
            throttle(cloud.store, 2)
            return (yield executor.get_result(futures))

        assert cloud.sim.run_process(driver()) == [1, 4, 9]
        assert executor.storage.retries == 2

    def test_billing_attributes_faas_cost(self, cloud, executor):
        def driver():
            futures = yield executor.map(square, [1, 2], cpu_model=lambda x: 1.0)
            yield executor.get_result(futures)

        cloud.sim.run_process(driver())
        assert cloud.meter.total_by_service()["faas"] > 0
        assert cloud.meter.total_by_service()["objectstore"] > 0
