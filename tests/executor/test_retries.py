"""Tests for infrastructure-failure retries in the executor."""

import pytest

from repro.cloud import Cloud
from repro.cloud.faas import FunctionCrashed
from repro.cloud.profiles import ibm_us_east
from repro.executor import FunctionExecutor


@pytest.fixture
def cloud():
    return Cloud.fresh(seed=37, profile=ibm_us_east(deterministic=True))


def steady(ctx, x):
    yield ctx.sleep(5.0)
    return x * 2


class TestCrashRetries:
    def test_occasional_crashes_are_absorbed(self, cloud):
        executor = FunctionExecutor(cloud, retries=3)
        cloud.faas.crash_probability = 0.3
        cloud.faas.crash_latest_s = 0.5  # kills preempt the 5 s body

        def driver():
            futures = yield executor.map(steady, list(range(12)))
            return (yield executor.get_result(futures))

        results = cloud.sim.run_process(driver())
        assert results == [x * 2 for x in range(12)]
        assert cloud.faas.stats.crashes > 0  # something actually crashed

    def test_retries_exhausted_surfaces_crash(self, cloud):
        executor = FunctionExecutor(cloud, retries=1)
        cloud.faas.crash_probability = 1.0  # platform always kills
        cloud.faas.crash_latest_s = 0.5

        def driver():
            futures = yield executor.map(steady, [1])
            yield executor.get_result(futures)

        with pytest.raises(FunctionCrashed):
            cloud.sim.run_process(driver())
        # 1 original + 1 retry
        assert cloud.faas.stats.crashes == 2

    def test_zero_retries_fails_on_first_crash(self, cloud):
        executor = FunctionExecutor(cloud, retries=0)
        cloud.faas.crash_probability = 1.0
        cloud.faas.crash_latest_s = 0.5

        def driver():
            futures = yield executor.map(steady, [1])
            yield executor.get_result(futures)

        with pytest.raises(FunctionCrashed):
            cloud.sim.run_process(driver())
        assert cloud.faas.stats.crashes == 1

    def test_application_errors_never_retried(self, cloud):
        executor = FunctionExecutor(cloud, retries=5)

        def buggy(x):
            raise ValueError("application bug")

        def driver():
            futures = yield executor.map(buggy, [1])
            yield executor.get_result(futures)

        with pytest.raises(ValueError):
            cloud.sim.run_process(driver())
        # Exactly one platform invocation: application bugs never retry.
        assert cloud.faas.stats.invocations == 1

    def test_retried_calls_still_billed(self, cloud):
        executor = FunctionExecutor(cloud, retries=2)
        cloud.faas.crash_probability = 1.0
        cloud.faas.crash_latest_s = 0.5

        def driver():
            futures = yield executor.map(steady, [1])
            with pytest.raises(FunctionCrashed):
                yield executor.get_result(futures)

        cloud.sim.run_process(driver())
        # Every attempt (3 total) billed some GB-seconds.
        assert cloud.faas.stats.billed_gb_seconds > 0
