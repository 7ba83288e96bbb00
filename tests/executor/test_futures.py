"""Tests for the call futures the executors hand out."""

import pytest

from repro.errors import ExecutorError
from repro.executor import CallState, CallStats, ResponseFuture
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


def make_future(sim):
    return ResponseFuture(
        call_id=4,
        job_id="J000",
        executor_id="exec-0",
        done_event=sim.event(),
        output_ref=("bucket", "key"),
    )


class TestLifeCycle:
    def test_a_new_future_is_invoked_and_not_done(self, sim):
        future = make_future(sim)
        assert future.state is CallState.INVOKED
        assert not future.done
        assert future.error is None

    def test_success_moves_to_success_and_exposes_the_status(self, sim):
        future = make_future(sim)
        future.done_event.succeed({"worker": "w-1"})
        assert future.done
        assert future.state is CallState.SUCCESS
        assert future.status == {"worker": "w-1"}
        assert future.error is None

    def test_failure_moves_to_error_and_keeps_the_exception(self, sim):
        future = make_future(sim)
        error = RuntimeError("crashed")
        future.done_event.fail(error)
        assert future.state is CallState.ERROR
        assert future.error is error
        with pytest.raises(RuntimeError):
            future.status

    def test_status_of_an_unfinished_call_raises(self, sim):
        future = make_future(sim)
        with pytest.raises(ExecutorError, match="J000/4 has not finished"):
            future.status


class TestResult:
    def test_result_before_fetch_raises(self, sim):
        future = make_future(sim)
        future.done_event.succeed({})
        assert not future.result_ready
        with pytest.raises(ExecutorError, match="not fetched yet"):
            future.result

    def test_stored_result_is_returned_even_when_none(self, sim):
        future = make_future(sim)
        future._store_result(None)
        assert future.result_ready
        assert future.result is None
