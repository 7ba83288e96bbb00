"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import AllOf, AnyOf, ConditionError


@pytest.fixture
def sim():
    return Simulator(seed=7)


class TestSimEvent:
    def test_starts_pending(self, sim):
        event = sim.event("e")
        assert not event.triggered
        assert event.exception is None

    def test_succeed_delivers_value(self, sim):
        event = sim.event("e")
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_stores_exception(self, sim):
        event = sim.event("e")
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.exception is error
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_value_before_trigger_raises(self, sim):
        event = sim.event("e")
        with pytest.raises(SimulationError):
            _ = event.value

    def test_double_succeed_raises(self, sim):
        event = sim.event("e")
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_succeed_after_fail_raises(self, sim):
        event = sim.event("e")
        event.fail(ValueError("x"))
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event("e")
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_callbacks_run_in_registration_order(self, sim):
        event = sim.event("e")
        order = []
        event.add_callback(lambda _e: order.append("a"))
        event.add_callback(lambda _e: order.append("b"))
        event.succeed()
        assert order == ["a", "b"]

    @pytest.mark.parametrize("waiters", [0, 1, 2, 3])
    @pytest.mark.parametrize("outcome", ["succeed", "fail"])
    def test_every_waiter_count_dispatches_once_in_order(self, sim, waiters, outcome):
        # One waiter is held as the callback itself, more as a list.
        event = sim.timeout(1.0) if outcome == "succeed" else sim.event("e")
        order = []
        for tag in range(waiters):
            event.add_callback(lambda _e, tag=tag: order.append(tag))
        if outcome == "succeed":
            sim.run()
        else:
            event.fail(ValueError("x"))
        assert order == list(range(waiters))
        event.add_callback(lambda _e: order.append("late"))
        assert order == list(range(waiters)) + ["late"]

    @pytest.mark.parametrize("waiters", [1, 2, 3])
    def test_remove_callback_forgets_only_that_waiter(self, sim, waiters):
        event = sim.event("e")
        order = []
        callbacks = [lambda _e, tag=tag: order.append(tag) for tag in range(waiters)]
        for callback in callbacks:
            event.add_callback(callback)
        event.remove_callback(callbacks[0])
        event.remove_callback(callbacks[0])  # already gone: a no-op
        event.add_callback(lambda _e: order.append("new"))
        event.succeed()
        assert order == list(range(1, waiters)) + ["new"]
        event.remove_callback(callbacks[-1])  # dispatched: a no-op

    def test_late_callback_runs_immediately(self, sim):
        event = sim.event("e")
        event.succeed("v")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        timeout = sim.timeout(1.5)
        sim.run()
        assert timeout.triggered
        assert sim.now == pytest.approx(1.5)

    def test_timeout_carries_value(self, sim):
        timeout = sim.timeout(1.0, value="done")
        sim.run()
        assert timeout.value == "done"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)

    def test_nan_delay_rejected(self, sim):
        # ``nan < 0`` is False: a NaN delay used to be pushed and broke
        # the heap's ordering without an error.
        with pytest.raises(SimulationError, match="nan"):
            sim.timeout(float("nan"))
        assert not sim.step()  # nothing reached the heap

    def test_negative_zero_delay_allowed(self, sim):
        timeout = sim.timeout(-0.0)
        sim.run()
        assert timeout.triggered
        assert sim.now == 0.0

    def test_zero_delay_allowed(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.triggered
        assert sim.now == 0.0

    def test_timeouts_trigger_in_time_order(self, sim):
        order = []
        sim.timeout(2.0).add_callback(lambda _e: order.append(2))
        sim.timeout(1.0).add_callback(lambda _e: order.append(1))
        sim.timeout(3.0).add_callback(lambda _e: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_timeouts_trigger_in_schedule_order(self, sim):
        order = []
        for tag in ("first", "second", "third"):
            sim.timeout(1.0).add_callback(lambda _e, t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]


class TestAllOf:
    def test_collects_values_in_construction_order(self, sim):
        early = sim.timeout(1.0, value="early")
        late = sim.timeout(2.0, value="late")
        combined = AllOf(sim, [late, early])
        sim.run()
        assert combined.value == ["late", "early"]

    def test_empty_allof_triggers_immediately(self, sim):
        combined = AllOf(sim, [])
        assert combined.triggered
        assert combined.value == []

    def test_child_failure_fails_condition(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event("bad")
        combined = AllOf(sim, [good, bad])
        bad.fail(RuntimeError("child failed"))
        assert combined.triggered
        assert not combined.ok

    def test_rejects_non_events(self, sim):
        with pytest.raises(ConditionError):
            AllOf(sim, [sim.event(), "nope"])


class TestAnyOf:
    def test_first_winner_reported_with_index(self, sim):
        slow = sim.timeout(5.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        combined = AnyOf(sim, [slow, fast])
        sim.run(until=combined)
        assert combined.value == (1, "fast")

    def test_later_triggers_ignored(self, sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")
        combined = AnyOf(sim, [a, b])
        sim.run()
        assert combined.value == (0, "a")

    def test_empty_anyof_rejected(self, sim):
        with pytest.raises(ConditionError):
            AnyOf(sim, [])

    def test_failure_propagates(self, sim):
        never = sim.event("never")
        bad = sim.event("bad")
        combined = AnyOf(sim, [never, bad])
        bad.fail(ValueError("first failure wins"))
        assert combined.triggered
        assert not combined.ok
