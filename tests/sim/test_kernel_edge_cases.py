"""Edge-case tests for kernel semantics that the stack relies on."""

import pytest

from repro.errors import DeadlockError, Interrupted, SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=3)


class TestZeroDelaySemantics:
    def test_zero_delay_chains_preserve_order(self, sim):
        """Cascades of zero-delay events run in scheduling order."""
        order = []

        def chain(tag, depth):
            for step in range(depth):
                yield sim.timeout(0.0)
                order.append((tag, step))

        sim.process(chain("a", 3))
        sim.process(chain("b", 3))
        sim.run()
        assert order == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)
        ]
        assert sim.now == 0.0

    def test_process_started_via_heap_not_inline(self, sim):
        """Creating a process does not run its body synchronously."""
        log = []

        def worker():
            log.append("ran")
            yield sim.timeout(0.0)

        sim.process(worker())
        assert log == []  # not started yet
        sim.run()
        assert log == ["ran"]


class TestInterruptEdgeCases:
    def test_interrupt_resumes_with_new_wait(self, sim):
        """A process can catch the interrupt and keep working."""

        def worker():
            try:
                yield sim.timeout(100.0)
            except Interrupted:
                yield sim.timeout(5.0)  # plan B
                return "recovered"

        process = sim.process(worker())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt()

        sim.process(interrupter())
        assert sim.run(until=process.completion) == "recovered"
        assert sim.now == pytest.approx(6.0)

    def test_interrupted_event_does_not_resume_twice(self, sim):
        """The originally awaited event firing later must not re-enter."""
        resumed = []

        def worker():
            try:
                yield sim.timeout(2.0)
                resumed.append("timeout")
            except Interrupted:
                resumed.append("interrupt")
                yield sim.timeout(10.0)
            return resumed

        process = sim.process(worker())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt()

        sim.process(interrupter())
        sim.run()
        assert resumed == ["interrupt"]


class TestRunSemantics:
    def test_step_returns_false_when_idle(self, sim):
        assert sim.step() is False

    def test_run_until_past_deadline_preserves_pending_events(self, sim):
        timeout = sim.timeout(10.0)
        sim.run(until=5.0)
        assert not timeout.triggered
        sim.run()  # drain the rest
        assert timeout.triggered
        assert sim.now == pytest.approx(10.0)

    @pytest.mark.parametrize("until", [5.0, float("nan"), -1.0])
    def test_run_until_before_now_or_nan_is_refused(self, sim, until):
        """The clock never runs backwards, nor to NaN."""
        timeout = sim.timeout(20.0)
        sim.run(until=10.0)
        with pytest.raises(SimulationError, match="clock is already at 10.0"):
            sim.run(until=until)
        assert sim.now == 10.0
        sim.run()  # nothing was lost
        assert timeout.triggered
        assert sim.now == 20.0

    def test_run_until_now_is_a_no_op(self, sim):
        sim.timeout(3.0)
        sim.run(until=2.0)
        sim.run(until=2.0)
        assert sim.now == 2.0

    def test_failed_process_does_not_deadlock_others(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise RuntimeError("one bad process")

        def healthy():
            yield sim.timeout(2.0)
            return "fine"

        sim.process(failing())
        healthy_process = sim.process(healthy())
        # Draining the sim does not raise: the failure lives on the
        # failed process's completion event.
        sim.run(until=healthy_process.completion)
        assert healthy_process.result == "fine"

    def test_waiting_on_failed_completion_raises(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        process = sim.process(failing())

        def waiter():
            try:
                yield process.completion
            except ValueError as exc:
                return f"saw {exc}"

        waiter_process = sim.process(waiter())
        assert sim.run(until=waiter_process.completion) == "saw boom"
