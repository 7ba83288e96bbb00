"""Requests without a kick-off: ``Process.adopt``, ``request`` and ``inline``.

``sim.process`` starts a body one heap hop later.  A storage request
does not need that hop: ``request`` runs the body's first step at issue
and adopts the rest, ``inline`` runs the body in the caller's process
and adopts it only when the caller is interrupted.  Every process
inherits the ``owner`` (the cost lines' tags) of the one that made it.
"""

import traceback

import pytest

from repro.cloud.billing import CostMeter
from repro.errors import Interrupted, SimulationError
from repro.sim import Process, Simulator, inline, request

KERNEL_FILE = "repro/sim/process.py"


@pytest.fixture
def sim():
    return Simulator(seed=5)


def body(sim, log, delay=1.0, value="done"):
    log.append(("first", sim.now))
    yield sim.timeout(delay)
    log.append(("last", sim.now))
    return value


class TestAdopt:
    def test_resumes_the_generator_when_its_event_fires(self, sim):
        gate = sim.event("gate")

        def parked():
            value = yield gate
            return value * 2

        generator = parked()
        assert generator.send(None) is gate
        process = Process.adopt(sim, generator, gate, "adopted")
        assert process.interruptible and sim.active_process_count == 1
        assert not sim._heap  # no kick-off
        gate.succeed(21)
        assert process.result == 42
        assert sim.active_process_count == 0

    def test_an_event_already_triggered_resumes_at_once(self, sim):
        done = sim.event().succeed("x")

        def parked():
            return (yield done)

        generator = parked()
        generator.send(None)
        assert Process.adopt(sim, generator, done).result == "x"

    def test_a_non_event_fails_the_completion(self, sim):
        def parked():
            yield 42

        generator = parked()
        process = Process.adopt(sim, generator, generator.send(None), "bad")
        with pytest.raises(SimulationError, match="yielded 42"):
            process.result

    def test_an_adopted_process_can_be_interrupted(self, sim):
        log = []
        generator = body(sim, log, delay=5.0)
        process = Process.adopt(sim, generator, generator.send(None))
        process.interrupt("stop")
        assert isinstance(process.completion.exception, Interrupted)


class TestRequest:
    def test_the_first_step_runs_at_issue(self, sim):
        log = []
        event = request(sim, body(sim, log), "req")
        assert log == [("first", 0.0)]
        assert sim.run(until=event) == "done"
        assert log == [("first", 0.0), ("last", 1.0)]

    def test_no_kickoff_reaches_the_heap(self, sim):
        request(sim, body(sim, []), "req")
        [(when, _seq, timer)] = sim._heap
        assert when == 1.0 and timer.delay == 1.0

    def test_a_body_that_returns_at_once_is_a_triggered_event(self, sim):
        def instant():
            return "now"
            yield  # pragma: no cover - generator marker

        event = request(sim, instant(), "req")
        assert event.triggered and event.value == "now"
        assert sim.active_process_count == 0

    def test_a_first_step_failure_is_a_failed_event(self, sim):
        def refused():
            raise ValueError("no")
            yield  # pragma: no cover - generator marker

        event = request(sim, refused(), "req")
        assert isinstance(event.exception, ValueError)

        def waiter():
            try:
                yield event
            except ValueError as exc:
                return traceback.extract_tb(exc.__traceback__)

        frames = sim.run_process(waiter())
        assert [frame.name for frame in frames][-1] == "refused"
        assert not any(frame.filename.endswith(KERNEL_FILE) for frame in frames)


class TestInline:
    def test_the_body_runs_in_the_caller(self, sim):
        log = []

        def caller():
            value = yield from inline(sim, body(sim, log))
            log.append(("caller", sim.now))
            return value

        process = sim.process(caller())
        assert sim.run(until=process.completion) == "done"
        assert log == [("first", 0.0), ("last", 1.0), ("caller", 1.0)]

    def test_event_failures_reach_the_body(self, sim):
        gate = sim.event("gate")

        def guarded():
            try:
                yield gate
            except KeyError:
                return "handled"

        def caller():
            return (yield from inline(sim, guarded()))

        process = sim.process(caller())
        sim.step()  # the caller's kick-off: it parks on the gate
        gate.fail(KeyError("k"))
        assert process.result == "handled"

    def test_an_event_failing_with_interrupted_is_the_bodys(self, sim):
        """An ``Interrupted`` the event delivers is the body's to see; only
        one thrown at the caller's wait detaches the body."""
        victim = sim.process(body(sim, [], delay=9.0))

        def guarded():
            try:
                yield victim.completion
            except Interrupted:
                return "saw it"

        def caller():
            return (yield from inline(sim, guarded()))

        process = sim.process(caller())
        sim.run(until=1.0)
        victim.interrupt("gone")
        sim.run()
        assert process.result == "saw it"
        assert sim.active_process_count == 0

    def test_an_interrupted_caller_leaves_the_body_running(self, sim):
        log = []

        def caller():
            try:
                yield from inline(sim, body(sim, log, delay=4.0))
            except Interrupted as exc:
                log.append(("caller interrupted", sim.now, exc.cause))
            yield sim.timeout(10.0)

        process = sim.process(caller())
        sim.run(until=1.0)
        assert sim.active_process_count == 1
        process.interrupt("killed")
        assert sim.active_process_count == 2  # the caller and the adopted body
        sim.run()
        assert log == [
            ("first", 0.0),
            ("caller interrupted", 1.0, "killed"),
            ("last", 4.0),
        ]
        assert sim.now == 11.0
        assert sim.active_process_count == 0

    def test_closing_the_caller_does_not_adopt_the_body(self, sim):
        log = []

        def caller():
            yield from inline(sim, body(sim, log, delay=4.0))

        generator = caller()
        generator.send(None)
        generator.close()
        assert sim.active_process_count == 0


class TestOwner:
    """A process's ``owner`` tags the cost lines it charges and is
    inherited by whatever it starts."""

    A = (("tenant", "a"),)
    B = (("tenant", "b"),)

    @pytest.fixture
    def meter(self, sim):
        return CostMeter(sim)

    @staticmethod
    def charging(sim, meter, log, delay=1.0):
        meter.charge(sim.now, "objectstore", "first", 1.0, 0.0)
        yield sim.timeout(delay)
        meter.charge(sim.now, "objectstore", "last", 1.0, 0.0)
        log.append(sim.active_process.owner)

    @staticmethod
    def owned(sim, owner, work):
        sim.active_process.owner = owner
        yield from work()

    def owners(self, meter):
        return [(line.item, line.tags) for line in meter.lines]

    def test_a_charge_outside_any_process_is_unowned(self, sim, meter):
        meter.charge(sim.now, "vm", "instance_second", 1.0, 0.0)
        sim.run_process(self.owned(sim, self.A, lambda: body(sim, [])))
        meter.charge(sim.now, "vm", "instance_second", 1.0, 0.0)
        assert [line.tags for line in meter.lines] == [(), ()]
        assert sim.active_process is None

    def test_a_process_inherits_its_creators_owner(self, sim, meter):
        children = []

        def spawn():
            children.append(sim.process(self.charging(sim, meter, [])))
            yield children[0].completion

        top = sim.process(body(sim, []))
        assert top.owner == ()
        sim.run_process(self.owned(sim, self.A, spawn))
        assert children[0].owner == self.A
        assert self.owners(meter) == [("first", self.A), ("last", self.A)]

    def test_a_request_is_owned_by_its_caller(self, sim, meter):
        log = []

        def issue():
            yield request(sim, self.charging(sim, meter, log), "req")

        sim.run_process(self.owned(sim, self.A, issue))
        assert self.owners(meter) == [("first", self.A), ("last", self.A)]
        assert log == [self.A]

    def test_an_inline_body_is_owned_by_its_caller(self, sim, meter):
        def caller():
            yield from inline(sim, self.charging(sim, meter, []))

        sim.run_process(self.owned(sim, self.A, caller))
        assert self.owners(meter) == [("first", self.A), ("last", self.A)]

    def test_an_adopted_inline_body_keeps_its_callers_owner(self, sim, meter):
        """The body adopted on an interrupt is owned by the interrupted
        caller, not by the process that interrupted it."""
        log = []

        def caller():
            try:
                yield from inline(sim, self.charging(sim, meter, log, delay=4.0))
            except Interrupted:
                pass

        victim = sim.process(self.owned(sim, self.A, caller))

        def interrupter():
            yield sim.timeout(1.0)
            victim.interrupt("stop")

        sim.process(self.owned(sim, self.B, interrupter))
        sim.run()
        assert self.owners(meter) == [("first", self.A), ("last", self.A)]
        assert log == [self.A]

    def test_a_nested_synchronous_resume_restores_the_outer_owner(self, sim, meter):
        gate = sim.event("gate")

        def waiter():
            yield gate
            meter.charge(sim.now, "faas", "waiter", 1.0, 0.0)

        def opener():
            yield sim.timeout(1.0)
            gate.succeed()  # resumes the waiter inside this step
            meter.charge(sim.now, "faas", "opener", 1.0, 0.0)

        sim.process(self.owned(sim, self.B, waiter))
        sim.process(self.owned(sim, self.A, opener))
        sim.run()
        assert self.owners(meter) == [("waiter", self.B), ("opener", self.A)]
        assert sim.active_process is None
