"""Lazy debug names render exactly the strings the eager ones did.

Events and processes on the per-request path keep their name as a
``(format, *args)`` recipe and render it when read; everything a
person ever sees — ``.name``, ``repr`` and the kernel's error messages —
must still be the string an f-string used to build up front.
"""

import math

import pytest

from repro.cloud import Cloud
from repro.cloud.storageview import BoundStorage
from repro.errors import DeadlockError, SimulationError
from repro.sim import (
    FairShareLink,
    KeyedWatch,
    Resource,
    SimEvent,
    Simulator,
    Store,
    TokenBucket,
    render_name,
)


@pytest.fixture
def sim():
    return Simulator(seed=7)


def waits(event):
    yield event


class TestRendering:
    def test_plain_string_is_itself(self):
        assert render_name("cos.ops") == "cos.ops"
        assert render_name("") == ""

    def test_recipe_is_formatted(self):
        assert render_name(("{}.consume({:g})", "cos.ops", 1.0)) == "cos.ops.consume(1)"

    def test_recipe_args_may_be_recipes(self):
        name = ("{}.completion", ("{}.{}", "cos", ("get_range:{}", "runs/part-7")))
        assert render_name(name) == "cos.get_range:runs/part-7.completion"

    def test_event_renders_its_recipe(self, sim):
        assert SimEvent(sim, ("{}:{}", "watch", "k")).name == "watch:k"

    def test_default_names(self, sim):
        assert sim.event().name == ""
        assert sim.event("e").name == "e"
        assert sim.process(waits(sim.timeout(1.0))).name == "waits"
        assert sim.process(waits(sim.timeout(1.0)), name="job").name == "job"


class TestEventNames:
    def test_timeout(self, sim):
        assert sim.timeout(0.5).name == "timeout(0.5)"
        assert sim.timeout(2.0).name == "timeout(2)"
        assert sim.timeout(1e-9).name == "timeout(1e-09)"

    def test_conditions(self, sim):
        children = [sim.timeout(1.0), sim.timeout(2.0)]
        assert sim.all_of(children).name == "all_of(2)"
        assert sim.any_of(children).name == "any_of(2)"

    def test_link_transfer(self, sim):
        link = FairShareLink(sim, capacity=1e6, name="cos")
        assert link.transfer(1e6).name == "cos.transfer(1e+06B)"
        assert link.transfer(0).name == "cos.transfer(0B)"
        assert link.transfer(1536.0).name == "cos.transfer(1536B)"

    def test_resources(self, sim):
        assert TokenBucket(sim, rate=10.0, name="cos.ops").consume(1.0).name == (
            "cos.ops.consume(1)"
        )
        assert TokenBucket(sim, rate=10.0, name="cos.ops").consume(2.5).name == (
            "cos.ops.consume(2.5)"
        )
        assert Resource(sim, 1, name="slots").acquire().name == "slots.acquire"
        assert Store(sim, name="queue").get().name == "queue.get"
        assert KeyedWatch(sim, name="manifest").watch("part-3").name == "manifest:part-3"

    def test_process_events(self, sim):
        process = sim.process(waits(sim.timeout(1.0)), name="worker")
        assert process.completion.name == "worker.completion"
        assert process._waiting_on.name == "worker.start"

    def test_storage_request_processes(self):
        cloud = Cloud(Simulator(seed=1))
        cloud.store.ensure_bucket("b")
        assert cloud.store.get("b", "k").name == "cos.get:k.completion"
        assert cloud.store.get_range("b", "runs/0", 0, 4).name == (
            "cos.get_range:runs/0.completion"
        )
        view = BoundStorage(cloud.store, math.inf, name="fn-7")
        assert view.get_range("b", "runs/0", 0, 4).name == (
            "fn-7.get_range:runs/0.completion"
        )
        assert view.put("b", "k", b"x").name == "fn-7.put:k.completion"


class TestReprs:
    def test_event_repr(self, sim):
        timeout = sim.timeout(0.5)
        assert repr(timeout) == "<SimEvent 'timeout(0.5)' pending>"
        sim.run()
        assert repr(timeout) == "<SimEvent 'timeout(0.5)' ok>"
        failed = sim.event("bad")
        failed.fail(ValueError("boom"))
        assert repr(failed) == "<SimEvent 'bad' failed(ValueError('boom'))>"

    def test_process_repr(self, sim):
        process = sim.process(waits(sim.timeout(1.0)), ("{}.{}", "cos", ("get:{}", "k")))
        assert repr(process) == "<Process 'cos.get:k' alive>"
        sim.run()
        assert repr(process) == "<Process 'cos.get:k' finished>"


class TestErrorMessages:
    def test_triggered_twice(self, sim):
        event = TokenBucket(sim, rate=10.0, name="cos.ops").consume(1.0)
        with pytest.raises(SimulationError) as error:
            event.succeed()
        assert str(error.value) == "event 'cos.ops.consume(1)' triggered twice"
        with pytest.raises(SimulationError) as error:
            event.fail(ValueError("late"))
        assert str(error.value) == "event 'cos.ops.consume(1)' triggered twice"

    def test_value_of_a_pending_event(self, sim):
        with pytest.raises(SimulationError) as error:
            sim.timeout(0.5).value
        assert str(error.value) == "event 'timeout(0.5)' has not triggered yet"

    def test_ran_out_of_events(self, sim):
        process = sim.process(waits(sim.event("never")), name="stuck")
        with pytest.raises(DeadlockError) as error:
            sim.run(until=process.completion)
        assert str(error.value) == (
            "simulation ran out of events before 'stuck.completion' triggered"
        )

    def test_cannot_interrupt_a_running_process(self, sim):
        errors = []

        def body():
            try:
                process.interrupt()
            except SimulationError as exc:
                errors.append(str(exc))
            yield sim.timeout(1.0)

        process = sim.process(body(), ("{}.{}", "fn-7", ("put:{}", "k")))
        sim.run()
        assert errors == ["cannot interrupt process 'fn-7.put:k': it is not waiting"]

    def test_yielding_a_non_event(self, sim):
        def body():
            yield 42

        process = sim.process(body(), ("{}#{}", "task", 3))
        sim.run()
        assert "process 'task#3' yielded 42" in str(process.completion.exception)


class TestInterruptDetaches:
    def test_interrupt_removes_the_cached_resume_callback(self, sim):
        """The waited event must not resume the process a second time."""
        gate = sim.event("gate")
        resumed = []

        def body():
            try:
                yield gate
            except Exception:  # noqa: BLE001 - Interrupted
                resumed.append("interrupted")
            yield sim.timeout(5.0)
            resumed.append("slept")

        process = sim.process(body())
        assert sim.step()  # the kickoff: the process now waits on the gate
        process.interrupt()
        assert resumed == ["interrupted"]
        gate.succeed()  # fires with the process parked on its timeout
        assert resumed == ["interrupted"]
        sim.run()
        assert resumed == ["interrupted", "slept"]
        assert sim.now == 5.0

    @pytest.mark.parametrize("interrupted", ["first", "second", "third"])
    def test_the_other_waiters_on_that_event_are_still_resumed(self, sim, interrupted):
        gate = sim.event("gate")
        log = []

        def body(tag):
            try:
                value = yield gate
            except Exception:  # noqa: BLE001 - Interrupted
                log.append((tag, "interrupted"))
                return
            log.append((tag, value))

        waiters = {tag: sim.process(body(tag)) for tag in ("first", "second", "third")}
        for _ in waiters:
            assert sim.step()  # each kickoff: all three now wait on the gate
        waiters[interrupted].interrupt()
        gate.succeed("open")
        sim.run()
        others = [tag for tag in waiters if tag != interrupted]
        # Registration order survives the detach.
        assert log == [(interrupted, "interrupted")] + [(tag, "open") for tag in others]

    def test_a_finished_process_drops_its_resume_callback(self, sim):
        process = sim.process(waits(sim.timeout(1.0)))
        sim.run()
        assert not process.alive
        assert process._resume is None  # no Process <-> bound-method cycle left
