"""A failed process is freed by reference count, not by the cycle collector.

The kernel catches a process body's exception in a frame that holds the
``Process``, then stores the exception on that process's completion
event.  If that frame stayed in the traceback, every failure would close
the loop exception → traceback → frame → process → completion →
exception, and a run with many expected failures (poll misses, retried
500s, cancellations) would hand all of them to the cycle collector.  So
the kernel drops its own frame from the traceback; the generator frames
— the simulated call stack — stay.
"""

import gc
import traceback

import pytest

from repro.errors import Interrupted
from repro.sim import Simulator

KERNEL_FILE = "repro/sim/process.py"


@pytest.fixture
def collector_off():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def raiser(sim, how, handles):
    if how == "raise":
        yield sim.timeout(1.0)
        raise ValueError("boom")
    yield handles["gate"]  # failed by hand, or interrupted while parked here


def relay(sim, how, handles):
    handles["raiser"] = sim.process(raiser(sim, how, handles))
    yield handles["raiser"].completion


def catcher(sim, how, handles, seen):
    try:
        yield sim.process(relay(sim, how, handles)).completion
    except (ValueError, Interrupted) as exc:
        seen.append((type(exc), traceback.extract_tb(exc.__traceback__)))
    yield sim.timeout(1.0)  # outlive the handler


def trigger(sim, how, handles):
    yield sim.timeout(0.5)
    inner, gate = handles.pop("raiser"), handles.pop("gate")
    yield sim.timeout(0.5)
    if how == "interrupt":
        inner.interrupt("cancelled")
    elif how == "fail":
        gate.fail(ValueError("boom"))


def start_chain(sim, how, seen):
    """raiser ← relay (lets it propagate) ← catcher (records what it saw).

    The three frames end up in the exception's traceback, so none of
    them may name the failed process or event in a local — that would be
    a cycle of the test's making (frame → process → completion →
    exception → traceback → frame).  They yield without naming, the way
    request-path code yields ``store.get(...)``, and the handles the
    trigger needs travel in a dict it empties before anything fails.
    """
    handles = {"gate": sim.event("gate")}
    sim.process(catcher(sim, how, handles, seen))
    sim.process(trigger(sim, how, handles))


@pytest.mark.parametrize("how", ["raise", "interrupt", "fail"])
class TestFailureLeavesNoCycle:
    def test_nothing_for_the_collector_once_references_drop(self, collector_off, how):
        # The simulator stays referenced: it owns a cycle of its own
        # (its tracer's clock closure) that is not what is counted here.
        sim = Simulator(seed=1)
        seen = []
        start_chain(sim, how, seen)
        sim.run()
        assert len(seen) == 1
        seen.clear()
        assert gc.collect() == 0

    def test_many_failures_leave_nothing_either(self, collector_off, how):
        sim = Simulator(seed=1)
        seen = []
        for _ in range(50):
            start_chain(sim, how, seen)
        sim.run()
        assert len(seen) == 50
        seen.clear()
        assert gc.collect() == 0

    def test_traceback_is_the_simulated_stack(self, how):
        sim = Simulator(seed=1)
        seen = []
        start_chain(sim, how, seen)
        sim.run()
        [(kind, frames)] = seen
        assert kind is (Interrupted if how == "interrupt" else ValueError)
        # Outermost first: where it was caught, re-raised, raised.
        assert [frame.name for frame in frames] == ["catcher", "relay", "raiser"]
        assert not [frame for frame in frames if frame.filename.endswith(KERNEL_FILE)]


def test_run_until_a_failed_process_still_raises_with_its_stack():
    sim = Simulator(seed=1)

    def body():
        yield sim.timeout(1.0)
        raise KeyError("gone")

    with pytest.raises(KeyError) as error:
        sim.run_process(body())
    names = [frame.name for frame in traceback.extract_tb(error.value.__traceback__)]
    assert names[-1] == "body"
