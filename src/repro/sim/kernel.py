"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event heap.  Everything
else in the library — object storage, FaaS platform, VMs, executors,
pipelines — is built from processes scheduled on one ``Simulator``.

Design notes
------------

* Virtual time is a ``float`` in seconds.  No component ever reads the
  wall clock, which makes runs fully deterministic for a given seed.
* The heap stores ``(time, seq, event)`` tuples; ``seq`` is a global
  monotonically increasing tie-breaker so same-time events trigger in
  scheduling order, deterministically.
* Processes are plain Python generators driven by :class:`~repro.sim.process.Process`.
  They interact with the kernel exclusively by yielding
  :class:`~repro.sim.events.SimEvent` objects.
"""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import DeadlockError, SimulationError
from repro.obs.trace import Tracer, trace_enabled_from_env
from repro.sim.events import (
    _NO_WAITERS,
    _PENDING,
    AllOf,
    AnyOf,
    LazyName,
    SimEvent,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

#: Value used for ``run(until=...)`` meaning "run until no events remain".
FOREVER = float("inf")


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams (see :class:`RngRegistry`).
    spans:
        When true, :attr:`tracer` records the run's span tree (see
        :mod:`repro.obs.trace`): attempts, waves, sorts, and one
        lifetime span per billed VM and cache cluster.  Defaults to the
        ``REPRO_TRACE`` environment variable so any existing run can be
        traced without code changes.  It is the simulator's only trace:
        span recording is pure interpreter-side bookkeeping and never
        perturbs simulation outcomes.
    """

    def __init__(self, seed: int = 0, spans: bool | None = None):
        self._now = 0.0
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = 0
        self._active_processes = 0
        #: The process whose generator is running right now (``None``
        #: between steps); its ``owner`` tags the cost lines it charges.
        self.active_process: Process | None = None
        self.rng = RngRegistry(seed)
        if spans is None:
            spans = trace_enabled_from_env()
        self.tracer = Tracer(clock=lambda: self._now, enabled=spans)
        self.seed = seed

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # event construction
    # ------------------------------------------------------------------
    def event(self, name: LazyName = "") -> SimEvent:
        """Create a fresh pending event owned by this simulator."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        # ``_schedule`` spelled out: the one heap push per request timer.
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule {delay!r} seconds from now: a delay must be "
                "a non-negative number"
            )
        event = Timeout(self, delay, value)
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        return event

    def all_of(self, events: t.Sequence[SimEvent]) -> AllOf:
        """Event that triggers when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: t.Sequence[SimEvent]) -> AnyOf:
        """Event that triggers when the first event in ``events`` does."""
        return AnyOf(self, events)

    def _schedule(self, delay: float, event: SimEvent) -> None:
        """Arrange for ``event`` to succeed ``delay`` seconds from now.

        Everything that reaches the heap comes through here or through
        :meth:`timeout`, its inlined copy; both validate the delay the
        same way.  ``not delay >= 0`` rather than ``delay < 0``: a NaN
        compares false both ways and would otherwise be pushed and
        silently break the heap's ordering.
        """
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule {delay!r} seconds from now: a delay must be "
                "a non-negative number"
            )
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def process(self, generator: t.Generator, name: LazyName = "") -> Process:
        """Start a new process driving ``generator``.

        The generator may yield :class:`SimEvent` objects (including other
        processes' completion events).  The value sent back into the
        generator is the event's value; failed events raise inside it.
        """
        return Process(self, generator, name)

    @property
    def active_process_count(self) -> int:
        """Number of started-but-not-finished processes."""
        return self._active_processes

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Trigger the next scheduled event.  Returns False when idle.

        Called exactly once per event by every run loop (see the "hot
        path" note in :mod:`repro.sim.events`).
        """
        heap = self._heap
        if not heap:
            return False
        time, _seq, event = heapq.heappop(heap)
        if time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event heap went backwards in time")
        self._now = time
        # Skip an entry somebody triggered by hand before it came due;
        # otherwise ``event.succeed`` spelled out (the event is pending).
        if event._value is _PENDING and event._exc is None:
            event._value = event._scheduled_value
            callbacks, event._callbacks = event._callbacks, None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(event)
            elif callbacks is not _NO_WAITERS:
                callbacks(event)
        return True

    def run(self, until: float | SimEvent = FOREVER) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``FOREVER`` (default) — run until the event heap drains;
        * a ``float`` — run until virtual time reaches that instant, which
          may not lie before :attr:`now` (nor be NaN);
        * a :class:`SimEvent` — run until that event triggers, returning
          its value (or raising its exception).
        """
        if isinstance(until, SimEvent):
            return self._run_until_event(until)
        deadline = float(until)
        # ``not >=`` so that NaN is refused too: the clock never runs
        # backwards, and never leaves the numbers.
        if not deadline >= self._now:
            raise SimulationError(
                f"cannot run until {until!r}: the clock is already at {self._now!r}"
            )
        heap, step = self._heap, self.step
        while heap:
            if heap[0][0] > deadline:
                self._now = deadline
                return None
            step()
        if self._active_processes > 0:
            raise DeadlockError(
                f"simulation ran out of events with {self._active_processes} "
                "process(es) still waiting — deadlock"
            )
        if deadline != FOREVER:
            self._now = deadline
        return None

    def _run_until_event(self, event: SimEvent) -> object:
        step = self.step
        while event._value is _PENDING and event._exc is None:
            if not step():
                raise DeadlockError(
                    f"simulation ran out of events before {event.name!r} triggered"
                )
        return event.value

    def run_process(self, generator: t.Generator, name: str = "") -> object:
        """Convenience: start ``generator`` as a process and run to its end."""
        process = self.process(generator, name=name)
        return self.run(until=process.completion)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.6f}s queued={len(self._heap)} "
            f"active={self._active_processes}>"
        )
