"""Core event primitives for the discrete-event simulation kernel.

A :class:`SimEvent` is a one-shot occurrence in simulated time.  Processes
(see :mod:`repro.sim.process`) wait on events by yielding them; the kernel
resumes the process when the event triggers, delivering the event's value
(or raising its exception inside the process).

Events are intentionally tiny: the kernel is on the hot path of every
simulated storage request, so we keep allocation and indirection low.

Simulator hot path
------------------
A wide object-store sort creates several hundred thousand events whose
names nobody reads unless something goes wrong, so:

* Names are *lazy*.  An event (or process) is named either by a ``str``
  or by a ``(format, *args)`` tuple that :func:`render_name` turns into
  ``format.format(*args)`` whenever ``.name`` is read — by ``repr``, an
  error message or a test.  Args may be lazy names
  themselves.  Pass the tuple, never an f-string, from code that runs
  per request.
* Inside ``repro.sim`` the dispatch path reads ``_value`` / ``_exc`` /
  ``_callbacks`` directly: an event is pending iff ``_value is _PENDING
  and _exc is None``, and ``_callbacks is None`` once it has dispatched.
  Until then ``_callbacks`` is ``_NO_WAITERS``, the one waiter's
  callback itself (what nearly every event ever has: no list is built
  for it), or a list of two or more in registration order.
  The public properties say the same thing for everyone else.
* ``Simulator.step`` fires exactly one heap entry per call and is called
  once per event — the ledger benchmark counts ``sim.events`` that way.
  It delivers ``event._scheduled_value``: ``None`` on the class, the
  ``Timeout``'s own value on a timeout.
* The kernel's frame is not part of a failure's traceback.
  ``Process._on_event`` (and ``interrupt``) catch a body's exception in
  a frame that holds the ``Process`` and store it on that process's
  completion event; left in the traceback, that frame closes the loop
  exception → traceback → frame → process → completion → exception, and
  every failed request — each boundary it crosses — becomes some forty
  objects only the cycle collector can free.  So the kernel drops its
  own head frame (``tb_next``) before failing the completion: a failed
  process is freed by reference count the moment its waiter lets go,
  and the traceback that remains is the generator frames, i.e. the
  simulated call stack.  (A waiter that keeps the failed process or
  event in a local of a frame the exception passed through still makes
  a cycle of its own; request-path code yields without naming.)
* An expected miss on a hot path is a value, not an exception.  A
  poller that looks for a key thousands of times before it appears
  asks with ``get(..., missing_ok=True)`` and tests for ``None``; the
  store answers at the point where it would have raised — same rate
  token, same latency draw, nothing billed or counted — without
  building an exception, a traceback and two failed processes per
  look.  Everything unexpected still raises.
* A storage request costs only its model events: the rate token, the
  latency timer and the transfer.  A request stays a generator until
  the outermost caller needs an event: a retry loop runs each attempt's
  op body inline (``return (yield from body(...))``), and a fan-in
  yields ``all_of`` over the requests themselves.  Where the caller
  needs an event, ``repro.sim.request`` runs the body's first step at
  issue and adopts the rest into a process (``Process.adopt``) with no
  kick-off; where one caller waits, ``yield from repro.sim.inline(sim,
  body)`` runs it in the caller's own process, and an interrupt of the
  caller detaches the body into a process of its own, so an abandoned
  request still finishes, bills and counts.  Kick-offs at one instant
  fired FIFO, and nothing touched a store or its token bucket between
  a request's issue and its kick-off (0 times across the ledger's four
  workloads at seed 2021), so starting the body at issue keeps every
  RNG draw and rate token in order: no simulated outcome moves, only
  the event count.  ``sim.process`` keeps its kick-off: a general
  process body must not run inside its creator's step.
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()

#: ``_callbacks`` of a pending event nobody waits on yet (see the module docstring).
_NO_WAITERS = ()

#: A name, or a ``(format, *args)`` recipe for one (see the module docstring).
LazyName = t.Union[str, tuple]


def render_name(name: LazyName) -> str:
    """The string a lazy name stands for."""
    if type(name) is tuple:
        template, *args = name
        return template.format(*map(render_name, args))
    return name


class SimEvent:
    """A one-shot event that callbacks and processes can wait on.

    An event starts *pending*.  Exactly once, it either ``succeed(value)``s
    or ``fail(exc)``s; afterwards it is *triggered* and its callbacks run
    in registration order.  Late callbacks (added after triggering) run
    immediately, which makes ``yield event`` race-free for processes.
    """

    __slots__ = ("sim", "_name", "_value", "_exc", "_callbacks")

    #: What ``Simulator.step`` delivers when this event comes due on the heap.
    _scheduled_value: object = None

    def __init__(self, sim: "Simulator", name: LazyName = ""):
        self.sim = sim
        self._name = name
        self._value: object = _PENDING
        self._exc: BaseException | None = None
        #: ``_NO_WAITERS``, the one waiter's callback, a list of two or
        #: more in registration order, or ``None`` once dispatched.
        self._callbacks: object = _NO_WAITERS

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Debug name (rendered when read; see :func:`render_name`)."""
        return render_name(self._name)

    @property
    def triggered(self) -> bool:
        """Whether the event has already succeeded or failed."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return self._value is not _PENDING and self._exc is None

    @property
    def value(self) -> object:
        """The success value.  Raises if pending or failed."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"event {self.name!r} has not triggered yet")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or ``None``."""
        return self._exc

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: object = None) -> "SimEvent":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if type(callbacks) is list:
            for callback in callbacks:
                callback(self)
        elif callbacks is not _NO_WAITERS:
            callbacks(self)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Trigger the event as failed with ``exc``.

        Waiting processes will see ``exc`` raised at their ``yield``.
        """
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self.name!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError("SimEvent.fail() requires an exception instance")
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, None
        if type(callbacks) is list:
            for callback in callbacks:
                callback(self)
        elif callbacks is not _NO_WAITERS:
            callbacks(self)
        return self

    # ------------------------------------------------------------------
    # waiting
    # ------------------------------------------------------------------
    def add_callback(self, callback: t.Callable[["SimEvent"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered, the callback runs immediately;
        this keeps waiting race-free regardless of trigger ordering.
        """
        callbacks = self._callbacks
        if callbacks is None:
            callback(self)
        elif callbacks is _NO_WAITERS:
            self._callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def remove_callback(self, callback: t.Callable[["SimEvent"], None]) -> None:
        """Forget ``callback`` if it is still waiting (interrupt's detach)."""
        callbacks = self._callbacks
        if type(callbacks) is list:
            if callback in callbacks:
                callbacks.remove(callback)
        elif callbacks == callback:
            self._callbacks = _NO_WAITERS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else f"failed({self._exc!r})"
        return f"<SimEvent {self.name!r} {state}>"


class Timeout(SimEvent):
    """An event that triggers after a fixed simulated delay.

    Created through :meth:`repro.sim.kernel.Simulator.timeout`; scheduling
    — and with it the one check that the delay is a non-negative number —
    happens there so this class stays a plain value container.
    """

    __slots__ = ("delay", "_scheduled_value")

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        # SimEvent.__init__ spelled out: one call less per timeout.
        self.sim = sim
        self._name = ("timeout({:g})", delay)
        self._value = _PENDING
        self._exc = None
        self._callbacks = _NO_WAITERS
        self.delay = delay
        # Delivered by the kernel when the timeout comes due.
        self._scheduled_value = value


class ConditionError(SimulationError):
    """A condition event (``AllOf``/``AnyOf``) was built incorrectly."""


class AllOf(SimEvent):
    """Triggers when *all* child events have triggered.

    Succeeds with the list of child values in construction order.  If any
    child fails, the condition fails immediately with that exception.
    """

    __slots__ = ("events", "_remaining", "_done")

    def __init__(self, sim: "Simulator", events: t.Sequence[SimEvent]):
        super().__init__(sim, ("all_of({})", len(events)))
        self.events = list(events)
        for event in self.events:
            if not isinstance(event, SimEvent):
                raise ConditionError(f"AllOf child is not a SimEvent: {event!r}")
        self._remaining = len(self.events)
        self._done = False
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: SimEvent) -> None:
        if self._done:
            return
        if not event.ok:
            self._done = True
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._done = True
            self.succeed([child.value for child in self.events])


class AnyOf(SimEvent):
    """Triggers when the *first* child event triggers.

    Succeeds with ``(index, value)`` of the first triggering child, or
    fails with its exception.  Remaining children keep running; callers
    that need cancellation should interrupt the losing processes.
    """

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: t.Sequence[SimEvent]):
        super().__init__(sim, ("any_of({})", len(events)))
        self.events = list(events)
        if not self.events:
            raise ConditionError("AnyOf requires at least one event")
        self._done = False
        for index, event in enumerate(self.events):
            event.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int) -> t.Callable[[SimEvent], None]:
        def on_child(event: SimEvent) -> None:
            if self._done:
                return
            self._done = True
            if event.ok:
                self.succeed((index, event.value))
            else:
                self.fail(event.exception)  # type: ignore[arg-type]

        return on_child
