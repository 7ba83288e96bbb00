"""Generator-driven simulation processes.

A *process* is a Python generator that yields
:class:`~repro.sim.events.SimEvent` objects.  The :class:`Process` wrapper
drives the generator: whenever the yielded event triggers, the event's
value is sent back into the generator (or its exception is thrown in).

Example
-------
::

    def worker(sim, storage):
        data = yield storage.get("bucket", "key")      # wait for I/O
        yield sim.timeout(0.5)                          # simulated compute
        yield storage.put("bucket", "out", data)
        return len(data)                                # process result

    process = sim.process(worker(sim, storage))
    sim.run(until=process.completion)
    print(process.result)

Processes compose: ``yield other_process.completion`` waits for another
process; ``yield from subroutine(...)`` inlines a sub-generator with no
kernel involvement.

``sim.process`` starts a body at a heap kick-off.  A storage request
needs none (see "Simulator hot path" in :mod:`repro.sim.events`):
:func:`request` runs the body's first step at issue and hands the rest
to a process built by :meth:`Process.adopt`, and :func:`inline` runs
the body in the caller's own process.

Every process has an ``owner``, the sorted tag tuple its cost lines
carry (:class:`~repro.cloud.billing.CostMeter`).  It starts as the
owner of the process running when it was made — by ``sim.process``,
:func:`request` or :func:`inline`'s adopt — and a process may change
its own between yields.
"""

from __future__ import annotations

import typing as t

from repro.errors import Interrupted, SimulationError
from repro.sim.events import _NO_WAITERS, _PENDING, LazyName, SimEvent, render_name

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Process:
    """Drives a generator as a concurrent simulated activity.

    Attributes
    ----------
    completion:
        A :class:`SimEvent` that triggers when the generator returns
        (succeeding with its return value) or raises (failing with the
        exception).  Waiting on a process means waiting on this event.
    owner:
        Tag tuple of the cost lines this process charges (see above).
    """

    __slots__ = ("sim", "_name", "generator", "completion", "owner", "_waiting_on", "_resume")

    def __init__(self, sim: "Simulator", generator: t.Generator, name: LazyName = ""):
        self._attach(sim, generator, name)
        # Start the process at the current instant, but via the event heap
        # so that creation order == start order and the creator finishes
        # its own current step first.  The kickoff event succeeds with
        # ``None``, which primes the generator (first ``send(None)``).
        kickoff = SimEvent(sim, ("{}.start", self._name))
        kickoff._callbacks = self._resume  # its one waiter
        self._waiting_on: SimEvent | None = kickoff
        sim._schedule(0.0, kickoff)

    @classmethod
    def adopt(
        cls, sim: "Simulator", generator: t.Generator, event: object, name: LazyName = ""
    ) -> "Process":
        """A process that takes over ``generator``, already parked at ``event``.

        ``event`` is what the generator's last step yielded; the process
        resumes the generator when it triggers (at once if it already
        has).  There is no kick-off: the generator's earlier steps ran
        in whoever drove it so far (see :func:`request` and
        :func:`inline`).
        """
        process = cls.__new__(cls)
        process._attach(sim, generator, name)
        process._waiting_on = None
        process._wait_on(event)
        return process

    def _attach(self, sim: "Simulator", generator: t.Generator, name: LazyName) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        name = self._name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self.completion = SimEvent(sim, ("{}.completion", name))
        active = sim.active_process
        self.owner: tuple[tuple[str, str], ...] = () if active is None else active.owner
        # The one callback this process ever registers: cached so a wait
        # allocates no bound method, dropped at the end so a finished
        # process is not kept alive by a cycle through it.
        self._resume: t.Callable[[SimEvent], None] | None = self._on_event
        sim._active_processes += 1

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Debug name (rendered when read; see :func:`render_name`)."""
        return render_name(self._name)

    @property
    def alive(self) -> bool:
        """Whether the process has not yet finished."""
        completion = self.completion
        return completion._value is _PENDING and completion._exc is None

    @property
    def interruptible(self) -> bool:
        """Whether the process is parked at a yield (interrupt is legal).

        False once finished or while mid-step; cancellation scopes check
        this instead of poking at kernel internals.
        """
        return self.alive and self._waiting_on is not None

    @property
    def result(self) -> object:
        """Return value of the generator (raises if failed/unfinished)."""
        return self.completion.value

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def _on_event(self, event: SimEvent) -> None:
        """Resume the generator with the outcome of ``event``."""
        generator = self.generator
        # Active while the generator runs, restored on every exit: a
        # ``succeed`` in this step resumes waiters synchronously, and
        # each of them sets and restores its own.
        sim = self.sim
        outer, sim.active_process = sim.active_process, self
        try:
            while True:
                self._waiting_on = None
                try:
                    # Only ever called with a triggered event.
                    if event._exc is None:
                        target = generator.send(event._value)
                    else:
                        target = generator.throw(event._exc)
                except StopIteration as stop:
                    self._finish_ok(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
                    # Drop this frame from the traceback: it holds ``self``,
                    # whose completion is about to hold ``exc`` — a cycle per
                    # failure ("Simulator hot path" in repro.sim.events).
                    exc.__traceback__ = exc.__traceback__.tb_next
                    self._finish_fail(exc)
                    return
                if not isinstance(target, SimEvent):
                    self._wait_on(target)  # a Process, or a kernel-usage error
                    return
                callbacks = target._callbacks
                if callbacks is not None:
                    self._waiting_on = target
                    if callbacks is _NO_WAITERS:
                        target._callbacks = self._resume
                    else:
                        target.add_callback(self._resume)
                    return
                # Already triggered: resume at once, which keeps waiting
                # race-free regardless of trigger ordering.
                event = target
        finally:
            sim.active_process = outer

    def _wait_on(self, target: object) -> None:
        if isinstance(target, Process):
            target = target.completion
        if not isinstance(target, SimEvent):
            self._finish_fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes may "
                    "only yield SimEvent (or Process) objects"
                )
            )
            return
        self._waiting_on = target
        # Already triggered: add_callback resumes at once, which keeps
        # waiting race-free regardless of trigger ordering.
        target.add_callback(self._resume)

    def _finish_ok(self, value: object) -> None:
        self._resume = None
        self.sim._active_processes -= 1
        self.completion.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        # Failing the completion event preserves the exception: it reaches
        # waiters immediately and later waiters via add_callback.
        self._resume = None
        self.sim._active_processes -= 1
        self.completion.fail(exc)

    # ------------------------------------------------------------------
    # interruption (failure injection / cancellation)
    # ------------------------------------------------------------------
    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupted` into the process at its current wait.

        No-op if the process already finished.  Interrupting a process
        that is mid-step (not waiting) is a kernel-usage error.
        """
        if not self.alive:
            return
        if self._waiting_on is None:
            raise SimulationError(
                f"cannot interrupt process {self.name!r}: it is not waiting"
            )
        # Detach from the event we were waiting on, then resume with the
        # interrupt.
        waited = self._waiting_on
        self._waiting_on = None
        waited.remove_callback(self._resume)
        sim = self.sim
        outer, sim.active_process = sim.active_process, self
        try:
            target = self.generator.throw(Interrupted(cause))
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001
            exc.__traceback__ = exc.__traceback__.tb_next  # as in _on_event
            self._finish_fail(exc)
            return
        finally:
            sim.active_process = outer
        self._wait_on(target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "finished"
        return f"<Process {self.name!r} {state}>"


# ----------------------------------------------------------------------
# requests: a body started at issue, with no kick-off
# ----------------------------------------------------------------------
def request(sim: "Simulator", body: t.Generator, name: LazyName = "") -> SimEvent:
    """Run ``body``'s first step now and adopt it; the event is its outcome.

    For a storage request whose caller waits on the event: the body's
    first step (admission, the latency draw) runs at issue instead of
    at a kick-off one heap hop later, and the rest runs in a process of
    its own (:meth:`Process.adopt`).  A body that finishes or fails in
    its first step hands back an event that has already triggered.
    """
    try:
        target = body.send(None)
    except StopIteration as stop:
        return SimEvent(sim, ("{}.completion", name)).succeed(stop.value)
    except BaseException as exc:  # noqa: BLE001 - request bodies may raise anything
        # This frame holds ``body``; keep it out of the traceback, as
        # ``Process._on_event`` keeps its own out.
        exc.__traceback__ = exc.__traceback__.tb_next
        return SimEvent(sim, ("{}.completion", name)).fail(exc)
    return Process.adopt(sim, body, target, name).completion


def inline(sim: "Simulator", body: t.Generator) -> t.Generator:
    """Run ``body`` inside the calling process: ``yield from inline(sim, body)``.

    The body's events are the caller's, with no process, kick-off or
    completion event of its own.  Unlike ``yield from body``, an
    :class:`Interrupted` thrown at the caller's wait never reaches the
    body: the body is adopted by a process of its own at the event it
    was parked on (:meth:`Process.adopt`) and the interrupt re-raised
    in the caller, so an abandoned request still finishes, bills and
    counts, as one in a process of its own would have.
    """
    try:
        target = body.send(None)
        while True:
            # An event that has already succeeded (a rate token granted
            # on the spot) resumes the body at once, as the caller's
            # process would, without the round trip through it.
            while (
                isinstance(target, SimEvent)
                and target._callbacks is None
                and target._exc is None
            ):
                target = body.send(target._value)
            try:
                value = yield target
            except BaseException as exc:
                waited = target.completion if isinstance(target, Process) else target
                if waited._exc is not exc:
                    # Thrown at the caller, not delivered by the event: an
                    # interrupt (the body carries on alone) or a close.
                    if isinstance(exc, Interrupted):
                        Process.adopt(sim, body, target)
                    raise
                # Let go of the failed event first: if the body re-raises,
                # this frame is in the traceback and must not hold it.
                target = waited = None
                target = body.throw(exc)
                continue
            target = body.send(value)
    except StopIteration as stop:
        return stop.value
