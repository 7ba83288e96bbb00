"""Contended resources for simulation processes.

Two primitives cover everything the cloud substrate needs:

* :class:`Resource` — a counting semaphore with a FIFO wait queue
  (function-container slots, VM vCPUs, connection pools).
* :class:`TokenBucket` — a rate limiter with burst capacity (object
  storage requests/s, API rate limits).

Both hand out :class:`~repro.sim.events.SimEvent` objects that
processes wait on by yielding.
"""

from __future__ import annotations

import collections
import typing as t

from repro.errors import SimulationError
from repro.sim.events import SimEvent

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Resource:
    """Counting semaphore with FIFO fairness.

    Usage inside a process::

        yield resource.acquire()
        try:
            ...  # hold the resource
        finally:
            resource.release()
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._waiters: collections.deque[SimEvent] = collections.deque()

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self.in_use

    def acquire(self) -> SimEvent:
        """Request one unit; the returned event triggers when granted."""
        event = SimEvent(self.sim, ("{}.acquire", self.name))
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, waking the longest-waiting acquirer if any."""
        if self.in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        if self._waiters:
            # Hand the unit straight to the next waiter; in_use is unchanged.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class TokenBucket:
    """Token-bucket rate limiter with analytic (event-free) refill.

    Tokens accrue continuously at ``rate`` per second up to ``capacity``.
    ``consume(n)`` returns an event that triggers once ``n`` tokens have
    been taken; requests are served strictly FIFO, so a large request
    cannot be starved by a stream of small ones.
    """

    def __init__(
        self,
        sim: "Simulator",
        rate: float,
        capacity: float | None = None,
        name: str = "bucket",
    ):
        if rate <= 0:
            raise SimulationError(f"{name}: rate must be positive, got {rate}")
        self.sim = sim
        self.name = name
        self.rate = rate
        self.capacity = capacity if capacity is not None else rate
        if self.capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self._tokens = self.capacity
        self._updated_at = sim.now
        self._waiters: collections.deque[tuple[float, SimEvent]] = collections.deque()
        self._wake_pending = False

    @property
    def tokens(self) -> float:
        """Tokens available right now (after refill accrual)."""
        self._refill()
        return self._tokens

    @property
    def pending_demand(self) -> float:
        """Total tokens requested by waiters not yet served."""
        return sum(amount for amount, _event in self._waiters)

    def estimated_wait(self, amount: float) -> float:
        """Seconds a new ``consume(amount)`` would wait, given FIFO order."""
        self._refill()
        # Nobody queued (the usual case): skip the O(waiters) sum.
        demand = self.pending_demand if self._waiters else 0
        backlog = demand + amount - self._tokens
        if backlog <= 0:
            return 0.0
        return backlog / self.rate

    def _refill(self) -> None:
        now = self.sim.now
        if now > self._updated_at:
            self._tokens = min(self.capacity, self._tokens + self.rate * (now - self._updated_at))
            self._updated_at = now

    def consume(self, amount: float = 1.0) -> SimEvent:
        """Take ``amount`` tokens; the event triggers when they are taken."""
        if amount <= 0:
            raise SimulationError(f"{self.name}: consume amount must be positive")
        if amount > self.capacity:
            raise SimulationError(
                f"{self.name}: cannot consume {amount} tokens; bucket capacity "
                f"is {self.capacity}"
            )
        event = SimEvent(self.sim, ("{}.consume({:g})", self.name, amount))
        if not self._waiters:
            # Nobody queued (the usual case): ``_pump``'s grant without
            # the round trip through the queue.
            self._refill()
            if amount <= self._tokens + 1e-12:
                self._tokens -= amount
                event.succeed()
                return event
        self._waiters.append((amount, event))
        self._pump()
        return event

    def _pump(self) -> None:
        self._refill()
        while self._waiters:
            amount, event = self._waiters[0]
            if amount <= self._tokens + 1e-12:
                self._tokens -= amount
                self._waiters.popleft()
                event.succeed()
                continue
            if not self._wake_pending:
                delay = (amount - self._tokens) / self.rate
                now = self.sim.now
                if now + delay <= now:
                    # The shortfall refills in less than the float
                    # resolution of the clock: a wake-up would fire at
                    # this same instant, refill nothing and re-arm
                    # forever.  The waiter is owed its tokens *now*.
                    self._tokens = 0.0
                    self._waiters.popleft()
                    event.succeed()
                    continue
                self._wake_pending = True
                self.sim.timeout(delay).add_callback(self._on_wake)
            return

    def cancel(self, event: SimEvent) -> bool:
        """Withdraw a pending ``consume`` request identified by its event.

        Used by cancellation paths so an interrupted process's queued
        request neither burns tokens nor stalls later FIFO waiters.
        Returns whether the request was still queued (``False`` once the
        tokens were already taken).
        """
        for index, (_amount, waiter) in enumerate(self._waiters):
            if waiter is event:
                del self._waiters[index]
                self._pump()  # the head request may now be servable
                return True
        return False

    def _on_wake(self, _event: SimEvent) -> None:
        self._wake_pending = False
        self._pump()
