"""Fluid-model bandwidth links with max-min fair sharing.

A :class:`FairShareLink` models a shared capacity (a VM NIC, an object
store's per-account aggregate pipe, a regional backbone) over which any
number of concurrent *flows* transfer bytes.  The model is the classical
fluid approximation: at any instant, bandwidth is divided among active
flows by max-min fairness, honouring an optional per-flow rate cap (used
to model per-connection limits of object storage).

The implementation is event-driven: rates change only when a flow starts
or finishes, so between those instants each flow drains linearly and the
kernel needs just one timer for the earliest completion.

Simulator hot path
------------------
A W-wide object-store sort re-rates its one aggregate link once per
range-GET start and finish with dozens of flows live, and the aggregate
nearly always has headroom: the caps of the live flows sum to less than
the capacity, so every flow runs at its cap.  A link event is therefore
*one* pass over the flows in arrival order — drain at the old rate, set
the new rate, collect the finished, take the earliest completion — and
only a contended link (a relay NIC) water-fills in a second pass, in cap
order.  Simulated time is pinned bit for bit
(``tests/sim/test_link_oracle.py`` holds the old four-pass link as the
oracle), and the float results depend on four rules the next edit must
keep:

* **Drain order** is arrival order — ``_flows`` is an insertion-ordered
  dict — because ``bytes_delivered`` is a float sum over it.
* **Cap order with ties in arrival order** — ``_by_cap`` is kept sorted
  by ``bisect_right`` on arrival, which is what a stable sort of the
  arrival-ordered flows gives.  Once the fair share drops below the cap,
  equal-cap flows get rates that differ in their last bits by position.
  Only when the caps fit (see :meth:`FairShareLink._reflow`) is every
  rate exactly its cap, in any order, and the earliest completion a
  ``min``, which is order-free.
* **Every flow is drained at every link event** by ``rate * elapsed``.
  Draining lazily is asymptotically better but rounds differently: a
  model change, not an optimisation.
* **One timer per deadline.**  The link keeps its pending timer and
  that timer's absolute deadline.  A re-rating whose deadline is
  bit-equal keeps the timer; any other retires it (marked triggered, so
  ``Simulator.step`` pops it without calling back) and pushes a new
  one.  A kept timer fires at its old ``seq`` where a re-push would
  have fired at a new one, which differs only if another event was
  scheduled for the same float instant in between — this happened 0
  times in 33,273 kept timers across the ledger's four workloads at
  seed 2021, where only the event count moved.
"""

from __future__ import annotations

import bisect
import math
import typing as t

from repro.errors import SimulationError
from repro.sim.events import SimEvent, Timeout

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Residual bytes below this threshold count as "transfer complete".
_EPSILON_BYTES = 1e-6

#: Caps that sum to at most ``capacity * (1 - _HEADROOM)`` all fit.
_HEADROOM = 1e-9


class _Flow:
    __slots__ = ("remaining", "cap", "rate", "event", "started_at")

    def __init__(self, nbytes: float, cap: float, event: SimEvent, started_at: float):
        self.remaining = float(nbytes)
        self.cap = cap
        self.rate = 0.0
        self.event = event
        self.started_at = started_at


class FairShareLink:
    """Shared-capacity link dividing bandwidth max-min fairly among flows.

    Parameters
    ----------
    capacity:
        Total link capacity in bytes/second.  ``math.inf`` models an
        uncontended aggregate (flows then run at their per-flow caps).
    default_flow_cap:
        Per-flow rate ceiling in bytes/second applied when ``transfer``
        is not given an explicit cap.  ``math.inf`` disables the ceiling.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float,
        default_flow_cap: float = math.inf,
        name: str = "link",
    ):
        # ``not x > 0`` rather than ``x <= 0``: a NaN compares false both ways.
        if not capacity > 0:
            raise SimulationError(f"{name}: link capacity must be positive")
        if not default_flow_cap > 0:
            raise SimulationError(f"{name}: per-flow cap must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.default_flow_cap = default_flow_cap
        #: Live flows by completion event, in arrival order.
        self._flows: dict[SimEvent, _Flow] = {}
        #: The same flows in ascending cap order, ties in arrival order,
        #: and their caps alongside for ``bisect``.
        self._by_cap: list[_Flow] = []
        self._caps: list[float] = []
        self._fits_below = capacity * (1 - _HEADROOM)
        self._last_update = sim.now
        #: The one timer that will call back, and its absolute deadline.
        self._timer: Timeout | None = None
        self._deadline = math.inf
        self._timer_callback = self._on_timer
        #: Total bytes ever delivered; exposed for tests and reports.
        self.bytes_delivered = 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of in-progress transfers."""
        return len(self._flows)

    def transfer(self, nbytes: float, flow_cap: float | None = None) -> SimEvent:
        """Start a transfer of ``nbytes``; the event triggers at completion.

        The event's value is the transfer duration in seconds.
        """
        if not 0 <= nbytes < math.inf:
            raise SimulationError(f"{self.name}: cannot transfer {nbytes} bytes")
        cap = self.default_flow_cap if flow_cap is None else flow_cap
        if not cap > 0:
            raise SimulationError(f"{self.name}: per-flow cap must be positive")
        event = SimEvent(self.sim, ("{}.transfer({:g}B)", self.name, nbytes))
        if nbytes <= _EPSILON_BYTES:
            self.bytes_delivered += max(nbytes, 0.0)
            event.succeed(0.0)
            return event
        if math.isinf(self.capacity) and math.isinf(cap):
            raise SimulationError(
                f"{self.name}: transfer needs a finite capacity or flow cap"
            )
        # A new flow has rate 0: the drain leaves it, and ``bytes_delivered``, as is.
        flow = self._flows[event] = _Flow(nbytes, cap, event, self.sim._now)
        index = bisect.bisect_right(self._caps, cap)
        self._caps.insert(index, cap)
        self._by_cap.insert(index, flow)
        self._reflow()
        return event

    def abort(self, event: SimEvent) -> bool:
        """Abort the in-flight transfer identified by its completion event.

        The flow stops consuming link capacity immediately; its event is
        left untriggered (the aborting caller is unwinding and nobody
        else may wait on a transfer event).  Returns whether a flow was
        actually removed — ``False`` means the transfer had already
        completed (or never contended, e.g. zero-byte transfers).
        """
        flow = self._flows.get(event)
        if flow is None:
            return False
        # Bytes already drained stay delivered (they crossed the wire);
        # only the undelivered remainder is cancelled.
        self._reflow(leaving=flow)
        return True

    def utilization(self) -> float:
        """Current aggregate rate as a fraction of capacity (0..1)."""
        if math.isinf(self.capacity):
            return 0.0
        return sum(flow.rate for flow in self._flows.values()) / self.capacity

    # ------------------------------------------------------------------
    # fluid-model mechanics
    # ------------------------------------------------------------------
    def _reflow(
        self, finishing: bool = False, leaving: _Flow | None = None
    ) -> list[_Flow]:
        """Drain every flow to ``sim.now``, re-rate, arm the timer.

        Every flow drains at its old rate, in arrival order; the flow
        ``leaving`` (an abort) and, when ``finishing`` (the timer), every
        flow drained to ``_EPSILON_BYTES`` are removed and returned.

        When the caps fit, ``sum(caps) <= capacity * (1 - 1e-9)``, the
        same pass gives every other flow its cap and takes the earliest
        ``remaining / cap``: water-filling would give exactly the caps.
        Visiting caps in ascending order, the exact share
        ``(C - c_1 - ... - c_(i-1)) / (n - i + 1)`` exceeds ``c_i`` by at
        least ``1e-9 C / (n - i + 1)``; the loop's subtractions and
        division err by at most ``(n + 1) * 2**-53 * C`` and the fit
        test's sum by ``n * 2**-53 * C``, so the margin is exact below
        ~4e6 live flows.  The test counts the flows about to leave too:
        if they fit, so do the rest.  Otherwise :meth:`_water_fill`
        re-rates the survivors in cap order, which is exact either way.
        """
        now = self.sim._now
        elapsed = now - self._last_update
        self._last_update = now
        limit = _EPSILON_BYTES if finishing else -math.inf
        fits = sum(self._caps) <= self._fits_below
        gone = []
        eta = math.inf
        delivered = self.bytes_delivered
        # Two copies of the drain: a contended link pays for no rates
        # the water-fill overwrites, nor for a pass that would drain
        # nothing (a transfer at the instant of the last link event).
        if fits:
            for flow in self._flows.values():
                drained = flow.rate * elapsed
                remaining = flow.remaining = flow.remaining - drained
                delivered += drained
                if remaining <= limit or flow is leaving:
                    gone.append(flow)
                else:
                    cap = flow.rate = flow.cap
                    flow_eta = remaining / cap
                    if flow_eta < eta:
                        eta = flow_eta
        else:
            if elapsed > 0 or finishing:
                for flow in self._flows.values():
                    drained = flow.rate * elapsed
                    remaining = flow.remaining = flow.remaining - drained
                    delivered += drained
                    if remaining <= limit:
                        gone.append(flow)
            if leaving is not None:
                gone.append(leaving)
        self.bytes_delivered = delivered
        for flow in gone:
            self._remove(flow)
        if self._flows:
            self._arm(eta if fits else self._water_fill())
        return gone

    def _remove(self, flow: _Flow) -> None:
        del self._flows[flow.event]
        index = self._by_cap.index(flow, bisect.bisect_left(self._caps, flow.cap))
        del self._by_cap[index]
        del self._caps[index]

    def _water_fill(self) -> float:
        """Capped max-min rates of a contended link; returns the earliest eta.

        Visit flows in ascending cap order, giving each ``min(cap,
        remaining_capacity / remaining_flows)``; the same visit takes
        the smallest ``remaining / rate``.
        """
        flows = self._by_cap
        eta = math.inf
        remaining_capacity = self.capacity
        remaining_count = len(flows)
        for flow in flows:
            rate = remaining_capacity / remaining_count
            if flow.cap <= rate:
                rate = flow.cap
            flow.rate = rate
            remaining_capacity -= rate
            remaining_count -= 1
            if rate > 0:
                flow_eta = flow.remaining / rate
                if flow_eta < eta:
                    eta = flow_eta
        return eta

    def _arm(self, eta: float) -> None:
        """Have the timer fire ``eta`` seconds from now (one timer per deadline).

        The eta is clamped to a minimum tick well above the float
        resolution of the current timestamp: with sub-resolution etas,
        ``now + eta == now`` and the timer would re-fire forever at the
        same instant without draining anything.  The clamp trades a
        sub-microsecond overshoot for guaranteed progress.
        """
        if eta == math.inf:
            raise SimulationError(f"{self.name}: no flow can make progress")
        now = self.sim._now
        delay = max(eta, max(1e-9, abs(now) * 1e-12))
        deadline = now + delay
        timer = self._timer
        if timer is not None:
            if deadline == self._deadline:
                return
            # Retired: ``Simulator.step`` pops a triggered entry silently.
            timer._value = None
            timer._callbacks = None
        timer = self._timer = self.sim.timeout(delay)
        timer._callbacks = self._timer_callback  # a fresh timeout's one waiter
        self._deadline = deadline

    def _on_timer(self, _timer: SimEvent) -> None:
        self._timer = None
        now = self.sim._now
        for flow in self._reflow(finishing=True):
            flow.event.succeed(now - flow.started_at)
