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
range-GET start and finish with dozens of flows live, so a link event
makes two passes over the flows and no more: *drain* (in arrival order)
and *water-fill + earliest completion* (in cap order).  Simulated time
is pinned bit for bit (``tests/sim/test_link_oracle.py`` holds the old
four-pass link as the oracle), and the float results depend on three
orders that the next edit must keep:

* **Drain order** is arrival order — ``_flows`` is an insertion-ordered
  dict — because ``bytes_delivered`` is a float sum over it.
* **Cap order with ties in arrival order** — ``_by_cap`` is kept sorted
  by ``bisect_right`` on arrival, which is what a stable sort of the
  arrival-ordered flows gives.  Once the fair share drops below the cap,
  equal-cap flows get rates that differ in their last bits by position.
* **Every flow is drained at every link event** by ``rate * elapsed``,
  and exactly one timer is armed per re-rating (superseded timers stay
  on the heap and fire as no-ops).  Draining lazily, or cancelling stale
  timers, is asymptotically better but rounds differently and changes
  the number of simulated events: a model change, not an optimisation.
"""

from __future__ import annotations

import bisect
import math
import typing as t

from repro.errors import SimulationError
from repro.sim.events import SimEvent

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: Residual bytes below this threshold count as "transfer complete".
_EPSILON_BYTES = 1e-6


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
        if capacity <= 0:
            raise SimulationError(f"{name}: link capacity must be positive")
        if default_flow_cap <= 0:
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
        self._last_update = sim.now
        #: Travels as the armed timer's value; a timer carrying an older
        #: token was superseded by a later re-rating.
        self._timer_token = 0
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
        if nbytes < 0:
            raise SimulationError(f"{self.name}: cannot transfer {nbytes} bytes")
        cap = self.default_flow_cap if flow_cap is None else flow_cap
        if cap <= 0:
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
        self._drain()
        flow = self._flows[event] = _Flow(nbytes, cap, event, self._last_update)
        index = bisect.bisect_right(self._caps, cap)
        self._caps.insert(index, cap)
        self._by_cap.insert(index, flow)
        self._rerate()
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
        self._drain()
        self._remove(flow)
        self._rerate()
        return True

    def utilization(self) -> float:
        """Current aggregate rate as a fraction of capacity (0..1)."""
        if math.isinf(self.capacity):
            return 0.0
        return sum(flow.rate for flow in self._flows.values()) / self.capacity

    # ------------------------------------------------------------------
    # fluid-model mechanics
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Drain all flows at their current rates up to ``sim.now``."""
        now = self.sim._now
        elapsed = now - self._last_update
        if elapsed > 0:
            delivered = self.bytes_delivered
            for flow in self._flows.values():
                drained = flow.rate * elapsed
                flow.remaining -= drained
                delivered += drained
            self.bytes_delivered = delivered
        self._last_update = now

    def _remove(self, flow: _Flow) -> None:
        del self._flows[flow.event]
        index = self._by_cap.index(flow, bisect.bisect_left(self._caps, flow.cap))
        del self._by_cap[index]
        del self._caps[index]

    def _rerate(self) -> None:
        """Recompute per-flow rates and arm one timer for the earliest finish.

        Capped max-min fairness by water-filling: visit flows in
        ascending cap order, giving each ``min(cap, remaining_capacity /
        remaining_flows)``; the same visit takes the smallest
        ``remaining / rate``.

        The eta is clamped to a minimum tick well above the float
        resolution of the current timestamp: with sub-resolution etas,
        ``now + eta == now`` and the timer would re-fire forever at the
        same instant without draining anything.  The clamp trades a
        sub-microsecond overshoot for guaranteed progress.
        """
        self._timer_token += 1
        flows = self._by_cap
        if not flows:
            return
        eta = math.inf
        remaining_capacity = self.capacity
        if remaining_capacity == math.inf:
            # Uncontended aggregate: every flow runs at its (finite) cap.
            for flow in flows:
                rate = flow.rate = flow.cap
                flow_eta = flow.remaining / rate
                if flow_eta < eta:
                    eta = flow_eta
        else:
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
        if eta == math.inf:
            raise SimulationError(f"{self.name}: no flow can make progress")
        now = self.sim._now
        min_tick = max(1e-9, abs(now) * 1e-12)
        timer = self.sim.timeout(max(eta, min_tick), self._timer_token)
        timer._callbacks = self._timer_callback  # a fresh timeout's one waiter

    def _on_timer(self, timer: SimEvent) -> None:
        if timer._value != self._timer_token:
            return  # a newer re-rating superseded this timer
        now = self.sim._now
        elapsed = now - self._last_update
        self._last_update = now
        finished = []
        delivered = self.bytes_delivered
        for flow in self._flows.values():
            drained = flow.rate * elapsed
            remaining = flow.remaining = flow.remaining - drained
            delivered += drained
            if remaining <= _EPSILON_BYTES:
                finished.append(flow)
        self.bytes_delivered = delivered
        for flow in finished:
            self._remove(flow)
        self._rerate()
        for flow in finished:
            flow.event.succeed(now - flow.started_at)
