"""The simulated serverless functions platform (IBM Cloud Functions-like).

Models the pieces that matter for the paper's end-to-end numbers:

* **cold vs warm starts** — per-function warm container pools with a
  keep-alive window; a burst of N parallel invocations on a cold
  function pays N cold starts (exactly the "startup times" included in
  the paper's latencies);
* **account concurrency** — a region-wide cap on concurrently running
  activations;
* **memory-proportional CPU** — a 1024 MB function gets half the CPU of
  a 2048 MB one, scaling every ``ctx.compute`` charge;
* **GB-second billing** — duration rounded up to the billing
  granularity, times allocated memory;
* **attempt-scoped cancellation** — every activation is one *attempt*
  (its activation id); :meth:`FaasPlatform.cancel` (or an injected
  crash/timeout) kills the body *and* fires the context's cancellation
  scope, interrupting the attempt's sub-processes and reclaiming every
  resource it registered on stateful services.  Billing stops at the
  kill, audited per activation in :attr:`FaasPlatform.billing_log`.

Handlers run as simulation processes and may perform storage I/O through
their :class:`~repro.cloud.faas.context.FunctionContext`.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing as t

from repro.cloud.billing import CostMeter
from repro.cloud.faas.context import FunctionContext
from repro.cloud.faas.errors import (
    FunctionAlreadyRegistered,
    FunctionCancelled,
    FunctionCrashed,
    FunctionNotFound,
    FunctionTimeout,
    InvalidFunctionConfig,
)
from repro.cloud.objectstore.service import ObjectStore
from repro.cloud.profiles import FaasProfile
from repro.sim import Resource, SimEvent, Simulator

#: Handler signature: generator function taking (ctx, payload).
Handler = t.Callable[[FunctionContext, t.Any], t.Generator]


@dataclasses.dataclass(slots=True)
class FunctionDef:
    """A registered function."""

    name: str
    handler: Handler
    memory_mb: int
    timeout_s: float
    #: Extra billing tags stamped on every activation's gb-second charge
    #: (e.g. ``tenant=...`` for a multi-tenant service's attribution).
    billing_tags: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(slots=True)
class ActivationHandle:
    """One launched activation: its completion event plus a cancel lever.

    ``completion`` triggers with the handler's result or fails with its
    error (see :meth:`FaasPlatform.launch`); ``cancel`` asks the platform
    to kill the activation (the losing side of a speculative race, a
    torn-down job).  Cancelling is idempotent and returns whether the
    activation was still live enough to kill.
    """

    activation_id: str
    completion: SimEvent
    platform: "FaasPlatform"

    def cancel(self, reason: str = "cancelled") -> bool:
        return self.platform.cancel(self.activation_id, reason)

    @property
    def finished(self) -> bool:
        return self.completion.triggered


@dataclasses.dataclass(slots=True)
class BilledActivation:
    """One line of the platform's billing log (tests audit this)."""

    activation_id: str
    function: str
    started_at: float
    billed_s: float
    gb_seconds: float
    outcome: str  # ok | timeout | crash | cancelled | error


class FaasStats:
    """Platform counters for reports and tests."""

    def __init__(self) -> None:
        self.invocations = 0
        self.completions = 0
        self.cold_starts = 0
        self.warm_starts = 0
        self.timeouts = 0
        self.crashes = 0
        self.cancellations = 0
        self.errors = 0
        self.billed_gb_seconds = 0.0


class FaasPlatform:
    """Control plane + runtime for simulated serverless functions."""

    def __init__(
        self,
        sim: Simulator,
        profile: FaasProfile,
        store: ObjectStore,
        meter: CostMeter,
        logical_scale: float = 1.0,
        name: str = "faas",
        memstore=None,
        vms=None,
    ):
        self.sim = sim
        self.profile = profile
        self.store = store
        self.meter = meter
        self.logical_scale = logical_scale
        self.name = name
        #: Optional cache service for function-side key-value exchange
        #: (set by :class:`~repro.cloud.environment.Cloud`).
        self.memstore = memstore
        #: Optional VM service, used to resolve partition relays for
        #: function-side PUSH/PULL exchange (set by ``Cloud``).
        self.vms = vms
        self._functions: dict[str, FunctionDef] = {}
        self._concurrency = Resource(
            sim, capacity=profile.account_concurrency, name=f"{name}.concurrency"
        )
        # Warm containers per function: deque of expiry timestamps.
        self._warm_pools: dict[str, collections.deque[float]] = {}
        self._activation_ids = itertools.count(1)
        self._rng = sim.rng.stream(f"{name}.lifecycle")
        self._fault_rng = sim.rng.stream(f"{name}.faults")
        #: Probability that an invocation crashes mid-flight (failure
        #: injection for retry tests); 0 by default.
        self.crash_probability = 0.0
        #: When an activation is selected to crash, the kill fires at
        #: uniform(0, crash_latest_s) after execution starts.  Note the
        #: kill only materializes if the body has not finished by then.
        self.crash_latest_s = 5.0
        #: Live activations by id: each maps to its cancel event, which
        #: :meth:`cancel` fires to kill the activation wherever it is.
        self._active: dict[str, SimEvent] = {}
        #: One :class:`BilledActivation` per billed activation, in billing
        #: order — the audit trail for "cancelled attempts are billed
        #: once, and only up to the kill".
        self.billing_log: list[BilledActivation] = []
        self.stats = FaasStats()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        handler: Handler,
        memory_mb: int = 2048,
        timeout_s: float | None = None,
        billing_tags: dict[str, str] | None = None,
    ) -> FunctionDef:
        """Register ``handler`` under ``name`` with the given resources."""
        if name in self._functions:
            raise FunctionAlreadyRegistered(name)
        if memory_mb < 128 or memory_mb > 8192:
            raise InvalidFunctionConfig(
                f"memory_mb must be in [128, 8192], got {memory_mb}"
            )
        definition = FunctionDef(
            name=name,
            handler=handler,
            memory_mb=memory_mb,
            timeout_s=timeout_s if timeout_s is not None else self.profile.default_timeout_s,
            billing_tags=dict(billing_tags or {}),
        )
        self._functions[name] = definition
        self._warm_pools[name] = collections.deque()
        return definition

    def function(self, name: str) -> FunctionDef:
        try:
            return self._functions[name]
        except KeyError:
            raise FunctionNotFound(name) from None

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def launch(
        self,
        name: str,
        payload: object = None,
        parent_span=None,
        span_track: str | None = None,
        link_spans: t.Sequence[object] = (),
    ) -> ActivationHandle:
        """Invoke ``name`` and return a cancellable activation handle.

        The handle's ``completion`` event carries the handler's result,
        or fails with the handler's exception, with
        :class:`FunctionTimeout`, with :class:`FunctionCrashed`, or with
        :class:`FunctionCancelled`.  The handle also carries the
        activation id (the *attempt id* every stateful service sees) and
        a ``cancel`` lever.  Executors use this to fence out and reclaim
        the losing attempts of speculative races.

        ``parent_span``/``span_track`` thread the caller's trace context
        so the attempt's span (see :mod:`repro.obs.trace`) parents under
        the submitting wave and renders on the caller-chosen Perfetto
        track.  ``link_spans`` names sibling attempt spans of the same
        speculative race; the new attempt's span and each sibling link
        to each other so the trace exposes the racing pair.
        """
        definition = self.function(name)
        activation_id = f"act-{next(self._activation_ids)}"
        cancel_event = SimEvent(self.sim, name=f"{activation_id}.cancel")
        self._active[activation_id] = cancel_event
        process = self.sim.process(
            self._activation(
                definition, payload, activation_id, cancel_event,
                parent_span, span_track, link_spans,
            ),
            name=f"{self.name}.{name}.{activation_id}",
        )
        return ActivationHandle(activation_id, process.completion, self)

    def cancel(self, activation_id: str, reason: str = "cancelled") -> bool:
        """Kill a live activation; its event fails with FunctionCancelled.

        Cancellation is attempt-scoped: the activation's body is
        interrupted *and* its context tears down every resource the
        attempt registered (relay reservations are reclaimed, its
        in-flight transfers stop, the attempt id is fenced).  Billing
        stops at the kill.  Returns ``False`` when the activation has
        already finished (or was never launched) — cancelling a done
        attempt is a harmless no-op.
        """
        cancel_event = self._active.get(activation_id)
        if cancel_event is None or cancel_event.triggered:
            return False
        cancel_event.succeed(reason)
        return True

    def _activation(
        self,
        definition: FunctionDef,
        payload: object,
        activation_id: str,
        cancel_event: SimEvent,
        parent_span=None,
        span_track: str | None = None,
        link_spans: t.Sequence[object] = (),
    ) -> t.Generator:
        self.stats.invocations += 1
        span = None
        try:
            yield self.sim.timeout(self.profile.invoke_overhead.sample(self._rng))
            yield self._concurrency.acquire()
        except BaseException:
            self._active.pop(activation_id, None)
            raise
        try:
            if cancel_event.triggered:
                # Cancelled while still queueing: nothing ran, nothing
                # is billed, no container was consumed.
                self.stats.cancellations += 1
                raise FunctionCancelled(definition.name, str(cancel_event.value))
            started_cold = self._acquire_container(definition.name)
            if started_cold:
                self.stats.cold_starts += 1
                startup = self.profile.cold_start.sample(self._rng)
            else:
                self.stats.warm_starts += 1
                startup = self.profile.warm_start.sample(self._rng)
            yield self.sim.timeout(startup)

            execution_start = self.sim.now
            context = FunctionContext(
                self, definition.name, definition.memory_mb, activation_id
            )
            if self.sim.tracer.enabled:
                # One span per executed *attempt*.  Its outcome attribute
                # is set where billing decides it; it ends exactly once,
                # in the outer finally, after commit_resources so lease
                # commits still land on a live span.
                span = self.sim.tracer.span(
                    definition.name,
                    category="attempt",
                    parent=parent_span,
                    track=span_track,
                    activation=activation_id,
                    cold=started_cold,
                )
                self.sim.tracer.bind_attempt(activation_id, span)
                context.bind_span(span)
                for sibling in link_spans:
                    if getattr(sibling, "recording", False):
                        span.add_link(sibling.span_id)
                        sibling.add_link(span.span_id)
            body = self.sim.process(
                definition.handler(context, payload),
                name=f"{definition.name}.body.{activation_id}",
            )
            crash_delay = self._maybe_crash_delay(definition)
            outcome = "ok"
            try:
                result = yield from self._race_body(
                    definition, body, crash_delay, cancel_event, context
                )
            except FunctionTimeout:
                outcome = "timeout"
                raise
            except FunctionCancelled:
                outcome = "cancelled"
                raise
            except FunctionCrashed:
                outcome = "crash"
                raise
            except BaseException:
                # Application errors also tear the attempt down: a failed
                # attempt must not leave reservations behind either.
                outcome = "error"
                context.cancel_resources("handler error")
                raise
            finally:
                self._bill(definition, execution_start, activation_id, outcome)
                self._release_container(definition.name)
                if span is not None:
                    span.set(outcome=outcome)
            # The handler returned and won its race: finalize deferred
            # effects (e.g. relay consume leases become real deletions).
            context.commit_resources()
            self.stats.completions += 1
            return result
        finally:
            if span is not None:
                # End after commit_resources so commit events land on a
                # live span; exactly once whatever path got us here.
                self.sim.tracer.release_attempt(activation_id)
                span.end()
            self._active.pop(activation_id, None)
            self._concurrency.release()

    def _maybe_crash_delay(self, definition: FunctionDef) -> float | None:
        """If fault injection decides this activation dies, pick when."""
        if self.crash_probability <= 0.0:
            return None
        if self._fault_rng.random() >= self.crash_probability:
            return None
        window = min(self.crash_latest_s, definition.timeout_s)
        return self._fault_rng.uniform(0.0, window)

    def _race_body(
        self,
        definition: FunctionDef,
        body,
        crash_delay: float | None,
        cancel_event: SimEvent,
        context: FunctionContext,
    ) -> t.Generator:
        """Wait for the handler, its timeout, a cancel, or an injected crash.

        Every losing outcome kills the body *and* fires the context's
        cancellation scope, so the attempt's sub-processes stop and its
        registered resources are reclaimed before the caller learns of
        the failure.
        """
        contenders: list[SimEvent] = [body.completion]
        timeout_event = self.sim.timeout(definition.timeout_s)
        contenders.append(timeout_event)
        cancel_index = len(contenders)
        contenders.append(cancel_event)
        if crash_delay is not None:
            contenders.append(self.sim.timeout(crash_delay, value="crash"))
        winner_index, value = yield self.sim.any_of(contenders)
        if winner_index == 0:
            return value
        if winner_index == 1:
            cause = "killed by platform: timeout"
        elif winner_index == cancel_index:
            cause = f"killed by platform: {cancel_event.value}"
        else:
            cause = "killed by platform: crash"
        body.interrupt(cause=cause)
        context.cancel_resources(cause)
        if winner_index == 1:
            self.stats.timeouts += 1
            raise FunctionTimeout(definition.name, definition.timeout_s)
        if winner_index == cancel_index:
            self.stats.cancellations += 1
            raise FunctionCancelled(definition.name, str(cancel_event.value))
        self.stats.crashes += 1
        raise FunctionCrashed(definition.name)

    # ------------------------------------------------------------------
    # containers
    # ------------------------------------------------------------------
    def _acquire_container(self, name: str) -> bool:
        """Take a warm container if one is alive; return True if cold."""
        pool = self._warm_pools[name]
        now = self.sim.now
        while pool:
            expires_at = pool.popleft()
            if expires_at >= now:
                return False  # warm
        return True  # cold

    def _release_container(self, name: str) -> None:
        self._warm_pools[name].append(self.sim.now + self.profile.keep_alive_s)

    # ------------------------------------------------------------------
    # billing
    # ------------------------------------------------------------------
    def _bill(
        self,
        definition: FunctionDef,
        execution_start: float,
        activation_id: str,
        outcome: str,
    ) -> None:
        duration = self.sim.now - execution_start
        granularity = self.profile.billing_granularity_s
        billed_duration = max(
            granularity,
            ((duration + granularity - 1e-12) // granularity) * granularity,
        )
        gb_seconds = billed_duration * (definition.memory_mb / 1024.0)
        self.stats.billed_gb_seconds += gb_seconds
        self.billing_log.append(
            BilledActivation(
                activation_id=activation_id,
                function=definition.name,
                started_at=execution_start,
                billed_s=billed_duration,
                gb_seconds=gb_seconds,
                outcome=outcome,
            )
        )
        self.meter.charge(
            self.sim.now,
            "faas",
            "gb_second",
            gb_seconds,
            gb_seconds * self.profile.gb_second_usd,
            function=definition.name,
            **definition.billing_tags,
        )
