"""Speculative execution (straggler mitigation) for map jobs.

Lognormal startup jitter and injected crashes make a few calls in every
wide fan-out run long — and a map stage is as slow as its slowest call.
The classical MapReduce remedy is *backup tasks*: once most of the job
has finished, re-invoke the stragglers and take whichever attempt
settles first.

:class:`SpeculationPolicy` captures the trigger rule; :class:`JobSpeculator`
implements it callback-style on the simulation kernel (no polling
process).  The executor exposes it through ``map(..., speculation=...)``.

Duplicated attempts write to the same output key, so the winner is
simply the first attempt to settle.  Losing attempts are not left to
drain: the moment a call settles, the speculator **cancels** every
other outstanding attempt through the platform's attempt-scoped cancel
(:meth:`~repro.cloud.faas.platform.FaasPlatform.cancel`), which stops
their billing, interrupts their in-flight transfers, and fences them
out of stateful substrates like the VM partition relay.  That is what
makes speculation safe on *every* exchange substrate, not only the
idempotent object-storage path.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as t

from repro.errors import ExecutorError
from repro.sim import SimEvent

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.executor.executor import FunctionExecutor


class AttemptHandle:
    """Cancel lever for one retry-looped attempt of one call.

    The executor's retry loop keeps ``activation_id`` pointed at the
    attempt's *current* activation; :meth:`cancel` kills that activation
    and latches ``cancel_requested`` so the loop cannot relaunch after a
    crash that raced the cancellation.
    """

    __slots__ = ("executor", "activation_id", "cancel_requested")

    def __init__(self, executor: "FunctionExecutor"):
        self.executor = executor
        self.activation_id: str | None = None
        self.cancel_requested = False

    def cancel(self, reason: str = "lost speculative race") -> bool:
        self.cancel_requested = True
        if self.activation_id is None:
            return False
        return self.executor.cloud.faas.cancel(self.activation_id, reason)


@dataclasses.dataclass(frozen=True, slots=True)
class SpeculationPolicy:
    """When to launch backup attempts for straggling calls.

    Attributes
    ----------
    quantile:
        Fraction of the job's calls that must have completed before any
        backup launches (speculating early wastes money on healthy
        calls).
    latency_multiplier:
        A call is a straggler once its age exceeds ``latency_multiplier``
        times the median duration of the completed calls.
    max_duplicates:
        Backup attempts allowed per call.
    """

    quantile: float = 0.75
    latency_multiplier: float = 1.5
    max_duplicates: int = 1

    def validate(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ExecutorError(
                f"speculation quantile must be in (0, 1), got {self.quantile}"
            )
        if self.latency_multiplier < 1.0:
            raise ExecutorError(
                "speculation latency_multiplier must be >= 1, got "
                f"{self.latency_multiplier}"
            )
        if self.max_duplicates < 1:
            raise ExecutorError(
                f"speculation max_duplicates must be >= 1, got {self.max_duplicates}"
            )


class JobSpeculator:
    """Drives one job's settle events, launching backups per the policy.

    The executor registers each call with :meth:`register_primary`; the
    speculator owns the call's *settle* event (what the call's
    :class:`~repro.executor.futures.ResponseFuture` waits on) and
    succeeds it with the first attempt that completes.  A call fails
    only when every outstanding attempt for it has failed.
    """

    def __init__(self, executor: "FunctionExecutor", policy: SpeculationPolicy):
        policy.validate()
        self.executor = executor
        self.sim = executor.sim
        self.policy = policy
        self._settles: dict[int, SimEvent] = {}
        self._payloads: dict[int, dict] = {}
        self._started_at: dict[int, float] = {}
        self._outstanding: dict[int, int] = {}
        self._backups_launched: dict[int, int] = {}
        #: Live attempt handles per call; the losers are cancelled the
        #: moment the call settles.
        self._attempts: dict[int, list[AttemptHandle]] = {}
        #: (span, track) trace context per call, shared by all attempts.
        self._spans: dict[int, tuple[object, str | None]] = {}
        self._durations: list[float] = []
        self._expected_calls: int | None = None
        #: Backup attempts launched (visible to tests and reports).
        self.speculative_launches = 0
        #: Losing attempts cancelled after their call settled.
        self.cancelled_losers = 0

    # ------------------------------------------------------------------
    # executor-facing API
    # ------------------------------------------------------------------
    def expect_calls(self, count: int) -> None:
        """Declare the job size (the quantile trigger needs the total)."""
        self._expected_calls = count

    def register_primary(
        self,
        call_id: int,
        payload: dict,
        span=None,
        track: str | None = None,
    ) -> SimEvent:
        """Launch the primary attempt; returns the call's settle event.

        ``span``/``track`` carry the submitting wave's trace context so
        every attempt of this call — primary and backups alike — parents
        under the same wave span and renders on the same worker track.
        """
        settle = self.sim.event(name=f"speculate.settle.{call_id}")
        self._settles[call_id] = settle
        self._payloads[call_id] = payload
        self._started_at[call_id] = self.sim.now
        self._outstanding[call_id] = 0
        self._backups_launched[call_id] = 0
        self._attempts[call_id] = []
        self._spans[call_id] = (span, track)
        self._launch_attempt(call_id)
        return settle

    # ------------------------------------------------------------------
    # attempt plumbing
    # ------------------------------------------------------------------
    def _launch_attempt(
        self, call_id: int, link_spans: t.Sequence[object] = ()
    ) -> None:
        self._outstanding[call_id] += 1
        handle = AttemptHandle(self.executor)
        self._attempts[call_id].append(handle)
        span, track = self._spans[call_id]
        attempt = self.sim.process(
            self.executor._invoke_with_retries(
                self._payloads[call_id],
                handle,
                span=span,
                track=track,
                link_spans=link_spans,
            ),
            name=f"speculate.attempt.{call_id}",
        ).completion
        attempt.add_callback(
            lambda event, call_id=call_id, handle=handle: self._on_attempt_done(
                call_id, handle, event
            )
        )

    def _on_attempt_done(self, call_id: int, handle: AttemptHandle, event: SimEvent) -> None:
        settle = self._settles[call_id]
        self._outstanding[call_id] -= 1
        attempts = self._attempts[call_id]
        if handle in attempts:
            attempts.remove(handle)
        if settle.triggered:
            return  # a faster attempt already decided this call
        if event.ok:
            self._durations.append(self.sim.now - self._started_at[call_id])
            settle.succeed(event.value)
            self._cancel_losers(call_id)
            self._maybe_speculate()
        elif self._outstanding[call_id] == 0:
            # Every attempt for this call has failed — so does the call.
            settle.fail(event.exception)  # type: ignore[arg-type]

    def _cancel_losers(self, call_id: int) -> None:
        """Kill every attempt still running for a settled call.

        The platform's attempt-scoped cancellation stops the loser's
        billing clock and reclaims whatever it reserved on stateful
        exchange substrates — losers no longer drain to completion.
        """
        for handle in list(self._attempts[call_id]):
            handle.cancel()
            self.cancelled_losers += 1

    # ------------------------------------------------------------------
    # straggler detection
    # ------------------------------------------------------------------
    def _maybe_speculate(self) -> None:
        if self._expected_calls is None:
            return
        threshold = max(1, int(self.policy.quantile * self._expected_calls))
        if len(self._durations) < threshold:
            return
        median = statistics.median(self._durations)
        deadline_age = self.policy.latency_multiplier * median
        for call_id, settle in self._settles.items():
            if settle.triggered:
                continue
            if self._backups_launched[call_id] >= self.policy.max_duplicates:
                continue
            fire_at = self._started_at[call_id] + deadline_age
            delay = max(0.0, fire_at - self.sim.now)
            # Claim the backup slot now so re-entry cannot double-launch.
            self._backups_launched[call_id] += 1
            self.sim.timeout(delay).add_callback(
                lambda _event, call_id=call_id: self._fire_backup(call_id)
            )

    def _fire_backup(self, call_id: int) -> None:
        if self._settles[call_id].triggered:
            return  # finished while the backup timer was pending
        self.speculative_launches += 1
        self.executor.speculative_launches += 1
        # Hand the backup its live siblings' attempt spans so the trace
        # carries bidirectional links between the racing attempts (a
        # sibling still queueing has no span yet — links are best-effort).
        siblings = []
        tracer = self.sim.tracer
        for handle in self._attempts[call_id]:
            if handle.activation_id is None:
                continue
            sibling = tracer.attempt_span(handle.activation_id)
            if sibling is not None:
                siblings.append(sibling)
        self._launch_attempt(call_id, link_spans=siblings)
