"""Execution context handed to serverless function handlers.

Handlers are generator functions with the signature::

    def handler(ctx: FunctionContext, payload):
        data = yield ctx.storage.get("bucket", "key")
        yield ctx.compute(cpu_seconds_for(data))
        yield ctx.storage.put("bucket", "out", result)
        return summary

Everything a handler may legitimately touch goes through the context:
storage (bandwidth-bounded by the instance NIC), modeled compute time
(scaled by the memory-proportional CPU share), sleeps, and the RNG.

The context is also the activation's **cancellation scope**.  Every
activation is one *attempt* (``ctx.attempt_id``); sub-processes a
handler spawns through its clients (relay MPUSH flows, cache requests)
register here via :meth:`track`, and services register reclamation
callbacks via :meth:`on_cancel`.  When the platform kills the
activation — timeout, injected crash, or an explicit
:meth:`~repro.cloud.faas.platform.FaasPlatform.cancel` (a lost
speculative race) — it fires :meth:`cancel_resources`, which interrupts
every tracked sub-process and runs every reclamation callback.  That is
what makes crash-retry and speculation safe on stateful substrates: a
dead attempt's transfers stop draining and its reservations are
reclaimed instead of leaking.
"""

from __future__ import annotations

import typing as t

from repro.cloud.storageview import BoundStorage
from repro.obs.trace import NOOP_SPAN
from repro.sim import SimEvent, Simulator

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.faas.platform import FaasPlatform
    from repro.sim.process import Process


class FunctionContext:
    """Per-invocation view of the platform for a running handler."""

    def __init__(
        self,
        platform: "FaasPlatform",
        function_name: str,
        memory_mb: int,
        activation_id: str,
    ):
        self._platform = platform
        self.function_name = function_name
        self.memory_mb = memory_mb
        self.activation_id = activation_id
        #: The attempt identity threaded through every stateful service
        #: this activation touches.  Activation ids are globally unique,
        #: so each retry/backup invocation is a distinct attempt.
        self.attempt_id = activation_id
        self.sim: Simulator = platform.sim
        self._cancelled = False
        self._cancel_callbacks: list[t.Callable[[object], None]] = []
        self._commit_callbacks: list[t.Callable[[], None]] = []
        self._tracked: list["Process"] = []
        #: This attempt's span (see :mod:`repro.obs.trace`); the noop
        #: singleton when tracing is off, so clients can record events
        #: unconditionally.
        self.span = NOOP_SPAN
        #: Object-store client bounded by the function instance's NIC;
        #: retries transient 5xx-style failures like the real worker SDK
        #: does.
        self.storage = BoundStorage(
            platform.store,
            platform.profile.instance_bandwidth,
            name=f"{function_name}.{activation_id}.storage",
        )
        #: Fraction of a full vCPU this memory size buys.
        self.cpu_share = min(
            1.0, memory_mb / platform.profile.cpu_full_share_mb
        )
        #: Mirrors ``CloudProfile.logical_scale`` for workload cost models.
        self.logical_scale = platform.logical_scale

    def bind_span(self, span) -> None:
        """Attach this attempt's trace span; also hands it to storage."""
        self.span = span
        self.storage.span = span

    # ------------------------------------------------------------------
    # attempt-scoped cancellation
    # ------------------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        """Whether this activation's resources have been torn down."""
        return self._cancelled

    def track(self, process: "Process") -> "Process":
        """Register a sub-process this activation spawned.

        Tracked processes are interrupted when the activation is killed,
        so an orphaned transfer cannot keep draining after its owner is
        gone.  Returns the process for call-site chaining.
        """
        self._tracked.append(process)
        return process

    def on_cancel(self, callback: t.Callable[[object], None]) -> None:
        """Register a reclamation callback run when the activation dies.

        Callbacks run *after* tracked sub-processes were interrupted (so
        their local cleanup has already released what it could) and
        receive the cancellation cause.  A callback registered after
        cancellation runs immediately.
        """
        if self._cancelled:
            callback("already cancelled")
            return
        self._cancel_callbacks.append(callback)

    def cancel_resources(self, cause: object = None) -> None:
        """Tear down everything this activation registered.  Idempotent.

        Called by the platform on timeout, injected crash, and explicit
        cancellation; never by handlers themselves.
        """
        if self._cancelled:
            return
        self._cancelled = True
        for process in self._tracked:
            if process.interruptible:
                process.interrupt(cause=cause)
        self._tracked.clear()
        self._commit_callbacks.clear()
        callbacks, self._cancel_callbacks = self._cancel_callbacks, []
        for callback in callbacks:
            callback(cause)

    def on_commit(self, callback: t.Callable[[], None]) -> None:
        """Register a callback run when the activation *succeeds*.

        The success-side twin of :meth:`on_cancel`: services use it to
        finalize effects that must only become permanent once the handler
        has returned — e.g. the relay's consume leases, whose destructive
        reads are deferred until commit so a crashed reducer loses
        nothing.  Commit callbacks never run on a cancelled activation.
        """
        self._commit_callbacks.append(callback)

    def commit_resources(self) -> None:
        """Finalize registered effects after handler success.  Idempotent.

        Called by the platform exactly once, when the handler body
        returned without error and the activation won its race against
        timeout/crash/cancel; never by handlers themselves.
        """
        if self._cancelled:
            return
        callbacks, self._commit_callbacks = self._commit_callbacks, []
        for callback in callbacks:
            callback()

    # ------------------------------------------------------------------
    # effects for handlers to yield
    # ------------------------------------------------------------------
    def compute(self, cpu_seconds: float) -> SimEvent:
        """Charge ``cpu_seconds`` of single-core work at this instance's share.

        A handler that needs 2 s of full-core CPU on a half-share
        (1024 MB) instance waits 4 s of virtual time.
        """
        return self.sim.timeout(max(0.0, cpu_seconds) / self.cpu_share)

    def compute_bytes(self, real_bytes: float, throughput_bps: float) -> SimEvent:
        """Charge CPU for processing ``real_bytes`` of *real* data.

        The logical scale is applied here, so workload code can pass real
        buffer lengths and a full-core throughput in bytes/second.
        """
        cpu_seconds = (real_bytes * self.logical_scale) / throughput_bps
        return self.compute(cpu_seconds)

    def sleep(self, seconds: float) -> SimEvent:
        """Plain virtual-time sleep (not CPU-scaled)."""
        return self.sim.timeout(seconds)

    def rng(self, name: str):
        """Named deterministic RNG stream scoped to this function."""
        return self.sim.rng.stream(f"fn:{self.function_name}:{name}")

    def kv(self, cluster_id: str):
        """Cache client for ``cluster_id``, bounded by this instance's NIC.

        Worker payloads carry cluster *ids* (plain strings survive
        pickling); the handler resolves them here.  Raises
        :class:`~repro.errors.FaasError` when the region has no cache
        service attached.
        """
        if self._platform.memstore is None:
            from repro.errors import FaasError

            raise FaasError("this region has no memstore service attached")
        cluster = self._platform.memstore.cluster(cluster_id)
        return cluster.client(
            connection_bandwidth=self._platform.profile.instance_bandwidth,
            owner=self,
        )

    def relay(self, relay_id: str, scope: str | None = None):
        """Partition-relay client for ``relay_id``, bounded by this NIC.

        Worker payloads carry relay *ids* (plain strings survive
        pickling), resolved through the region's VM service — the relay
        is just software on a provisioned VM.  Raises
        :class:`~repro.errors.FaasError` when the region has no VM
        service attached.

        The client is bound to this activation's attempt: its requests
        are attempt-tagged on the relay, its transfer processes are
        tracked here, and when the activation dies the relay reclaims
        the attempt's reservations and fences the attempt id out; when
        the activation *succeeds* the relay finalizes the attempt's
        consume leases.  ``scope`` additionally labels the attempt with
        a tenant/job scope for service-level ``cancel_scope`` fencing.
        """
        if self._platform.vms is None:
            from repro.errors import FaasError

            raise FaasError("this region has no VM service attached")
        relay = self._platform.vms.relay(relay_id)
        # The hooks close over the attempt id, not over this context: a
        # context reachable from its own callback lists is a cycle that
        # keeps its storage view — and through it the whole region's
        # payloads — alive until a full collection.
        attempt_id = self.attempt_id
        self.on_cancel(lambda cause: relay.cancel_attempt(attempt_id))
        self.on_commit(lambda: relay.commit_attempt(attempt_id))
        return relay.client(
            connection_bandwidth=self._platform.profile.instance_bandwidth,
            attempt_id=self.attempt_id,
            owner=self,
            scope=scope,
        )
