"""In-memory partition relay hosted on a provisioned VM.

The third data-exchange substrate of the comparison: a plain virtual
server instance running a small in-memory rendezvous server.  Mappers
PUSH their partitions to it, reducers PULL their range — intermediate
data never touches object storage and never pays the cache service's
per-node pricing; it pays what the paper's hybrid pipeline pays (Table
1): **provisioning latency** before the relay accepts traffic and
**per-second VM billing** (instance seconds + boot volume) from
provision to terminate.

The relay is the in-memory store core it shares with the cache node
(:mod:`repro.cloud.memstore.core`: entries, content index, watchers,
one in-VPC round trip per request batch, an ops bucket and the instance
NIC, which every flow shares max-min fairly) with the relay's rule for
a full node: a PUSH that does not fit *waits* until readers consume
space (the TCP flow control of a real relay) where the cache refuses
it; only a partition that can never fit raises
:class:`~repro.cloud.vm.errors.RelayCapacityExceeded`.

Fault handling is attempt-scoped.  Every in-flight PUSH holds an
attempt-tagged :class:`_PushReservation`; when the FaaS platform kills
an activation it calls :meth:`PartitionRelay.cancel_attempt`, which
aborts the attempt's transfers, releases its reserved bytes and
*fences* the attempt id against stragglers
(:class:`~repro.cloud.vm.errors.RelayAttemptFenced`).  A replacing PUSH
is an **atomic swap**: the old value stays pullable for the whole
transfer and is exchanged at commit, and admission credits its bytes,
so a retried mapper re-pushing its batch never demands old+new bytes at
once.  Consuming reads are leases, finalized when the attempt commits.
This is what makes crash-retry and speculation safe on the relay.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing as t

from repro.cas import sha256_hex
from repro.cloud.memstore.core import MemoryStore, StoreClient, StoreStats
from repro.cloud.vm.errors import (
    RelayAttemptFenced,
    RelayCapacityExceeded,
    RelayKeyMissing,
    VmNotRunning,
)
from repro.cloud.vm.instance import VirtualMachine, VmService
from repro.errors import SimulationError
from repro.obs.metrics import publish_dedup_bytes, registry as metrics_registry
from repro.sim import SimEvent


#: Lifecycle of a push reservation.  ``waiting`` → queued for memory;
#: ``reserved`` → bytes admitted, transfer may be in flight;
#: ``committed`` → entries swapped in (terminal); ``aborted`` → reclaimed
#: (terminal).
_WAITING, _RESERVED, _COMMITTED, _ABORTED = "waiting", "reserved", "committed", "aborted"


@dataclasses.dataclass(eq=False, slots=True)
class _PushReservation:
    """One in-flight (M)PUSH: attempt-tagged memory custody until commit.

    ``extra`` is what admission actually reserved on top of the *credit*
    — the bytes of the resident entries the push replaces, which stay
    readable until the atomic swap at commit.  ``absorbed`` collects the
    bytes of replaced entries that a concurrent consume/delete removed
    mid-transfer: their memory stays reserved here (the incoming payload
    needs it anyway) instead of being released and re-granted.
    """

    keys: list[str]
    extra: float
    attempt: str | None
    admission_event: SimEvent
    absorbed: float = 0.0
    state: str = _WAITING
    transfer_event: SimEvent | None = None

    @property
    def held_bytes(self) -> float:
        """Bytes of relay memory this reservation currently holds."""
        return self.absorbed + (self.extra if self.state == _RESERVED else 0.0)


class RelayStats(StoreStats):
    """Per-relay counters exposed for planners, reports and tests."""

    def __init__(self) -> None:
        super().__init__()
        self.pushes = 0
        self.pulls = 0
        self.backpressure_waits = 0
        self.cancelled_transfers = 0
        self.fenced_requests = 0
        #: Consuming reads granted as leases (entry retained until commit).
        self.consume_leases = 0
        #: Leased entries actually removed by a committing attempt.
        self.lease_commits = 0
        #: Leased entries reinstated because the attempt died/fenced.
        self.lease_reinstatements = 0
        self.reclaimed_bytes = 0.0  # logical bytes reclaimed from dead attempts


class PartitionRelay(MemoryStore):
    """One relay server: the store core, making a push wait when full."""

    key_missing = RelayKeyMissing
    reads_counter = "pulls"

    def __init__(self, service: VmService, vm: VirtualMachine):
        relay_id = f"relay-{vm.vm_id}"
        profile = service.profile
        super().__init__(
            service.sim,
            relay_id,
            capacity_bytes=profile.relay_usable_bytes(vm.instance_type),
            ops_per_second=profile.relay_ops_per_second,
            ops_burst=profile.relay_ops_burst,
            nic_bandwidth=vm.instance_type.nic_bandwidth,
        )
        self.service = service
        self.vm = vm
        self.relay_id = relay_id
        vm.span.set(relay=self.relay_id)
        self.peak_used_logical = 0.0
        #: FIFO of pushes waiting for memory admission.
        self._waiters: collections.deque[_PushReservation] = collections.deque()
        #: Every live (waiting/reserved) push reservation.
        self._reservations: set[_PushReservation] = set()
        #: Live reservations per attempt id, for cancel-and-reclaim.
        self._attempt_reservations: dict[str, set[_PushReservation]] = {}
        #: The latest in-flight replacing push per key (atomic swap).
        self._pending_swaps: dict[str, _PushReservation] = {}
        #: Attempt ids whose requests are rejected (cancelled attempts).
        self._fenced: set[str] = set()
        #: Consume leases: attempt id → keys it read destructively.  The
        #: entries stay resident until the attempt *commits* (the FaaS
        #: platform calls :meth:`commit_attempt` on handler success), so a
        #: reducer that dies mid-consume loses nothing — its retry finds
        #: every key exactly where it was.
        self._attempt_consume_leases: dict[str, set[str]] = {}
        #: Tenant/job scopes: every attempt may carry one scope label, so
        #: a service can cancel *exactly* one tenant's attempts
        #: (:meth:`cancel_scope`) without touching anyone else's.
        self._scope_attempts: dict[str, set[str]] = {}
        self._fenced_scopes: set[str] = set()
        #: Open peak-tracking epochs: token → max ``used_logical`` seen
        #: since the epoch began (concurrent jobs each get their own).
        self._peak_epochs: dict[int, float] = {}
        self._peak_epoch_tokens = itertools.count(1)
        self.stats = RelayStats()
        self._rng = self.sim.rng.stream(f"{self.relay_id}.request")
        service.relays[self.relay_id] = self

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self.vm.state

    @property
    def instance_type(self):
        return self.vm.instance_type

    @property
    def instance_type_name(self) -> str:
        return self.vm.instance_type.name

    @property
    def shard_count(self) -> int:
        """A single relay is a one-shard fleet to substrate-generic code."""
        return 1

    @property
    def active_flows(self) -> int:
        """Flows currently draining this relay's NIC."""
        return self.link.active_flows

    def ensure_running(self) -> None:
        self.vm.ensure_running()

    def client(
        self,
        connection_bandwidth: float | None = None,
        attempt_id: str | None = None,
        owner=None,
        scope: str | None = None,
    ) -> "RelayClient":
        """A request client, optionally capped by the caller's NIC.

        ``attempt_id`` tags every reservation the client takes so
        :meth:`cancel_attempt` can reclaim them; ``owner`` tracks its
        request processes (:class:`~repro.cloud.memstore.core.StoreClient`).
        Driver-side clients pass neither and are never fenced.

        ``scope`` labels the attempt with a tenant/job scope: a later
        :meth:`cancel_scope` reclaims and fences exactly the attempts
        bound under that label.  Binding into an already-cancelled scope
        fences the attempt immediately (a zombie activation of a
        cancelled job must not start fresh traffic).
        """
        if attempt_id is not None and scope is not None:
            self._scope_attempts.setdefault(scope, set()).add(attempt_id)
            if scope in self._fenced_scopes:
                self._fenced.add(attempt_id)
        return RelayClient(self, connection_bandwidth, attempt_id, owner)

    def terminate(self) -> None:
        """Stop the relay and bill its VM's lifetime.

        Drops the resident partitions (the VM's memory is gone), aborts
        any in-flight reservations, and deregisters the relay id, so
        stale worker payloads resolve to
        :class:`~repro.cloud.vm.errors.UnknownRelay` instead of a dead
        relay and long-lived regions don't accumulate dead payloads.
        """
        self.vm.span.set(resident_keys=len(self._entries))
        self._publish_metrics()
        self.vm.terminate()
        for reservation in list(self._reservations):
            self._abort_push(reservation)
        # Rendezvous readers still parked on unpublished keys would wait
        # forever on a dead server; fail them with the same
        # infrastructure-level error every other operation on a dead
        # relay raises (not a data-level "key missing": the key may well
        # have been about to arrive).
        self.fail_watchers(lambda: VmNotRunning(self.vm.vm_id, self.vm.state))
        self._entries.clear()
        self.content.clear()
        self._waiters.clear()
        self._pending_swaps.clear()
        self._attempt_consume_leases.clear()
        self._peak_epochs.clear()
        self.used_logical = 0.0
        self.service.relays.pop(self.relay_id, None)

    def event(self, name: str, **attrs) -> None:
        """Point event on the relay VM's lifetime span, while it is open."""
        span = self.vm.span
        if span.recording and not span.ended:
            span.event(name, **attrs)

    def _publish_metrics(self) -> None:
        """Fold this relay's lifetime counters into the metrics registry.

        Called once at terminate (relay ids are unique per run, so
        counter increments never double-count); pure dict bookkeeping.
        """
        reg = metrics_registry()
        kind = self.vm.instance_type.name
        stats = self.stats
        for name, help_text, value in (
            ("repro_relay_bytes_in_total", "Logical bytes pushed to relays",
             stats.bytes_in),
            ("repro_relay_bytes_out_total", "Logical bytes served by relays",
             stats.bytes_out),
            ("repro_relay_backpressure_waits_total",
             "Pushes parked on relay admission", stats.backpressure_waits),
            ("repro_relay_rendezvous_waits_total",
             "Pulls parked on unpublished keys", stats.rendezvous_waits),
            ("repro_relay_lease_commits_total", "Consume leases finalized",
             stats.lease_commits),
        ):
            reg.counter(name, help_text).inc(value, type=kind)
        reg.gauge(
            "repro_relay_peak_fill_fraction", "Highest memory fill observed"
        ).max(self.peak_fill_fraction, type=kind)

    # ------------------------------------------------------------------
    # attempt-scoped cancellation
    # ------------------------------------------------------------------
    def cancel_attempt(self, attempt_id: str | None, fence: bool = True) -> float:
        """Reclaim a dead attempt's reservations; returns bytes reclaimed.

        Idempotent.  With ``fence`` (the default) the attempt id is also
        fenced: any later request it issues fails with
        :class:`~repro.cloud.vm.errors.RelayAttemptFenced`, so a zombie
        attempt that somehow keeps running cannot clobber the partitions
        of the attempt that replaced it.  Committed entries are *not*
        touched — data the attempt finished publishing stays valid (the
        exchange is idempotent by content).
        """
        if attempt_id is None:
            return 0.0
        if fence:
            self._fenced.add(attempt_id)
        reclaimed = 0.0
        for reservation in list(self._attempt_reservations.get(attempt_id, ())):
            reclaimed += self._abort_push(reservation)
        if reclaimed > 0:
            self.stats.reclaimed_bytes += reclaimed
        # Reinstate consume leases: the entries were never removed, so
        # "reinstatement" is simply forgetting the dead attempt's claim —
        # the retry will find every key resident.
        leases = self._attempt_consume_leases.pop(attempt_id, None)
        reinstated = len(leases) if leases else 0
        if reinstated:
            self.stats.lease_reinstatements += reinstated
        self.sim.tracer.attempt_event(
            attempt_id, "relay.attempt_cancelled",
            relay=self.relay_id, reclaimed=reclaimed,
            leases_reinstated=reinstated,
        )
        self.event(
            "relay.cancel_attempt", attempt=attempt_id, fence=fence,
            reclaimed=reclaimed, leases_reinstated=reinstated,
        )
        return reclaimed

    def commit_attempt(self, attempt_id: str | None) -> int:
        """Finalize an attempt's consume leases; returns entries removed.

        Called by the FaaS platform when the activation's handler returns
        successfully — only then do destructive reads actually destroy.
        An entry leased by several attempts (speculation) is removed by
        the first committer; later commits of the same key are no-ops.
        """
        if attempt_id is None:
            return 0
        leases = self._attempt_consume_leases.pop(attempt_id, None)
        if not leases:
            return 0
        removed = 0
        for key in leases:
            if key in self._entries:
                removed += 1
            self._consume_entry(key)
        self.stats.lease_commits += removed
        self.sim.tracer.attempt_event(
            attempt_id, "relay.lease_commit",
            relay=self.relay_id, consumed=removed,
        )
        return removed

    # ------------------------------------------------------------------
    # scope-level (tenant/job) cancellation
    # ------------------------------------------------------------------
    def cancel_scope(self, scope: str, fence: bool = True) -> float:
        """Reclaim and fence every attempt bound under ``scope``.

        The scope boundary is exact: only attempts that bound themselves
        with this scope label are touched, so one tenant's cancel storm
        can never reclaim another tenant's reservations or leases.  With
        ``fence`` the scope itself stays fenced — attempts that bind
        into it later are dead on arrival.
        """
        if fence:
            self._fenced_scopes.add(scope)
        reclaimed = 0.0
        for attempt_id in sorted(self._scope_attempts.get(scope, ())):
            reclaimed += self.cancel_attempt(attempt_id, fence=fence)
        self.event(
            "relay.cancel_scope", scope=scope, fence=fence, reclaimed=reclaimed
        )
        return reclaimed

    def scope_fenced(self, scope: str) -> bool:
        """Whether ``scope`` has been persistently fenced on this relay."""
        return scope in self._fenced_scopes

    def is_fenced(self, attempt_id: str | None) -> bool:
        return attempt_id is not None and attempt_id in self._fenced

    def _check_fence(self, attempt_id: str | None) -> None:
        if self.is_fenced(attempt_id):
            self.stats.fenced_requests += 1
            raise RelayAttemptFenced(self.relay_id, t.cast(str, attempt_id))

    def residual_reservation_bytes(self, attempt_id: str | None = None) -> float:
        """Bytes still held by in-flight reservations (one attempt or all).

        Zero after a job has settled means no attempt leaked memory —
        the invariant every chaos test asserts.
        """
        if attempt_id is not None:
            reservations = self._attempt_reservations.get(attempt_id, set())
        else:
            reservations = self._reservations
        return sum(reservation.held_bytes for reservation in reservations)

    @property
    def entry_bytes(self) -> float:
        """Logical bytes of committed (resident) partitions."""
        return sum(entry.logical for entry in self._entries.values())

    def check_memory_accounting(self) -> None:
        """Assert reserved memory == resident entries + in-flight holds.

        Cheap enough for tests to call after every chaos run; a drift
        means a cancellation path leaked or double-released.
        """
        expected = self.entry_bytes + self.residual_reservation_bytes()
        if abs(self.used_logical - expected) > 1e-6:
            raise SimulationError(
                f"{self.relay_id}: memory accounting drifted — used "
                f"{self.used_logical:.0f} != entries {self.entry_bytes:.0f} "
                f"+ in-flight {self.residual_reservation_bytes():.0f}"
            )

    # ------------------------------------------------------------------
    # memory admission (backpressure) and the atomic-swap push protocol
    # ------------------------------------------------------------------
    def _begin_push(
        self, keys: list[str], resident_total: float, attempt: str | None
    ) -> _PushReservation:
        """Open a push: reserve ``resident_total`` minus the swap credit.

        The credit is the bytes of resident entries under ``keys``: they
        stay readable during the transfer and are exchanged atomically
        at commit, so only the *growth* needs admission.  A same-size
        re-push (the retried-mapper case) is admitted immediately even
        on a full relay.

        Re-checks the fence: an attempt cancelled while this push was
        still parked upstream (token bucket, request latency) has no
        reservation yet for :meth:`cancel_attempt` to abort, so the
        fence must stop it here, before it takes custody of memory.
        """
        self._check_fence(attempt)
        credit = sum(
            entry.logical
            for key in dict.fromkeys(keys)
            if (entry := self._entries.get(key)) is not None
        )
        extra = max(0.0, resident_total - credit)
        event = SimEvent(self.sim, name=f"{self.relay_id}.admit({extra:g}B)")
        reservation = _PushReservation(keys, extra, attempt, event)
        self._reservations.add(reservation)
        if attempt is not None:
            self._attempt_reservations.setdefault(attempt, set()).add(reservation)
        for key in keys:
            self._pending_swaps[key] = reservation
        if not self._waiters and self.used_logical + extra <= self.capacity_bytes:
            self._reserve(extra)
            reservation.state = _RESERVED
            event.succeed()
        else:
            self.stats.backpressure_waits += 1
            self.sim.tracer.attempt_event(
                attempt, "relay.backpressure_stall",
                relay=self.relay_id, bytes=extra,
                fill=round(self.fill_fraction, 4),
            )
            self._waiters.append(reservation)
        return reservation

    def _commit_push(
        self,
        reservation: _PushReservation,
        items: t.Sequence[tuple[str, bytes]],
        logicals: t.Sequence[float],
        shas: t.Sequence[str | None],
    ) -> None:
        """Atomically swap the pushed entries in and settle the books.

        Runs synchronously (no yields) after the transfer completed:
        readers observe either every old value or every new one, never a
        gap.  The settlement ``delta`` reconciles what this reservation
        holds (``extra`` + ``absorbed``) plus the entries it pops against
        what the new entries need; concurrent same-key swaps (a fenced
        race that slipped through) self-correct here because popped
        entries are credited at their *actual* size.
        """
        if reservation.state != _RESERVED:
            # Cancelled while the transfer drained (direct cancel_attempt
            # without a process interrupt): the memory is already
            # reclaimed, the data must not land.
            raise RelayAttemptFenced(self.relay_id, reservation.attempt or "?")
        resident: dict[str, tuple[bytes, float, str | None]] = {}
        for (key, data), logical, sha in zip(items, logicals, shas):
            resident[key] = (data, logical, sha)  # duplicate keys: last wins
        actual_old = 0.0
        for key in resident:
            previous = self._drop(key)
            if previous is not None:
                actual_old += previous.logical
        for key, (data, logical, sha) in resident.items():
            self._put(key, data, logical, sha)
        reservation.state = _COMMITTED
        resident_total = sum(logical for _data, logical, _sha in resident.values())
        delta = reservation.extra + reservation.absorbed + actual_old - resident_total
        self._unregister(reservation)
        self.stats.pushes += len(items)
        self.stats.bytes_in += sum(logicals)
        if delta > 0:
            self._release(delta)
        elif delta < 0:
            self._reserve(-delta)
        for key in resident:
            self._watchers.notify(key)

    def _abort_push(self, reservation: _PushReservation) -> float:
        """Reclaim an uncommitted push; returns the bytes released.

        Idempotent; safe from both the op process's own unwind (it was
        interrupted) and :meth:`cancel_attempt` (the process may already
        be gone).  A still-queued admission is failed so a pusher that
        was *not* interrupted unwinds instead of waiting forever.
        """
        if reservation.state in (_COMMITTED, _ABORTED):
            return 0.0
        was_waiting = reservation.state == _WAITING
        reclaimed = reservation.held_bytes
        reservation.state = _ABORTED
        if reservation.transfer_event is not None:
            transfer = reservation.transfer_event
            reservation.transfer_event = None
            self.link.abort(transfer)
            if not transfer.triggered:
                # A pusher that was not interrupted (direct cancel_attempt)
                # is still waiting on this flow: fail it so the op unwinds
                # instead of waiting forever on an aborted transfer.
                transfer.fail(
                    RelayAttemptFenced(self.relay_id, reservation.attempt or "?")
                )
        if was_waiting and not reservation.admission_event.triggered:
            reservation.admission_event.fail(
                RelayAttemptFenced(self.relay_id, reservation.attempt or "?")
            )
        self._unregister(reservation)
        self.stats.cancelled_transfers += 1
        if reclaimed > 0:
            self._release(reclaimed)
        elif was_waiting:
            # Nothing to release, but the head of the admission queue
            # may be this reservation: let followers move up.
            self._drain_waiters()
        return reclaimed

    def _unregister(self, reservation: _PushReservation) -> None:
        self._reservations.discard(reservation)
        if reservation.attempt is not None:
            attempt_set = self._attempt_reservations.get(reservation.attempt)
            if attempt_set is not None:
                attempt_set.discard(reservation)
                if not attempt_set:
                    del self._attempt_reservations[reservation.attempt]
        for key in reservation.keys:
            if self._pending_swaps.get(key) is reservation:
                del self._pending_swaps[key]

    def _reserve(self, logical: float) -> None:
        self.used_logical += logical
        self.peak_used_logical = max(self.peak_used_logical, self.used_logical)
        if self._peak_epochs:
            for token, peak in self._peak_epochs.items():
                if self.used_logical > peak:
                    self._peak_epochs[token] = self.used_logical

    def _release(self, logical: float) -> None:
        self.used_logical -= logical
        self._drain_waiters()

    def _drain_waiters(self) -> None:
        while self._waiters:
            head = self._waiters[0]
            if head.state == _ABORTED:
                self._waiters.popleft()
                continue
            if self.used_logical + head.extra > self.capacity_bytes:
                break
            self._waiters.popleft()
            self._reserve(head.extra)
            head.state = _RESERVED
            head.admission_event.succeed()

    # ------------------------------------------------------------------
    # bookkeeping (synchronous; the client pays latency/bandwidth)
    # ------------------------------------------------------------------
    def _consume_entry(self, key: str) -> None:
        """Remove a consumed entry and release its bytes — unless a
        replacing push is in flight for ``key``: its reservation absorbs
        them (the incoming payload needs them anyway), released only if
        that push later aborts."""
        removed = self._drop(key)
        if removed is None:
            return
        swap = self._pending_swaps.get(key)
        if swap is not None and swap.state in (_WAITING, _RESERVED):
            swap.absorbed += removed.logical
        elif removed.logical > 0:
            self._release(removed.logical)

    def _consume_or_lease(self, key: str, attempt_id: str | None) -> None:
        """Destructive-read entry point for the pull paths.

        Driver-side clients (no attempt id) consume immediately — there
        is no retry to protect.  Worker attempts get a *lease* instead:
        the entry stays resident and pullable until the attempt commits
        (:meth:`commit_attempt`), so a crash or fence mid-consume
        reinstates it for the retry by simply dropping the lease.
        """
        if attempt_id is None:
            self._consume_entry(key)
            return
        leases = self._attempt_consume_leases.setdefault(attempt_id, set())
        if key not in leases:
            leases.add(key)
            self.stats.consume_leases += 1

    # ------------------------------------------------------------------
    # peak tracking, lifetime and epoch-scoped (concurrent jobs on a
    # shared relay)
    # ------------------------------------------------------------------
    @property
    def peak_fill_fraction(self) -> float:
        return self.peak_used_logical / self.capacity_bytes

    def begin_peak_epoch(self) -> int:
        """Open a peak-tracking epoch; returns an opaque token.

        Each open epoch tracks its own ``max(used_logical)`` from this
        moment, so any number of concurrent jobs can measure their own
        peaks without resetting each other.
        """
        token = next(self._peak_epoch_tokens)
        self._peak_epochs[token] = self.used_logical
        return token

    def peak_fill_since(self, token: int) -> float:
        """Peak fill fraction observed since ``begin_peak_epoch(token)``."""
        try:
            peak = self._peak_epochs[token]
        except KeyError:
            raise SimulationError(
                f"{self.relay_id}: unknown or closed peak epoch {token}"
            ) from None
        return peak / self.capacity_bytes

    def end_peak_epoch(self, token: int) -> float:
        """Close an epoch; returns its final peak fill fraction."""
        peak = self.peak_fill_since(token)
        del self._peak_epochs[token]
        return peak

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionRelay {self.relay_id} {self.vm.instance_type.name} "
            f"{self.state} keys={self.key_count} fill={self.fill_fraction:.1%}>"
        )


class RelayClient(StoreClient):
    """Request interface to one relay; all methods return SimEvents.

    ``connection_bandwidth`` caps this client's transfer rate (the
    caller's NIC); ``None`` means only the relay's own NIC bounds it.
    Batched MPUSH/MPULL pay *one* request latency for the whole batch —
    there is a single server, so pipelining is even cheaper than the
    cache's one-latency-per-node-touched.

    A worker-side client is bound to its activation: requests are tagged
    with ``attempt_id`` (reservations become reclaimable, fenced
    attempts are rejected), and an interrupted push also releases its
    reservation.
    """

    def __init__(
        self,
        relay: PartitionRelay,
        connection_bandwidth: float | None,
        attempt_id: str | None = None,
        owner=None,
    ):
        super().__init__(
            relay.sim, relay.relay_id, connection_bandwidth, owner,
            relay.service.logical_scale,
        )
        self.relay = relay
        self.attempt_id = attempt_id
        self._profile = relay.service.profile

    # ------------------------------------------------------------------
    # single-key operations
    # ------------------------------------------------------------------
    def push(self, key: str, data: bytes, logical_size: float | None = None) -> SimEvent:
        """Store ``key``; event → ``None``.  Waits under backpressure."""
        sizes = None if logical_size is None else [logical_size]
        return self._spawn(
            self._store_op([(key, data)], sizes, batched=False), f"push:{key}",
            "relay.push", relay=self.relay.relay_id, key=key,
        )

    def pull_wait(self, key: str) -> SimEvent:
        """Fetch ``key``, *waiting* until it is published; event → ``bytes``.

        The streaming shuffle's rendezvous read, where :meth:`mpull`
        fails an absent key with
        :class:`~repro.cloud.vm.errors.RelayKeyMissing`.  Never consumes
        (a rendezvous read must stay idempotent under crash-retry and
        speculation).
        """
        return self._spawn(
            self._pull_wait_op(key), f"pull_wait:{key}",
            "relay.pull_wait", relay=self.relay.relay_id, key=key,
        )

    # ------------------------------------------------------------------
    # batched (pipelined) operations
    # ------------------------------------------------------------------
    def mpush(
        self,
        items: t.Sequence[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None = None,
    ) -> SimEvent:
        """Store many keys over one connection; event → ``None``."""
        return self._spawn(
            self._store_op(list(items), logical_sizes, batched=True), "mpush",
            "relay.mpush", relay=self.relay.relay_id, keys=len(items),
        )

    def mpull(self, keys: t.Sequence[str], consume: bool = False) -> SimEvent:
        """Fetch many keys over one connection; event → payload list.

        Payloads come back in input-key order.  Fails with
        :class:`~repro.cloud.vm.errors.RelayKeyMissing` naming the first
        absent key — before anything is consumed, so a failed batch
        neither loses data nor leaks reserved memory.
        """
        return self._spawn(
            self._mpull_op(list(keys), consume), "mpull",
            "relay.mpull", relay=self.relay.relay_id, keys=len(keys), consume=consume,
        )

    # ------------------------------------------------------------------
    # operation bodies
    # ------------------------------------------------------------------
    def _read_latency(self) -> float:
        """One in-VPC round trip; a push pays the same as a pull."""
        return self._profile.relay_request_latency.sample(self.relay._rng)

    def _check_fence(self) -> None:
        self.relay._check_fence(self.attempt_id)

    def _parked(self, store: MemoryStore, key: str) -> None:
        self.sim.tracer.attempt_event(
            self.attempt_id, "relay.rendezvous_wait",
            relay=self.relay.relay_id, key=key,
        )

    def _store_op(
        self,
        items: list[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None,
        batched: bool,
    ) -> t.Generator:
        """Shared body of PUSH and MPUSH: admit → transfer → atomic swap.

        The batch is admitted as a whole (two concurrent MPUSHes that
        reserved item-by-item could each hold half their batch and
        deadlock waiting for the other), with resident entries under the
        same keys counted as credit — they stay pullable during the
        transfer and are swapped out atomically at commit.  The price of
        whole-batch admission is that a batch larger than usable memory
        is a hard RelayCapacityExceeded even when its items would fit
        one at a time — push those individually instead.  A rejected or
        cancelled (M)PUSH is side-effect-free: previous values survive
        untouched.
        """
        relay = self.relay
        relay.ensure_running()
        self._check_fence()
        if not items:
            return None
        logicals = self._logicals("mpush" if batched else "push", items, logical_sizes)
        reservation: _PushReservation | None = None
        try:
            yield from self._consume_ops(relay, float(len(items)))
            yield self.sim.timeout(self._read_latency())
            resident_total = sum(
                {key: logical for (key, _d), logical in zip(items, logicals)}.values()
            )
            if resident_total > relay.capacity_bytes:
                raise RelayCapacityExceeded(
                    relay.relay_id, resident_total, relay.capacity_bytes
                )
            reservation = relay._begin_push(
                [key for key, _data in items], resident_total, self.attempt_id
            )
            yield reservation.admission_event
            # Content dedup (wire only): items whose bytes the rendezvous
            # already holds ride as content-key references; reservation
            # and commit byte math stay exact either way.
            shas: list[str | None] = [
                sha256_hex(data) if data else None for _key, data in items
            ]
            referenced = [
                index
                for index, sha in enumerate(shas)
                if sha is not None and relay.content.resident(sha)
            ]
            skipped = sum(logicals[index] for index in referenced)
            total = sum(logicals)
            cap = self._flow_cap()
            yield from self._transfer(relay, total - skipped, cap, reservation)
            if referenced:
                # Referents may have been consumed while the rest of the
                # batch drained — re-send those payloads transparently.
                saved = 0.0
                missing = 0.0
                hits = 0
                for index in referenced:
                    if relay.content.resident(t.cast(str, shas[index])):
                        saved += logicals[index]
                        hits += 1
                    else:
                        missing += logicals[index]
                yield from self._transfer(relay, missing, cap, reservation)
                if hits:
                    relay.stats.dedup_hits += hits
                    relay.stats.dedup_bytes += saved
                    publish_dedup_bytes("relay", saved)
            relay._commit_push(reservation, items, logicals, shas)
            reservation = None
            return None
        except BaseException:
            if reservation is not None:
                relay._abort_push(reservation)
            raise

    def _pull_wait_op(self, key: str) -> t.Generator:
        self.relay.ensure_running()
        self._check_fence()
        return (yield from self._rendezvous_read(self.relay, key))

    def _mpull_op(self, keys: list[str], consume: bool) -> t.Generator:
        self.relay.ensure_running()
        self._check_fence()
        if not keys:
            return []
        payloads = yield from self._read_batch(self.relay, keys, self._flow_cap())
        if consume:
            for key in keys:  # duplicates in the batch lease/pop once
                self.relay._consume_or_lease(key, self.attempt_id)
        return payloads


# ----------------------------------------------------------------------
# lifecycle helpers
# ----------------------------------------------------------------------
def provision_relay(vms: VmService, type_name: str) -> SimEvent:
    """Provision a relay VM on the clock; event → running :class:`PartitionRelay`.

    Pays the full VM boot latency before the relay accepts traffic —
    the Table 1 provisioning penalty of anything VM-backed.
    """
    return vms.sim.process(
        _provision(vms, type_name), name=f"{vms.name}.relay.provision"
    ).completion


def _provision(vms: VmService, type_name: str) -> t.Generator:
    vm = yield vms.provision(type_name)
    return PartitionRelay(vms, vm)


def relay_ready(vms: VmService, type_name: str) -> PartitionRelay:
    """A relay that is already running (pre-provisioned, warm mode).

    Billing still starts now: the VM accrues instance-seconds from this
    call until :meth:`PartitionRelay.terminate`.
    """
    return PartitionRelay(vms, vms.provision_ready(type_name))
