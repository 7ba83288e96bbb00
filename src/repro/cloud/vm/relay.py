"""In-memory partition relay hosted on a provisioned VM.

The third data-exchange substrate of the comparison: a plain virtual
server instance running a small in-memory rendezvous server.  Mappers
PUSH their partitions to it over the network, reducers PULL their range
— intermediate data never touches object storage and never pays the
cache service's per-node pricing; what it pays instead is exactly what
the paper's hybrid pipeline pays (Table 1): **provisioning latency**
before the relay accepts traffic and **per-second VM billing** from
provision to terminate.

Modeling choices:

* **single fat node** — the relay is scale-up, not scale-out: one VM,
  one NIC.  All concurrent PUSH/PULL flows share the instance NIC via
  max-min fair sharing, so the relay's bandwidth ceiling is the
  instance's line rate (pick a bigger flavour to raise it);
* **near-LAN request latency** — one in-VPC TCP round trip per request
  batch (``VmProfile.relay_request_latency``), far below object-storage
  first-byte latency;
* **bounded memory with backpressure** — partitions live in instance
  memory.  A PUSH that does not fit *waits* until readers consume space
  (the TCP-flow-control behaviour of a real relay), instead of failing
  like the cache's ``noeviction`` mode; only a partition that can never
  fit raises :class:`~repro.cloud.vm.errors.RelayCapacityExceeded`;
* **per-second billing** — the relay's cost *is* its VM's cost
  (instance seconds + boot volume), billed on terminate.

Workers resolve relays by id through their contexts
(:meth:`~repro.cloud.faas.context.FunctionContext.relay`), mirroring the
cache's ``ctx.kv`` accessor.

Fault handling — attempt-scoped transfers:

Every request carries the issuing activation's *attempt id* and every
in-flight PUSH holds an attempt-tagged :class:`_PushReservation`.  When
the FaaS platform kills an activation (crash, timeout, lost speculative
race) it calls :meth:`PartitionRelay.cancel_attempt`, which aborts the
attempt's transfers mid-flow, releases every reserved-but-uncommitted
byte immediately, and *fences* the attempt id so a straggling request
from the zombie is rejected with
:class:`~repro.cloud.vm.errors.RelayAttemptFenced`.  A replacing PUSH
is an **atomic swap**: the old value stays resident and pullable for
the whole transfer and is exchanged for the new one in a single step at
commit — a concurrent reducer can never observe the key absent, and a
cancelled replacement leaves the old value exactly as it was.  Memory
admission credits the bytes of the entries being replaced, so a retried
mapper re-pushing its batch never demands old+new bytes at once and
cannot deadlock a full relay.  This is what makes crash-retry and
speculation safe on the relay substrate.
"""

from __future__ import annotations

import collections
import typing as t

from repro.cas import ContentIndex, Resident, sha256_hex
from repro.cloud.vm.errors import (
    RelayAttemptFenced,
    RelayCapacityExceeded,
    RelayKeyMissing,
    VmNotRunning,
)
from repro.cloud.vm.instance import VirtualMachine, VmService
from repro.errors import SimulationError
from repro.obs.metrics import publish_dedup_bytes, registry as metrics_registry
from repro.obs.trace import NOOP_SPAN
from repro.sim import FairShareLink, KeyedWatch, SimEvent, TokenBucket


#: Lifecycle of a push reservation.  ``waiting`` → queued for memory;
#: ``reserved`` → bytes admitted, transfer may be in flight;
#: ``committed`` → entries swapped in (terminal); ``aborted`` → reclaimed
#: (terminal).
_WAITING, _RESERVED, _COMMITTED, _ABORTED = "waiting", "reserved", "committed", "aborted"


class _PushReservation:
    """One in-flight (M)PUSH: attempt-tagged memory custody until commit.

    ``extra`` is what admission actually reserved on top of the *credit*
    — the bytes of the resident entries the push replaces, which stay
    readable until the atomic swap at commit.  ``absorbed`` collects the
    bytes of replaced entries that a concurrent consume/delete removed
    mid-transfer: their memory stays reserved here (the incoming payload
    needs it anyway) instead of being released and re-granted.
    """

    __slots__ = (
        "keys",
        "resident_total",
        "extra",
        "absorbed",
        "attempt",
        "state",
        "admission_event",
        "transfer_event",
    )

    def __init__(
        self,
        keys: list[str],
        resident_total: float,
        extra: float,
        attempt: str | None,
        admission_event: SimEvent,
    ):
        self.keys = keys
        self.resident_total = resident_total
        self.extra = extra
        self.absorbed = 0.0
        self.attempt = attempt
        self.state = _WAITING
        self.admission_event = admission_event
        self.transfer_event: SimEvent | None = None

    @property
    def held_bytes(self) -> float:
        """Bytes of relay memory this reservation currently holds."""
        held = self.absorbed
        if self.state == _RESERVED:
            held += self.extra
        return held


class RelayStats:
    """Per-relay counters exposed for planners, reports and tests."""

    def __init__(self) -> None:
        self.pushes = 0
        self.pulls = 0
        self.misses = 0
        self.backpressure_waits = 0
        #: PULLs that arrived before their key and parked on the commit
        #: notification (the streaming shuffle's rendezvous reads).
        self.rendezvous_waits = 0
        self.cancelled_transfers = 0
        self.fenced_requests = 0
        #: Consuming reads granted as leases (entry retained until commit).
        self.consume_leases = 0
        #: Leased entries actually removed by a committing attempt.
        self.lease_commits = 0
        #: Leased entries reinstated because the attempt died/fenced.
        self.lease_reinstatements = 0
        self.bytes_in = 0.0  # logical bytes pushed (stored)
        self.bytes_out = 0.0  # logical bytes served to pullers
        self.reclaimed_bytes = 0.0  # logical bytes reclaimed from dead attempts
        #: MPUSH items that rode as content-key references because the
        #: rendezvous already held byte-identical data.
        self.dedup_hits = 0
        self.dedup_bytes = 0.0  # logical wire bytes those references skipped

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


class PartitionRelay:
    """One relay server: bounded in-memory store + NIC + request models."""

    def __init__(self, service: VmService, vm: VirtualMachine):
        self.service = service
        self.sim = service.sim
        self.vm = vm
        self.relay_id = f"relay-{vm.vm_id}"
        vm.span.set(relay=self.relay_id)
        profile = service.profile
        #: Logical bytes of partitions the relay may hold at once.
        self.capacity_bytes = profile.relay_usable_bytes(vm.instance_type)
        self.used_logical = 0.0
        self.peak_used_logical = 0.0
        self._entries: dict[str, Resident] = {}
        #: FIFO of pushes waiting for memory admission.
        self._waiters: collections.deque[_PushReservation] = collections.deque()
        #: Every live (waiting/reserved) push reservation.
        self._reservations: set[_PushReservation] = set()
        #: Live reservations per attempt id, for cancel-and-reclaim.
        self._attempt_reservations: dict[str, set[_PushReservation]] = {}
        #: The latest in-flight replacing push per key (atomic swap).
        self._pending_swaps: dict[str, _PushReservation] = {}
        #: Rendezvous watchers: pullers parked until a key commits.
        self._key_watchers = KeyedWatch(self.sim, name=f"{self.relay_id}.watch")
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
        self._attempt_scopes: dict[str, str] = {}
        self._scope_attempts: dict[str, set[str]] = {}
        self._fenced_scopes: set[str] = set()
        #: Content held and committed.  Only affects *wire* accounting
        #: (an MPUSH of resident content transfers a reference, not the
        #: payload); reservation and memory byte math stay exact, so the
        #: chaos suites' residual/accounting invariants are untouched.
        self.content = ContentIndex()
        #: Open peak-tracking epochs: token → max ``used_logical`` seen
        #: since the epoch began (concurrent jobs each get their own).
        self._peak_epochs: dict[int, float] = {}
        self._peak_epoch_seq = 0
        self.ops = TokenBucket(
            self.sim,
            rate=profile.relay_ops_per_second,
            capacity=profile.relay_ops_burst,
            name=f"{self.relay_id}.ops",
        )
        #: The instance NIC; every PUSH and PULL flow contends here.
        self.link = FairShareLink(
            self.sim, capacity=vm.instance_type.nic_bandwidth, name=f"{self.relay_id}.nic"
        )
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
        :meth:`cancel_attempt` can reclaim them; ``owner`` (a
        :class:`~repro.cloud.faas.context.FunctionContext`) additionally
        tracks the client's request processes so a killed activation's
        transfers are interrupted instead of draining as orphans.
        Driver-side clients pass neither and are never fenced.

        ``scope`` labels the attempt with a tenant/job scope: a later
        :meth:`cancel_scope` reclaims and fences exactly the attempts
        bound under that label.  Binding into an already-cancelled scope
        fences the attempt immediately (a zombie activation of a
        cancelled job must not start fresh traffic).
        """
        self._bind_scope(attempt_id, scope)
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
        self._key_watchers.fail_all(
            lambda _key: VmNotRunning(self.vm.vm_id, self.vm.state)
        )
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
        reg.counter(
            "repro_relay_bytes_in_total", "Logical bytes pushed to relays"
        ).inc(self.stats.bytes_in, type=kind)
        reg.counter(
            "repro_relay_bytes_out_total", "Logical bytes served by relays"
        ).inc(self.stats.bytes_out, type=kind)
        reg.counter(
            "repro_relay_backpressure_waits_total",
            "Pushes parked on relay admission",
        ).inc(self.stats.backpressure_waits, type=kind)
        reg.counter(
            "repro_relay_rendezvous_waits_total",
            "Pulls parked on unpublished keys",
        ).inc(self.stats.rendezvous_waits, type=kind)
        reg.counter(
            "repro_relay_lease_commits_total", "Consume leases finalized"
        ).inc(self.stats.lease_commits, type=kind)
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
    def _bind_scope(self, attempt_id: str | None, scope: str | None) -> None:
        if attempt_id is None or scope is None:
            return
        self._attempt_scopes[attempt_id] = scope
        self._scope_attempts.setdefault(scope, set()).add(attempt_id)
        if scope in self._fenced_scopes:
            self._fenced.add(attempt_id)

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
        reservation = _PushReservation(keys, resident_total, extra, attempt, event)
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

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Dedup-eligible committed pushes whose key starts with ``prefix``."""
        return self.content.entries(prefix)

    def _commit_push(
        self,
        reservation: _PushReservation,
        items: t.Sequence[tuple[str, bytes]],
        logicals: t.Sequence[float],
        shas: t.Sequence[str | None] | None = None,
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
        if shas is None:
            shas = [None] * len(items)
        resident: dict[str, tuple[bytes, float, str | None]] = {}
        for (key, data), logical, sha in zip(items, logicals, shas):
            resident[key] = (data, logical, sha)  # duplicate keys: last wins
        actual_old = 0.0
        for key in resident:
            previous = self._entries.pop(key, None)
            if previous is not None:
                actual_old += previous.logical
                self.content.drop(previous.sha)
        for key, (data, logical, sha) in resident.items():
            self._entries[key] = Resident(bytes(data), logical, sha)
            self.content.add(sha)
            if sha is not None:
                self.content.record(key, sha, logical)
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
            self._notify_key(key)

    # ------------------------------------------------------------------
    # rendezvous (blocking pulls for the streaming exchange)
    # ------------------------------------------------------------------
    def _watch_key(self, key: str) -> SimEvent:
        """An event that succeeds the next time ``key`` commits."""
        return self._key_watchers.watch(key)

    def _unwatch_key(self, key: str, event: SimEvent) -> None:
        self._key_watchers.unwatch(key, event)

    def _notify_key(self, key: str) -> None:
        self._key_watchers.notify(key)

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
    def _entry_removed(self, key: str, logical: float) -> float:
        """Bytes to release for a consumed/deleted entry.

        If a replacing push is in flight for ``key``, the bytes are
        absorbed into its reservation instead (the incoming payload
        needs them anyway) — released only if that push later aborts.
        """
        swap = self._pending_swaps.get(key)
        if swap is not None and swap.state in (_WAITING, _RESERVED):
            swap.absorbed += logical
            return 0.0
        return logical

    def _lookup(self, key: str) -> Resident:
        """Resolve ``key`` or raise, counting the miss.  No pull stats:
        those are recorded only once the transfer actually happened."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            raise RelayKeyMissing(key)
        return entry

    def _record_pulls(self, count: int, logical: float) -> None:
        self.stats.pulls += count
        self.stats.bytes_out += logical

    def _consume_entry(self, key: str) -> None:
        removed = self._entries.pop(key, None)
        if removed is not None:
            self.content.drop(removed.sha)
            release = self._entry_removed(key, removed.logical)
            if release > 0:
                self._release(release)

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
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return len(self._entries)

    def logical_size_of(self, key: str) -> float | None:
        """Logical bytes of the resident entry under ``key`` (or None).

        A cheap metadata peek for planners and the fleet client's
        bandwidth weighting; does not count as a pull or a miss.
        """
        entry = self._entries.get(key)
        return entry.logical if entry is not None else None

    @property
    def fill_fraction(self) -> float:
        """Reserved capacity as a fraction of usable memory (0..1)."""
        return self.used_logical / self.capacity_bytes

    @property
    def peak_fill_fraction(self) -> float:
        return self.peak_used_logical / self.capacity_bytes

    # ------------------------------------------------------------------
    # epoch-scoped peak tracking (concurrent jobs on a shared relay)
    # ------------------------------------------------------------------
    def begin_peak_epoch(self) -> int:
        """Open a peak-tracking epoch; returns an opaque token.

        Each open epoch tracks its own ``max(used_logical)`` from this
        moment, so any number of concurrent jobs can measure their own
        peaks without resetting each other.
        """
        self._peak_epoch_seq += 1
        token = self._peak_epoch_seq
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


class RelayClient:
    """Request interface to one relay; all methods return SimEvents.

    ``connection_bandwidth`` caps this client's transfer rate (the
    caller's NIC); ``None`` means only the relay's own NIC bounds it.
    Batched MPUSH/MPULL pay *one* request latency for the whole batch —
    there is a single server, so pipelining is even cheaper than the
    cache's one-latency-per-node-touched.

    A worker-side client is bound to its activation: requests are tagged
    with ``attempt_id`` (reservations become reclaimable, fenced
    attempts are rejected) and request processes register with ``owner``
    so the platform's kill interrupts them mid-flight.  Every operation
    body cleans up after an interrupt — queued tokens are withdrawn,
    in-flight flows aborted, reservations released — so a killed attempt
    leaves the relay exactly as if its request had never arrived.
    """

    def __init__(
        self,
        relay: PartitionRelay,
        connection_bandwidth: float | None,
        attempt_id: str | None = None,
        owner=None,
    ):
        self.relay = relay
        self.sim = relay.sim
        self.connection_bandwidth = connection_bandwidth
        self.attempt_id = attempt_id
        self.owner = owner
        self._profile = relay.service.profile
        self._scale = relay.service.logical_scale

    # ------------------------------------------------------------------
    # single-key operations
    # ------------------------------------------------------------------
    def push(self, key: str, data: bytes, logical_size: float | None = None) -> SimEvent:
        """Store ``key``; event → ``None``.  Waits under backpressure."""
        span = self._span()
        if span.recording:
            span.event("relay.push", relay=self.relay.relay_id, key=key)
        sizes = None if logical_size is None else [logical_size]
        return self._spawn(
            self._store_op([(key, data)], sizes, batched=False), f"push:{key}"
        )

    def pull_wait(self, key: str) -> SimEvent:
        """Fetch ``key``, *waiting* until it is published; event → ``bytes``.

        The relay's natural rendezvous semantics: where :meth:`mpull`
        fails an absent key with
        :class:`~repro.cloud.vm.errors.RelayKeyMissing`, this parks the
        reader on the key's commit notification — the primitive the
        streaming shuffle's reducers use to consume partitions while
        mappers are still producing.  Never consumes (a rendezvous read
        must stay idempotent under crash-retry and speculation).
        """
        span = self._span()
        if span.recording:
            span.event("relay.pull_wait", relay=self.relay.relay_id, key=key)
        return self._spawn(self._pull_wait_op(key), f"pull_wait:{key}")

    # ------------------------------------------------------------------
    # batched (pipelined) operations
    # ------------------------------------------------------------------
    def mpush(
        self,
        items: t.Sequence[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None = None,
    ) -> SimEvent:
        """Store many keys over one connection; event → ``None``."""
        span = self._span()
        if span.recording:
            span.event(
                "relay.mpush", relay=self.relay.relay_id, keys=len(items)
            )
        return self._spawn(
            self._store_op(list(items), logical_sizes, batched=True), "mpush"
        )

    def mpull(self, keys: t.Sequence[str], consume: bool = False) -> SimEvent:
        """Fetch many keys over one connection; event → payload list.

        Payloads come back in input-key order.  Fails with
        :class:`~repro.cloud.vm.errors.RelayKeyMissing` naming the first
        absent key — before anything is consumed, so a failed batch
        neither loses data nor leaks reserved memory.
        """
        span = self._span()
        if span.recording:
            span.event(
                "relay.mpull",
                relay=self.relay.relay_id, keys=len(keys), consume=consume,
            )
        return self._spawn(self._mpull_op(list(keys), consume), "mpull")

    def _span(self):
        """The owning attempt's span (noop for driver-side clients).

        ``owner`` only promises ``track()``; spanless owners (bare
        process trackers) fall back to the no-op span.
        """
        span = getattr(self.owner, "span", None)
        if span is not None:
            return span
        return NOOP_SPAN

    def _spawn(self, generator: t.Generator, label: str) -> SimEvent:
        process = self.sim.process(
            generator, name=f"{self.relay.relay_id}.{label}"
        )
        if self.owner is not None:
            self.owner.track(process)
        return process.completion

    # ------------------------------------------------------------------
    # operation bodies
    # ------------------------------------------------------------------
    def _logical(self, data: bytes, logical_size: float | None) -> float:
        if logical_size is not None:
            return logical_size
        return len(data) * self._scale

    def _latency(self) -> float:
        return self._profile.relay_request_latency.sample(self.relay._rng)

    def _consume_ops(self, amount: float) -> t.Generator:
        """Take ``amount`` rate-limit tokens, in bucket-sized chunks.

        Withdraws the pending request from the bucket if the op is
        interrupted mid-wait, so a dead attempt neither burns tokens nor
        stalls the FIFO behind a ghost.
        """
        remaining = amount
        while remaining > 0:
            take = min(remaining, self.relay.ops.capacity)
            pending = self.relay.ops.consume(take)
            try:
                yield pending
            except BaseException:
                self.relay.ops.cancel(pending)
                raise
            remaining -= take

    def _flow_cap(self) -> float | None:
        return self.connection_bandwidth

    def _transfer(self, logical: float) -> SimEvent:
        return self.relay.link.transfer(logical, self._flow_cap())

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
        self.relay.ensure_running()
        self.relay._check_fence(self.attempt_id)
        if not items:
            return None
        if logical_sizes is not None and len(logical_sizes) != len(items):
            raise SimulationError(
                f"{'mpush' if batched else 'push'}: logical_sizes length "
                "does not match items"
            )
        reservation: _PushReservation | None = None
        transfer: SimEvent | None = None
        try:
            yield from self._consume_ops(float(len(items)))
            yield self.sim.timeout(self._latency())
            logicals = [
                logical_sizes[index]
                if logical_sizes is not None
                else self._logical(data, None)
                for index, (_key, data) in enumerate(items)
            ]
            resident_total = sum(
                {key: logical for (key, _d), logical in zip(items, logicals)}.values()
            )
            if resident_total > self.relay.capacity_bytes:
                raise RelayCapacityExceeded(
                    self.relay.relay_id, resident_total, self.relay.capacity_bytes
                )
            reservation = self.relay._begin_push(
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
                if sha is not None and self.relay.content.resident(sha)
            ]
            skipped = sum(logicals[index] for index in referenced)
            total = sum(logicals)
            if total - skipped > 0:
                transfer = self._transfer(total - skipped)
                reservation.transfer_event = transfer
                yield transfer
                reservation.transfer_event = None
                transfer = None
            if referenced:
                # Referents may have been consumed while the rest of the
                # batch drained — re-send those payloads transparently.
                saved = 0.0
                missing = 0.0
                hits = 0
                for index in referenced:
                    if self.relay.content.resident(t.cast(str, shas[index])):
                        saved += logicals[index]
                        hits += 1
                    else:
                        missing += logicals[index]
                if missing > 0:
                    transfer = self._transfer(missing)
                    reservation.transfer_event = transfer
                    yield transfer
                    reservation.transfer_event = None
                    transfer = None
                if hits:
                    self.relay.stats.dedup_hits += hits
                    self.relay.stats.dedup_bytes += saved
                    publish_dedup_bytes("relay", saved)
            self.relay._commit_push(reservation, items, logicals, shas)
            reservation = None
            return None
        except BaseException:
            if transfer is not None:
                self.relay.link.abort(transfer)
            if reservation is not None:
                self.relay._abort_push(reservation)
            raise

    def _pull_wait_op(self, key: str) -> t.Generator:
        self.relay.ensure_running()
        self.relay._check_fence(self.attempt_id)
        transfer: SimEvent | None = None
        try:
            yield from self._consume_ops(1.0)
            yield self.sim.timeout(self._latency())
            self.relay._check_fence(self.attempt_id)
            waited = False
            while True:
                entry = self.relay._entries.get(key)
                if entry is not None:
                    break
                if not waited:
                    waited = True
                    self.relay.stats.rendezvous_waits += 1
                    self.sim.tracer.attempt_event(
                        self.attempt_id, "relay.rendezvous_wait",
                        relay=self.relay.relay_id, key=key,
                    )
                watcher = self.relay._watch_key(key)
                try:
                    yield watcher
                except BaseException:
                    self.relay._unwatch_key(key, watcher)
                    raise
                # The attempt may have been fenced while parked; a zombie
                # must not read (and bill transfer time for) the winner's
                # data.
                self.relay._check_fence(self.attempt_id)
            if entry.logical > 0:
                transfer = self._transfer(entry.logical)
                yield transfer
                transfer = None
            self.relay._record_pulls(1, entry.logical)
            return entry.data
        except BaseException:
            if transfer is not None:
                self.relay.link.abort(transfer)
            raise

    def _mpull_op(self, keys: list[str], consume: bool) -> t.Generator:
        self.relay.ensure_running()
        self.relay._check_fence(self.attempt_id)
        if not keys:
            return []
        transfer: SimEvent | None = None
        try:
            yield from self._consume_ops(float(len(keys)))
            yield self.sim.timeout(self._latency())
            # Fence re-check: the attempt may have been cancelled while
            # this request was parked upstream; a consuming pull from a
            # zombie must not destroy the winner's partition.
            self.relay._check_fence(self.attempt_id)
            # Non-destructive lookups first: a missing key mid-batch must
            # fail the whole MPULL without having consumed (or counted as
            # served, or leaked the reservation of) the keys before it.
            entries = [self.relay._lookup(key) for key in keys]
            total = sum(entry.logical for entry in entries)
            if total > 0:
                transfer = self._transfer(total)
                yield transfer
                transfer = None
            # bytes_out counts logical bytes *served* (duplicate keys in the
            # batch transfer — and count — once per occurrence).
            self.relay._record_pulls(len(keys), total)
            if consume:
                for key in keys:  # duplicates in the batch lease/pop once
                    self.relay._consume_or_lease(key, self.attempt_id)
            return [entry.data for entry in entries]
        except BaseException:
            if transfer is not None:
                self.relay.link.abort(transfer)
            raise


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
