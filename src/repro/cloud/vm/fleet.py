"""Sharded multi-relay fleet: N partition relays behind one façade.

The single :class:`~repro.cloud.vm.relay.PartitionRelay` is scale-up:
one VM, one NIC.  That ceiling is exactly where the paper's comparison
gets interesting — at high worker counts the aggregate demand of W
function NICs exceeds one instance's line rate and the relay's flat
right flank bends up.  A :class:`RelayFleet` lifts the ceiling the way
the cache cluster does, but with plain VMs: N relay shards, each its
own instance (memory, NIC, token bucket), behind a façade that looks
exactly like one relay to the rest of the stack.

Design:

* **deterministic key routing** — every partition key maps to one shard
  via a stable hash (:meth:`RelayFleet.shard_for_key`, CRC-32 of the
  key bytes mod N); the same key always lands on the same shard, across
  mappers, reducers, retries and speculative attempts, so the exchange
  rendezvous works without any directory service.  An exchange may
  install a *router* over its own key namespace
  (:meth:`RelayFleet.set_router`): it overrides the hash for the keys
  under ``namespace/`` that it claims, and CRC routes every other key.
  The skew-aware exchange routes by planned partition bytes this way,
  and concurrent sorts on one fleet each route only their own keys;
* **batched fan-out** — a fleet client splits each MPUSH/MPULL batch by
  shard and issues the per-shard sub-batches *in parallel*, one request
  latency each; the caller's NIC budget is divided across the
  concurrent sub-flows so a worker never exceeds its own line rate
  while the fleet side aggregates N instance NICs;
* **fleet-wide cancellation and fencing** — ``cancel_attempt`` forwards
  to every shard, so the attempt-scoped chaos guarantees (reclaim,
  fencing, atomic swap, zero residual reservations) hold unchanged: a
  dead attempt's reservations are reclaimed on whichever shards they
  live, and the fence rejects its stragglers fleet-wide;
* **aggregate accounting** — capacity, fill, stats, residual
  reservations and the memory-accounting check all aggregate across
  shards; billing is simply the sum of the shard VMs' lifetimes.

The fleet registers under its own relay id, so worker payloads carry
one id and :meth:`~repro.cloud.faas.context.FunctionContext.relay`
resolves to the fleet transparently — the relay worker stages are
shared verbatim between the single-relay and sharded substrates.
"""

from __future__ import annotations

import typing as t
import zlib

from repro.cloud.vm.instance import VmService
from repro.cloud.vm.relay import PartitionRelay, RelayStats
from repro.errors import SimulationError
from repro.sim import SimEvent


class RelayFleet:
    """N partition-relay shards presented as one relay-compatible façade."""

    def __init__(self, service: VmService, shards: t.Sequence[PartitionRelay]):
        if not shards:
            raise SimulationError("a relay fleet needs at least one shard")
        self.service = service
        self.sim = service.sim
        self.shards: tuple[PartitionRelay, ...] = tuple(shards)
        self.relay_id = (
            f"fleet-{self.shards[0].vm.vm_id}x{len(self.shards)}"
        )
        #: Namespaced routers: key namespace → router, so concurrent
        #: sorts on a shared fleet each route their own keys without
        #: clobbering each other's rebalanced routing.
        self._routers: dict[str, t.Callable[[str], int | None]] = {}
        service.relays[self.relay_id] = self

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def set_router(
        self, router: t.Callable[[str], int | None] | None, namespace: str
    ) -> None:
        """Install (or clear, with ``None``) the router of one namespace.

        The router maps a key to a shard index, or ``None`` to fall back
        to the CRC hash.  It MUST be a pure function of the key: the
        rendezvous depends on writers, readers, retries and speculative
        attempts all resolving a key to the same shard.  Install it
        before any traffic of the exchange it routes (the skew-aware
        sort does so right after boundary selection, before the map
        wave).  Only keys under ``namespace + "/"`` consult it, so any
        number of concurrent sorts can each install their own routing
        on a shared fleet.
        """
        if router is None:
            self._routers.pop(namespace, None)
        else:
            self._routers[namespace] = router
        self.event(
            "relay.fleet_rebalance" if router is not None
            else "relay.fleet_rebalance_clear",
            fleet=self.relay_id, namespace=namespace,
        )

    def shard_index_for_key(self, key: str) -> int:
        """Stable shard index of ``key`` (router override, else CRC-32 mod N).

        Deliberately *not* Python's randomized ``hash``: routing must be
        identical across runs, retries and speculative attempts or the
        rendezvous breaks.  The router of the longest namespace the key
        lies under decides; a key under none, or one its router does
        not claim, is routed by CRC.
        """
        if self._routers:
            best: t.Callable[[str], int | None] | None = None
            best_length = -1
            for namespace, router in self._routers.items():
                if len(namespace) > best_length and key.startswith(namespace + "/"):
                    best, best_length = router, len(namespace)
            if best is not None:
                index = best(key)
                if index is not None:
                    return index % len(self.shards)
        return zlib.crc32(key.encode("utf-8")) % len(self.shards)

    def shard_for_key(self, key: str) -> PartitionRelay:
        return self.shards[self.shard_index_for_key(key)]

    # ------------------------------------------------------------------
    # relay-compatible façade
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def state(self) -> str:
        for shard in self.shards:
            if shard.state != "running":
                return shard.state
        return "running"

    @property
    def instance_type(self):
        return self.shards[0].vm.instance_type

    @property
    def instance_type_name(self) -> str:
        return self.shards[0].vm.instance_type.name

    @property
    def capacity_bytes(self) -> float:
        return sum(shard.capacity_bytes for shard in self.shards)

    @property
    def used_logical(self) -> float:
        return sum(shard.used_logical for shard in self.shards)

    @property
    def entry_bytes(self) -> float:
        return sum(shard.entry_bytes for shard in self.shards)

    @property
    def key_count(self) -> int:
        return sum(shard.key_count for shard in self.shards)

    @property
    def fill_fraction(self) -> float:
        return self.used_logical / self.capacity_bytes

    @property
    def peak_fill_fraction(self) -> float:
        """Peak fill of the *hottest* shard (imbalance shows up here)."""
        return max(shard.peak_fill_fraction for shard in self.shards)

    @property
    def active_flows(self) -> int:
        return sum(shard.active_flows for shard in self.shards)

    @property
    def stats(self) -> RelayStats:
        """Fleet-wide counters (sums of the shard counters)."""
        total = RelayStats()
        for shard in self.shards:
            for field, value in shard.stats.as_dict().items():
                setattr(total, field, getattr(total, field) + value)
        return total

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Dedup-eligible committed pushes whose key starts with
        ``prefix``, shard by shard (run manifests sort their chunks)."""
        return [entry for shard in self.shards for entry in shard.cas_entries(prefix)]

    # Epoch-scoped peaks: a fleet epoch is one token per shard; the
    # fleet-level peak is the hottest shard's epoch peak (imbalance
    # shows up there, same as :attr:`peak_fill_fraction`).
    def begin_peak_epoch(self) -> tuple[int, ...]:
        return tuple(shard.begin_peak_epoch() for shard in self.shards)

    def peak_fill_since(self, token: tuple[int, ...]) -> float:
        return max(
            shard.peak_fill_since(shard_token)
            for shard, shard_token in zip(self.shards, token)
        )

    def end_peak_epoch(self, token: tuple[int, ...]) -> float:
        return max(
            shard.end_peak_epoch(shard_token)
            for shard, shard_token in zip(self.shards, token)
        )

    def ensure_running(self) -> None:
        for shard in self.shards:
            shard.ensure_running()

    def terminate(self) -> None:
        """Terminate every shard still running and deregister the fleet."""
        for shard in self.shards:
            if shard.state != "terminated":
                shard.terminate()
        self.service.relays.pop(self.relay_id, None)

    def event(self, name: str, **attrs) -> None:
        """Point event on every open shard VM's lifetime span."""
        for shard in self.shards:
            shard.event(name, **attrs)

    # ------------------------------------------------------------------
    # attempt-scoped cancellation (fleet-wide)
    # ------------------------------------------------------------------
    def cancel_attempt(self, attempt_id: str | None, fence: bool = True) -> float:
        """Reclaim and fence an attempt on every shard; returns total bytes."""
        return sum(
            shard.cancel_attempt(attempt_id, fence=fence) for shard in self.shards
        )

    def commit_attempt(self, attempt_id: str | None) -> int:
        """Finalize consume leases on every shard; returns entries removed."""
        return sum(shard.commit_attempt(attempt_id) for shard in self.shards)

    def cancel_scope(self, scope: str, fence: bool = True) -> float:
        """Reclaim and fence one tenant/job scope on every shard."""
        return sum(shard.cancel_scope(scope, fence=fence) for shard in self.shards)

    def is_fenced(self, attempt_id: str | None) -> bool:
        return any(shard.is_fenced(attempt_id) for shard in self.shards)

    def scope_fenced(self, scope: str) -> bool:
        return any(shard.scope_fenced(scope) for shard in self.shards)

    def residual_reservation_bytes(self, attempt_id: str | None = None) -> float:
        return sum(
            shard.residual_reservation_bytes(attempt_id) for shard in self.shards
        )

    def check_memory_accounting(self) -> None:
        for shard in self.shards:
            shard.check_memory_accounting()

    # ------------------------------------------------------------------
    def client(
        self,
        connection_bandwidth: float | None = None,
        attempt_id: str | None = None,
        owner=None,
        scope: str | None = None,
    ) -> "RelayFleetClient":
        """A fan-out client; same contract as :meth:`PartitionRelay.client`.

        ``scope`` is bound lazily, shard by shard, as the fan-out touches
        them; :meth:`cancel_scope` fences the scope on *every* shard, so
        a zombie of a cancelled scope is rejected even on shards it never
        touched before the cancel.
        """
        return RelayFleetClient(self, connection_bandwidth, attempt_id, owner, scope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RelayFleet {self.relay_id} {self.instance_type_name} "
            f"shards={self.shard_count} {self.state} "
            f"fill={self.fill_fraction:.1%}>"
        )


class RelayFleetClient:
    """Routes single-key ops and fans batches out across the shards.

    Mirrors :class:`~repro.cloud.vm.relay.RelayClient`: every method
    returns a SimEvent and the batched forms pay one request latency per
    shard touched — *in parallel*, so a fleet batch costs one round trip
    of wall clock just like a single-relay batch.  ``connection_bandwidth``
    is the caller's NIC: when a batch spans K shards the concurrent
    sub-flows are capped at shares *proportional to their bytes*, so
    the shares always sum to the caller's line rate (it can never
    exceed its NIC) and, when the caller is the bottleneck, the fan-out
    finishes in exactly the single-flow time regardless of how evenly
    the hash split the batch — while the fleet side spreads the load
    over K instance NICs.

    Attempt binding is inherited by every per-shard sub-client, and the
    fan-out coordinator itself registers with ``owner``, so a killed
    activation interrupts the coordinator *and* its per-shard transfers,
    each of which reclaims its own shard-local reservation — the same
    cleanup discipline as the single relay, N times over.
    """

    def __init__(
        self,
        fleet: RelayFleet,
        connection_bandwidth: float | None,
        attempt_id: str | None = None,
        owner=None,
        scope: str | None = None,
    ):
        self.fleet = fleet
        self.sim = fleet.sim
        self.connection_bandwidth = connection_bandwidth
        self.attempt_id = attempt_id
        self.owner = owner
        self.scope = scope

    # ------------------------------------------------------------------
    # single-key operations: route, then delegate
    # ------------------------------------------------------------------
    def push(self, key: str, data: bytes, logical_size: float | None = None) -> SimEvent:
        return self._shard_client(self.fleet.shard_for_key(key)).push(
            key, data, logical_size
        )

    def pull_wait(self, key: str) -> SimEvent:
        """Rendezvous read: wait on the owning shard until ``key`` commits."""
        return self._shard_client(self.fleet.shard_for_key(key)).pull_wait(key)

    # ------------------------------------------------------------------
    # batched operations: group by shard, fan out, reassemble
    # ------------------------------------------------------------------
    def mpush(
        self,
        items: t.Sequence[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None = None,
    ) -> SimEvent:
        return self._spawn(self._mpush_op(list(items), logical_sizes), "mpush")

    def mpull(self, keys: t.Sequence[str], consume: bool = False) -> SimEvent:
        return self._spawn(self._mpull_op(list(keys), consume), "mpull")

    # ------------------------------------------------------------------
    def _spawn(self, generator: t.Generator, label: str) -> SimEvent:
        process = self.sim.process(
            generator, name=f"{self.fleet.relay_id}.{label}"
        )
        if self.owner is not None:
            self.owner.track(process)
        return process.completion

    def _shard_client(self, shard: PartitionRelay, cap: float | None = None):
        bandwidth = cap if cap is not None else self.connection_bandwidth
        return shard.client(bandwidth, self.attempt_id, self.owner, self.scope)

    def _group(self, keys: t.Sequence[str]) -> list[tuple[int, list[int]]]:
        """``[(shard_index, [positions...]), ...]`` in shard order."""
        groups: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self.fleet.shard_index_for_key(key), []).append(
                position
            )
        return sorted(groups.items())

    def _proportional_caps(self, weights: t.Sequence[float]) -> list[float | None]:
        """Byte-proportional shares of the caller's NIC for a fan-out.

        Shares sum to ``connection_bandwidth``, so the caller never
        exceeds its line rate, and a caller-bound fan-out finishes in
        exactly the single-flow time however unevenly the hash routed
        the batch.  A zero-weight group moves no bytes (its transfer is
        skipped entirely), so its share is irrelevant — it gets the
        full cap to avoid a meaningless zero-rate flow.
        """
        if self.connection_bandwidth is None:
            return [None] * len(weights)
        total = sum(weights)
        return [
            self.connection_bandwidth * (weight / total)
            if total > 0 and weight > 0
            else self.connection_bandwidth
            for weight in weights
        ]

    def _mpush_op(
        self,
        items: list[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None,
    ) -> t.Generator:
        if not items:
            return None
        groups = self._group([key for key, _data in items])
        scale = self.fleet.service.logical_scale

        def item_logical(position: int) -> float:
            if logical_sizes is not None:
                return float(logical_sizes[position])
            return len(items[position][1]) * scale

        caps = self._proportional_caps(
            [
                sum(item_logical(position) for position in positions)
                for _shard_index, positions in groups
            ]
        )
        events = []
        for (shard_index, positions), cap in zip(groups, caps):
            sub_items = [items[position] for position in positions]
            sub_sizes = (
                [logical_sizes[position] for position in positions]
                if logical_sizes is not None
                else None
            )
            events.append(
                self._shard_client(self.fleet.shards[shard_index], cap).mpush(
                    sub_items, sub_sizes
                )
            )
        yield self.sim.all_of(events)
        return None

    def _mpull_op(self, keys: list[str], consume: bool) -> t.Generator:
        if not keys:
            return []
        groups = self._group(keys)
        # Sizes live server-side; weight the NIC shares by resident
        # entry bytes, falling back to key counts for absent keys (the
        # shard will fail those with RelayKeyMissing anyway).
        weights = []
        for shard_index, positions in groups:
            shard = self.fleet.shards[shard_index]
            weight = 0.0
            for position in positions:
                logical = shard.logical_size_of(keys[position])
                weight += logical if logical is not None else 1.0
            weights.append(weight)
        caps = self._proportional_caps(weights)
        events = [
            self._shard_client(self.fleet.shards[shard_index], cap).mpull(
                [keys[position] for position in positions], consume
            )
            for (shard_index, positions), cap in zip(groups, caps)
        ]
        payload_lists = yield self.sim.all_of(events)
        out: list[bytes | None] = [None] * len(keys)
        for (_shard_index, positions), payloads in zip(groups, payload_lists):
            for position, data in zip(positions, payloads):
                out[position] = data
        return t.cast("list[bytes]", out)


# ----------------------------------------------------------------------
# lifecycle helpers (mirror relay.provision_relay / relay_ready)
# ----------------------------------------------------------------------
def provision_fleet(vms: VmService, type_name: str, shards: int) -> SimEvent:
    """Provision ``shards`` relay VMs concurrently; event → :class:`RelayFleet`.

    The shards boot in parallel, so the fleet pays one VM boot latency
    (the slowest of N), not N of them — but N instances' billing clocks
    all start at provision.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    return vms.sim.process(
        _provision(vms, type_name, shards), name=f"{vms.name}.fleet.provision"
    ).completion


def _provision(vms: VmService, type_name: str, shards: int) -> t.Generator:
    from repro.cloud.vm.relay import provision_relay

    events = [provision_relay(vms, type_name) for _ in range(shards)]
    return RelayFleet(vms, (yield vms.sim.all_of(events)))


def fleet_ready(vms: VmService, type_name: str, shards: int) -> RelayFleet:
    """A fleet whose shard VMs are already running (warm mode).

    Billing still starts now, for every shard, exactly as with
    :func:`~repro.cloud.vm.relay.relay_ready`.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    from repro.cloud.vm.relay import relay_ready

    return RelayFleet(vms, [relay_ready(vms, type_name) for _ in range(shards)])
