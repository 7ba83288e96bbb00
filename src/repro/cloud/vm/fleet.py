"""Sharded multi-relay fleet: N partition relays behind one façade.

The single :class:`~repro.cloud.vm.relay.PartitionRelay` is scale-up:
one VM, one NIC.  At high worker counts the aggregate demand of W
function NICs exceeds one instance's line rate and the relay's flat
right flank bends up.  A :class:`RelayFleet` lifts that ceiling the way
the cache cluster does, with plain VMs: N relay shards, each its own
instance, behind a façade that looks exactly like one relay to the rest
of the stack.  It is the store core's shard group
(:class:`~repro.cloud.memstore.core.ShardGroup`, shared with the cache
cluster: CRC-32 placement, aggregate views, the batch fan-out) plus:

* **namespace routers** — an exchange may install a router over its own
  key namespace (:meth:`RelayFleet.set_router`) that overrides the hash
  for the keys it claims; the skew-aware exchange routes by planned
  partition bytes this way, and concurrent sorts on one fleet each
  route only their own keys;
* **its fan-out rule** — sub-batches go out in sorted shard order, each
  capped at a byte-proportional share of the caller's NIC;
* **fleet-wide cancellation and fencing** — ``cancel_attempt`` and its
  kin forward to every shard, so the attempt-scoped guarantees
  (reclaim, fencing, atomic swap, zero residual reservations) hold
  wherever a dead attempt's reservations live.

Billing is the sum of the shard VMs' lifetimes.  The fleet registers
under its own relay id, so worker payloads carry one id and
:meth:`~repro.cloud.faas.context.FunctionContext.relay` resolves to the
fleet transparently — the relay worker stages are shared verbatim
between the single-relay and sharded substrates.
"""

from __future__ import annotations

import typing as t

from repro.cloud.memstore.core import Groups, ShardGroup, StoreClient
from repro.cloud.vm.instance import VmService
from repro.cloud.vm.relay import PartitionRelay, RelayStats
from repro.errors import SimulationError
from repro.sim import SimEvent


class RelayFleet(ShardGroup):
    """N partition-relay shards presented as one relay-compatible façade."""

    shards: tuple[PartitionRelay, ...]

    def __init__(self, service: VmService, shards: t.Sequence[PartitionRelay]):
        if not shards:
            raise SimulationError("a relay fleet needs at least one shard")
        super().__init__(service.sim, tuple(shards))
        self.service = service
        self.relay_id = (
            f"fleet-{self.shards[0].vm.vm_id}x{len(self.shards)}"
        )
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
    def entry_bytes(self) -> float:
        return sum(shard.entry_bytes for shard in self.shards)

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
        vars(total).update(self.stats_totals())
        return total

    # Epoch-scoped peaks: a fleet epoch is one token per shard; the
    # fleet-level peak is the hottest shard's epoch peak (imbalance
    # shows up there, same as :attr:`peak_fill_fraction`).
    def begin_peak_epoch(self) -> tuple[int, ...]:
        return tuple(shard.begin_peak_epoch() for shard in self.shards)

    def peak_fill_since(self, token: tuple[int, ...]) -> float:
        return max(shard.peak_fill_since(tok) for shard, tok in zip(self.shards, token))

    def end_peak_epoch(self, token: tuple[int, ...]) -> float:
        return max(shard.end_peak_epoch(tok) for shard, tok in zip(self.shards, token))

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
        return sum(shard.residual_reservation_bytes(attempt_id) for shard in self.shards)

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

    # ------------------------------------------------------------------
    # fan-out rule
    # ------------------------------------------------------------------
    def _batch_order(self, by_shard: dict[int, list[int]]) -> Groups:
        return sorted(by_shard.items())

    def _nic_shares(
        self,
        bandwidth: float | None,
        groups: Groups,
        weigh: t.Callable[[int, list[int]], float],
    ) -> list[float | None]:
        """Byte-proportional shares of the caller's NIC for a fan-out.

        Shares sum to ``bandwidth``, so the caller never exceeds its
        line rate, and a caller-bound fan-out finishes in exactly the
        single-flow time however unevenly the hash routed the batch.  A
        zero-weight group moves no bytes (its transfer is skipped
        entirely), so its share is irrelevant — it gets the full cap to
        avoid a meaningless zero-rate flow.
        """
        weights = [weigh(index, positions) for index, positions in groups]
        if bandwidth is None:
            return [None] * len(weights)
        total = sum(weights)
        return [
            bandwidth * (weight / total) if total > 0 and weight > 0 else bandwidth
            for weight in weights
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RelayFleet {self.relay_id} {self.instance_type_name} "
            f"shards={self.shard_count} {self.state} "
            f"fill={self.fill_fraction:.1%}>"
        )


class RelayFleetClient(StoreClient):
    """Routes single-key ops and fans batches out across the shards.

    Mirrors :class:`~repro.cloud.vm.relay.RelayClient`.  A batch pays one
    request latency per shard touched, *in parallel*, and its sub-flows'
    shares of the caller's NIC sum to the line rate: a caller-bound
    fan-out finishes in the single-flow time however unevenly the hash
    split it.  Every per-shard sub-client inherits the attempt binding
    and the owner, so a killed activation interrupts the coordinator and
    each per-shard op, which reclaims its own shard-local reservation.
    """

    def __init__(
        self,
        fleet: RelayFleet,
        connection_bandwidth: float | None,
        attempt_id: str | None = None,
        owner=None,
        scope: str | None = None,
    ):
        super().__init__(
            fleet.sim, fleet.relay_id, connection_bandwidth, owner,
            fleet.service.logical_scale,
        )
        self.fleet = fleet
        self.attempt_id = attempt_id
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
    def _shard_client(self, shard: PartitionRelay, cap: float | None = None):
        bandwidth = cap if cap is not None else self.connection_bandwidth
        return shard.client(bandwidth, self.attempt_id, self.owner, self.scope)

    def _mpush_op(
        self,
        items: list[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None,
    ) -> t.Generator:
        if not items:
            return None
        logicals = self._logicals("mpush", items, logical_sizes)

        def weigh(_index: int, positions: list[int]) -> float:
            return sum(float(logicals[position]) for position in positions)

        def issue(index: int, positions: list[int], cap: float | None) -> SimEvent:
            return self._shard_client(self.fleet.shards[index], cap).mpush(
                [items[position] for position in positions],
                [logicals[position] for position in positions],
            )

        yield from self.fleet._fan_out(
            self.connection_bandwidth, [key for key, _data in items], issue, weigh
        )
        return None

    def _mpull_op(self, keys: list[str], consume: bool) -> t.Generator:
        if not keys:
            return []

        def weigh(index: int, positions: list[int]) -> float:
            # Sizes live server-side; weight by resident entry bytes,
            # falling back to key counts for absent keys (the shard
            # fails those with RelayKeyMissing anyway).
            sizes = [self.fleet.shards[index].logical_size_of(keys[p]) for p in positions]
            return sum(size if size is not None else 1.0 for size in sizes)

        def issue(index: int, positions: list[int], cap: float | None) -> SimEvent:
            return self._shard_client(self.fleet.shards[index], cap).mpull(
                [keys[position] for position in positions], consume
            )

        return (
            yield from self.fleet._fan_out(self.connection_bandwidth, keys, issue, weigh)
        )


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
