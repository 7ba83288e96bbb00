"""The simulated in-memory key-value store (AWS ElastiCache-like).

The paper positions object storage against "other alternatives such as
AWS ElastiCache": lower latency and far higher request throughput, but
provisioned (node-hour billed) rather than pay-as-you-go, and bounded by
cluster memory.  This service models exactly those trade-offs so the
experiments can run a third data-exchange strategy next to the paper's
two:

* **sub-millisecond requests** — per-request latency is ~30x below the
  object store's first-byte latency;
* **high per-node ops/s** — a per-node token bucket at ~90 k requests/s
  (vs a few thousand for the whole object-storage account);
* **bounded memory** — every value is charged against its shard node's
  capacity; a full node either refuses writes (``noeviction``) or drops
  least-recently-used keys (``allkeys-lru``);
* **node-hour billing** — cost accrues per node from provision to
  terminate, whether or not requests flow (the "always-on" cost the
  paper credits object storage for avoiding).  That billed lifetime is
  also a ``cache`` span on the simulator's tracer
  (:attr:`MemStoreCluster.span`), with a ``ready`` event where creation
  ends.

Keys shard across nodes by CRC32 (stable across runs and processes, so
simulations stay deterministic).  Batched MSET/MGET pay one request
latency per node touched — the pipelining that makes caches attractive
for W² all-to-all traffic.
"""

from __future__ import annotations

import itertools
import typing as t
import zlib

from repro.cas import sha256_hex
from repro.cloud.billing import CostMeter
from repro.cloud.memstore.errors import (
    CacheKeyMissing,
    ClusterAlreadyTerminated,
    ClusterNotRunning,
    UnknownCacheNodeType,
    UnknownCluster,
)
from repro.cloud.memstore.node import CacheNode
from repro.cloud.profiles import CacheNodeType, MemStoreProfile
from repro.errors import SimulationError
from repro.obs.metrics import publish_dedup_bytes
from repro.obs.trace import NOOP_SPAN
from repro.sim import SimEvent, Simulator


class MemStoreService:
    """Provisioning control plane for cache clusters."""

    def __init__(
        self,
        sim: Simulator,
        profile: MemStoreProfile,
        meter: CostMeter,
        logical_scale: float = 1.0,
        name: str = "memstore",
    ):
        self.sim = sim
        self.profile = profile
        self.meter = meter
        self.logical_scale = logical_scale
        self.name = name
        self._ids = itertools.count(1)
        self._rng = sim.rng.stream(f"{name}.provision")
        self._rng_read = sim.rng.stream(f"{name}.read_latency")
        self._rng_write = sim.rng.stream(f"{name}.write_latency")
        self.clusters: dict[str, MemStoreCluster] = {}

    def node_type(self, type_name: str) -> CacheNodeType:
        try:
            return self.profile.catalog[type_name]
        except KeyError:
            raise UnknownCacheNodeType(type_name, list(self.profile.catalog)) from None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def provision(self, type_name: str, nodes: int = 1) -> SimEvent:
        """Create a cluster; the event succeeds with it once it is ready.

        Cluster creation takes minutes (``profile.provision``), which is
        why experiments that model an always-on cache provision it off
        the clock — see :func:`provision_ready`.
        """
        cluster = self._make_cluster(type_name, nodes)
        return self.sim.process(
            self._boot(cluster), name=f"{self.name}.boot.{cluster.cluster_id}"
        ).completion

    def provision_ready(self, type_name: str, nodes: int = 1) -> "MemStoreCluster":
        """A cluster that is already running (pre-provisioned, warm mode).

        Billing still starts now: the cluster accrues node-seconds from
        this call until :meth:`MemStoreCluster.terminate`.
        """
        cluster = self._make_cluster(type_name, nodes)
        cluster._ready()
        return cluster

    def _make_cluster(self, type_name: str, nodes: int) -> "MemStoreCluster":
        if nodes < 1:
            raise SimulationError(f"cluster needs >= 1 node, got {nodes}")
        node_type = self.node_type(type_name)
        cluster = MemStoreCluster(self, f"cache-{next(self._ids)}", node_type, nodes)
        self.clusters[cluster.cluster_id] = cluster
        return cluster

    def _boot(self, cluster: "MemStoreCluster") -> t.Generator:
        yield self.sim.timeout(self.profile.provision.sample(self._rng))
        cluster._ready()
        return cluster

    def cluster(self, cluster_id: str) -> "MemStoreCluster":
        """Resolve a cluster id (as carried inside worker payloads)."""
        try:
            return self.clusters[cluster_id]
        except KeyError:
            raise UnknownCluster(cluster_id) from None

    def terminate_all(self) -> None:
        """Terminate any clusters still running (end-of-run cleanup)."""
        for cluster in self.clusters.values():
            if cluster.state != "terminated":
                cluster.terminate()

    # ------------------------------------------------------------------
    # billing
    # ------------------------------------------------------------------
    def _bill_cluster(self, cluster: "MemStoreCluster") -> None:
        lifetime = (cluster.terminated_at or self.sim.now) - cluster.provisioned_at
        billed = max(lifetime, self.profile.minimum_billed_s)
        for node in cluster.nodes:
            self.meter.charge(
                self.sim.now,
                "memstore",
                "node_second",
                billed,
                billed * cluster.node_type.per_second_usd,
                cluster=cluster.cluster_id,
                node=node.node_id,
                type=cluster.node_type.name,
            )


class MemStoreCluster:
    """One provisioned cache cluster: N shard nodes behind one keyspace."""

    def __init__(
        self,
        service: MemStoreService,
        cluster_id: str,
        node_type: CacheNodeType,
        nodes: int,
    ):
        self.service = service
        self.sim = service.sim
        self.cluster_id = cluster_id
        self.node_type = node_type
        self.state = "provisioning"
        self.provisioned_at = self.sim.now
        self.ready_at: float | None = None
        self.terminated_at: float | None = None
        #: Lifetime span: what is billed, from provision to terminate.
        self.span = self.sim.tracer.span(
            cluster_id, category="cache", track=cluster_id, cluster=cluster_id,
            type=node_type.name, nodes=nodes,
        )
        self.nodes = [
            CacheNode(
                self.sim,
                f"{cluster_id}.n{index}",
                node_type,
                service.profile,
            )
            for index in range(nodes)
        ]

    # ------------------------------------------------------------------
    def ensure_running(self) -> None:
        if self.state != "running":
            raise ClusterNotRunning(self.cluster_id, self.state)

    def _ready(self) -> None:
        """Created: the cluster serves requests from now on."""
        self.state = "running"
        self.ready_at = self.sim.now
        self.span.event("ready")

    def node_for(self, key: str) -> CacheNode:
        """The shard node owning ``key`` (stable CRC32 placement)."""
        index = zlib.crc32(key.encode("utf-8")) % len(self.nodes)
        return self.nodes[index]

    def client(
        self, connection_bandwidth: float | None = None, owner=None
    ) -> "CacheClient":
        """A request client, optionally capped by the caller's NIC.

        ``owner`` (a :class:`~repro.cloud.faas.context.FunctionContext`)
        makes the client's request processes attempt-scoped: they are
        interrupted when the owning activation is killed, instead of
        draining as orphans.
        """
        return CacheClient(self, connection_bandwidth, owner=owner)

    def terminate(self) -> None:
        """Stop the cluster and bill its node lifetimes."""
        if self.state == "terminated":
            raise ClusterAlreadyTerminated(self.cluster_id)
        self.state = "terminated"
        self.terminated_at = self.sim.now
        # Rendezvous readers still parked on unset keys would wait
        # forever on a dead cluster; fail them like a dropped connection.
        for node in self.nodes:
            node.fail_watchers(ClusterNotRunning(self.cluster_id, "terminated"))
        self.service._bill_cluster(self)
        self.span.end()

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> float:
        """Total usable logical capacity across all nodes."""
        return sum(node.capacity_bytes for node in self.nodes)

    @property
    def used_logical(self) -> float:
        return sum(node.used_logical for node in self.nodes)

    @property
    def key_count(self) -> int:
        return sum(node.key_count for node in self.nodes)

    def stats_totals(self) -> dict[str, float]:
        """Summed per-node counters."""
        totals: dict[str, float] = {}
        for node in self.nodes:
            for field, value in node.stats.as_dict().items():
                totals[field] = totals.get(field, 0.0) + value
        return totals

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Dedup-eligible writes whose key starts with ``prefix``, node
        by node (run manifests sort their chunks)."""
        return [entry for node in self.nodes for entry in node.content.entries(prefix)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemStoreCluster {self.cluster_id} {self.node_type.name}x"
            f"{len(self.nodes)} {self.state}>"
        )


class CacheClient:
    """Request interface to one cluster; all methods return SimEvents.

    ``connection_bandwidth`` caps this client's aggregate transfer rate
    (the caller's NIC); batched operations split it across the node
    streams they open concurrently.
    """

    def __init__(
        self,
        cluster: MemStoreCluster,
        connection_bandwidth: float | None,
        owner=None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.connection_bandwidth = connection_bandwidth
        #: Owning activation context (tracks request processes), if any.
        self.owner = owner
        self._service = cluster.service
        self._profile = cluster.service.profile
        self._scale = cluster.service.logical_scale

    # ------------------------------------------------------------------
    # single-key operations
    # ------------------------------------------------------------------
    def set(self, key: str, data: bytes, logical_size: float | None = None) -> SimEvent:
        """Store ``key``; event → ``None``.  Fails with CacheOutOfMemory."""
        span = self._span()
        if span.recording:
            span.event("cache.set", cluster=self.cluster.cluster_id, key=key)
        return self._spawn(self._set_op(key, data, logical_size), f"set:{key}")

    def get_wait(self, key: str) -> SimEvent:
        """Fetch ``key``, *waiting* until it is stored; event → ``bytes``.

        The memstore-notification read of the streaming shuffle: where
        :meth:`mget` fails an absent key with :class:`CacheKeyMissing`,
        this parks the reader on the owning node's set notification and
        transfers the value once a writer publishes it.
        """
        span = self._span()
        if span.recording:
            span.event(
                "cache.get_wait", cluster=self.cluster.cluster_id, key=key
            )
        return self._spawn(self._get_wait_op(key), f"get_wait:{key}")

    def delete(self, key: str) -> SimEvent:
        """Remove ``key``; event → whether it existed."""
        return self._spawn(self._delete_op(key), f"delete:{key}")

    # ------------------------------------------------------------------
    # batched (pipelined) operations
    # ------------------------------------------------------------------
    def mset(
        self,
        items: t.Sequence[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None = None,
    ) -> SimEvent:
        """Store many keys, pipelined per shard node; event → ``None``.

        Each node touched pays *one* write latency for its whole batch
        (plus one rate-limit token per key) — the reason a cache absorbs
        W² all-to-all writes that would drown object storage in PUTs.
        """
        span = self._span()
        if span.recording:
            span.event(
                "cache.mset", cluster=self.cluster.cluster_id, keys=len(items)
            )
        return self._spawn(self._mset_op(list(items), logical_sizes), "mset")

    def mget(self, keys: t.Sequence[str]) -> SimEvent:
        """Fetch many keys, pipelined per shard node; event → payload list.

        Payloads come back in input-key order.  Fails with
        :class:`CacheKeyMissing` naming the first absent key.
        """
        span = self._span()
        if span.recording:
            span.event(
                "cache.mget", cluster=self.cluster.cluster_id, keys=len(keys)
            )
        return self._spawn(self._mget_op(list(keys)), "mget")

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
            generator, name=f"{self.cluster.cluster_id}.{label}"
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

    @staticmethod
    def _consume_ops(node, amount: float) -> t.Generator:
        """Take ``amount`` rate-limit tokens, in bucket-sized chunks.

        A pipelined batch may exceed the bucket's burst capacity; the
        requests then drain at the sustained rate instead of failing.
        """
        remaining = amount
        while remaining > 0:
            take = min(remaining, node.ops.capacity)
            yield node.ops.consume(take)
            remaining -= take

    def _flow_cap(self, streams: int = 1) -> float:
        cap = self._profile.per_connection_bandwidth
        if self.connection_bandwidth is not None:
            cap = min(cap, self.connection_bandwidth / max(1, streams))
        return cap

    def _set_op(self, key: str, data: bytes, logical_size: float | None) -> t.Generator:
        self.cluster.ensure_running()
        node = self.cluster.node_for(key)
        yield node.ops.consume(1.0)
        yield self.sim.timeout(
            self._profile.write_latency.sample(self._service._rng_write)
        )
        logical = self._logical(data, logical_size)
        if logical > 0:
            yield node.link.transfer(logical, self._flow_cap())
        node.store(key, data, logical)
        return None

    def _get_wait_op(self, key: str) -> t.Generator:
        self.cluster.ensure_running()
        node = self.cluster.node_for(key)
        yield node.ops.consume(1.0)
        yield self.sim.timeout(
            self._profile.read_latency.sample(self._service._rng_read)
        )
        waited = False
        while True:
            # contains() is stats-free: a rendezvous read that arrives
            # early is a counted *wait*, not a phantom cache miss per
            # park/wake re-check.
            if node.contains(key):
                entry = node.fetch(key)
                if entry is not None:
                    break
            if node.was_evicted(key):
                # The value existed and was LRU-evicted: it is gone for
                # good (committed stream chunks are never re-published).
                # Parking would hang the reader forever; fail like the
                # staged path's plain GET does.
                raise CacheKeyMissing(key)
            if not waited:
                waited = True
                node.stats.rendezvous_waits += 1
            watcher = node.watch(key)
            try:
                yield watcher
            except BaseException:
                node.unwatch(key, watcher)
                raise
        if entry.logical > 0:
            yield node.link.transfer(entry.logical, self._flow_cap())
        return entry.data

    def _delete_op(self, key: str) -> t.Generator:
        self.cluster.ensure_running()
        node = self.cluster.node_for(key)
        yield node.ops.consume(1.0)
        yield self.sim.timeout(
            self._profile.write_latency.sample(self._service._rng_write)
        )
        return node.remove(key)

    def _group_by_node(
        self, keys: t.Sequence[str]
    ) -> dict[int, list[tuple[int, str]]]:
        """Map node index → list of ``(position, key)`` preserving order."""
        groups: dict[int, list[tuple[int, str]]] = {}
        for position, key in enumerate(keys):
            node_index = zlib.crc32(key.encode("utf-8")) % len(self.cluster.nodes)
            groups.setdefault(node_index, []).append((position, key))
        return groups

    def _mset_op(
        self,
        items: list[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None,
    ) -> t.Generator:
        self.cluster.ensure_running()
        if not items:
            return None
        if logical_sizes is not None and len(logical_sizes) != len(items):
            raise SimulationError(
                "mset: logical_sizes length does not match items"
            )
        groups = self._group_by_node([key for key, _data in items])
        streams = len(groups)

        def write_group(node_index: int, members: list[tuple[int, str]]) -> t.Generator:
            node = self.cluster.nodes[node_index]
            yield from self._consume_ops(node, float(len(members)))
            yield self.sim.timeout(
                self._profile.write_latency.sample(self._service._rng_write)
            )
            logicals: list[float] = []
            shas: list[str | None] = []
            for position, _key in members:
                _item_key, data = items[position]
                logicals.append(
                    logical_sizes[position]
                    if logical_sizes is not None
                    else self._logical(data, None)
                )
                shas.append(sha256_hex(data) if data else None)
            # Content dedup: values already resident on this shard ride
            # as references — only novel bytes cross the wire.
            deduped = [
                sha is not None and node.content.resident(sha) for sha in shas
            ]
            wire_logical = sum(
                logical for logical, skip in zip(logicals, deduped) if not skip
            )
            if wire_logical > 0:
                yield node.link.transfer(wire_logical, self._flow_cap(streams))
            for (position, key), logical, sha, was_dedup in zip(
                members, logicals, shas, deduped
            ):
                _item_key, data = items[position]
                if was_dedup and not node.content.resident(sha):
                    # The referent was LRU-evicted (tombstoned in
                    # ``_evicted_keys``) after the residency check —
                    # transparently re-send the bytes instead of
                    # surfacing a missing-content failure.
                    node.stats.dedup_restores += 1
                    if logical > 0:
                        yield node.link.transfer(logical, self._flow_cap(streams))
                    was_dedup = False
                node.store(key, data, logical, sha)
                if was_dedup:
                    node.stats.dedup_hits += 1
                    node.stats.dedup_bytes += logical
                    publish_dedup_bytes("cache", logical)

        writers = [
            self.sim.process(
                write_group(node_index, members),
                name=f"{self.cluster.cluster_id}.mset.n{node_index}",
            )
            for node_index, members in groups.items()
        ]
        if self.owner is not None:
            for process in writers:
                self.owner.track(process)
        yield self.sim.all_of([process.completion for process in writers])
        return None

    def _mget_op(self, keys: list[str]) -> t.Generator:
        self.cluster.ensure_running()
        if not keys:
            return []
        groups = self._group_by_node(keys)
        streams = len(groups)
        results: list[bytes | None] = [None] * len(keys)

        def read_group(node_index: int, members: list[tuple[int, str]]) -> t.Generator:
            node = self.cluster.nodes[node_index]
            yield from self._consume_ops(node, float(len(members)))
            yield self.sim.timeout(
                self._profile.read_latency.sample(self._service._rng_read)
            )
            entries = []
            for _position, key in members:
                entry = node.fetch(key)
                if entry is None:
                    raise CacheKeyMissing(key)
                entries.append(entry)
            total_logical = sum(entry.logical for entry in entries)
            if total_logical > 0:
                yield node.link.transfer(total_logical, self._flow_cap(streams))
            for (position, _key), entry in zip(members, entries):
                results[position] = entry.data

        readers = [
            self.sim.process(
                read_group(node_index, members),
                name=f"{self.cluster.cluster_id}.mget.n{node_index}",
            )
            for node_index, members in groups.items()
        ]
        if self.owner is not None:
            for process in readers:
                self.owner.track(process)
        yield self.sim.all_of([process.completion for process in readers])
        return t.cast(list, results)
