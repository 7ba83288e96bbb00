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
  capacity; a full node refuses the write (``noeviction``), where the
  VM relay on the same store core makes it wait;
* **node-hour billing** — cost accrues per node from provision to
  terminate, whether or not requests flow (the "always-on" cost the
  paper credits object storage for avoiding).  That billed lifetime is
  also a ``cache`` span on the simulator's tracer
  (:attr:`MemStoreCluster.span`), with a ``ready`` event where creation
  ends.

Keys shard across nodes by CRC32 (stable across runs and processes, so
simulations stay deterministic).  Batched MSET/MGET pay one request
latency per node touched — the pipelining that makes caches attractive
for W² all-to-all traffic.  The node, the client machinery and the
sharding are the in-memory store core of
:mod:`repro.cloud.memstore.core`, shared with the VM relay and fleet.
"""

from __future__ import annotations

import itertools
import typing as t

from repro.cas import sha256_hex
from repro.cloud.billing import CostMeter
from repro.cloud.memstore.core import Groups, ShardGroup, StoreClient
from repro.cloud.memstore.errors import (
    ClusterAlreadyTerminated,
    ClusterNotRunning,
    UnknownCacheNodeType,
    UnknownCluster,
)
from repro.cloud.memstore.node import CacheNode
from repro.cloud.profiles import CacheNodeType, MemStoreProfile
from repro.errors import SimulationError
from repro.obs.metrics import publish_dedup_bytes
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


class MemStoreCluster(ShardGroup):
    """One provisioned cache cluster: N shard nodes behind one keyspace.

    Its batch fan-out issues the node groups in the order the batch
    first touches them and splits the caller's NIC equally across them,
    each stream capped at the per-connection bandwidth.
    """

    def __init__(
        self,
        service: MemStoreService,
        cluster_id: str,
        node_type: CacheNodeType,
        nodes: int,
    ):
        super().__init__(
            service.sim,
            [
                CacheNode(
                    service.sim, f"{cluster_id}.n{index}", node_type, service.profile
                )
                for index in range(nodes)
            ],
        )
        self.service = service
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

    @property
    def nodes(self) -> list[CacheNode]:
        return t.cast("list[CacheNode]", self.shards)

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
        return self.nodes[self.shard_index_for_key(key)]

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
            node.fail_watchers(lambda: ClusterNotRunning(self.cluster_id, "terminated"))
        self.service._bill_cluster(self)
        self.span.end()

    # ------------------------------------------------------------------
    # fan-out rule
    # ------------------------------------------------------------------
    def flow_cap(self, bandwidth: float | None, streams: int = 1) -> float:
        """One stream's rate cap: the per-connection bandwidth, or an
        equal share of the caller's NIC (``bandwidth``) if that is less."""
        cap = self.service.profile.per_connection_bandwidth
        if bandwidth is not None:
            cap = min(cap, bandwidth / max(1, streams))
        return cap

    def _batch_order(self, by_shard: dict[int, list[int]]) -> Groups:
        return list(by_shard.items())

    def _nic_shares(self, bandwidth: float | None, groups: Groups, _weigh) -> list:
        return [self.flow_cap(bandwidth, len(groups))] * len(groups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemStoreCluster {self.cluster_id} {self.node_type.name}x"
            f"{len(self.nodes)} {self.state}>"
        )


class CacheClient(StoreClient):
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
        super().__init__(
            cluster.sim, cluster.cluster_id, connection_bandwidth, owner,
            cluster.service.logical_scale,
        )
        self.cluster = cluster
        self._service = cluster.service
        self._profile = cluster.service.profile

    # ------------------------------------------------------------------
    # single-key operations
    # ------------------------------------------------------------------
    def set(self, key: str, data: bytes, logical_size: float | None = None) -> SimEvent:
        """Store ``key``; event → ``None``.  Fails with CacheOutOfMemory."""
        return self._spawn(
            self._set_op(key, data, logical_size), f"set:{key}",
            "cache.set", cluster=self.cluster.cluster_id, key=key,
        )

    def get_wait(self, key: str) -> SimEvent:
        """Fetch ``key``, *waiting* until it is stored; event → ``bytes``.

        The streaming shuffle's rendezvous read, where :meth:`mget`
        fails an absent key with :class:`CacheKeyMissing`.
        """
        return self._spawn(
            self._get_wait_op(key), f"get_wait:{key}",
            "cache.get_wait", cluster=self.cluster.cluster_id, key=key,
        )

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
        return self._spawn(
            self._mset_op(list(items), logical_sizes), "mset",
            "cache.mset", cluster=self.cluster.cluster_id, keys=len(items),
        )

    def mget(self, keys: t.Sequence[str]) -> SimEvent:
        """Fetch many keys, pipelined per shard node; event → payload list.

        Payloads come back in input-key order.  Fails with
        :class:`CacheKeyMissing` naming the first absent key, before any
        byte of the batch is sent or counted as served.
        """
        return self._spawn(
            self._mget_op(list(keys)), "mget",
            "cache.mget", cluster=self.cluster.cluster_id, keys=len(keys),
        )

    # ------------------------------------------------------------------
    # operation bodies
    # ------------------------------------------------------------------
    def _read_latency(self) -> float:
        return self._profile.read_latency.sample(self._service._rng_read)

    def _write_latency(self) -> float:
        return self._profile.write_latency.sample(self._service._rng_write)

    def _flow_cap(self) -> float:
        return self.cluster.flow_cap(self.connection_bandwidth)

    def _write_request(self, key: str) -> t.Generator:
        """One token and one write latency at ``key``'s node; → the node."""
        self.cluster.ensure_running()
        node = self.cluster.node_for(key)
        yield from self._consume_ops(node, 1.0)
        yield self.sim.timeout(self._write_latency())
        return node

    def _set_op(self, key: str, data: bytes, logical_size: float | None) -> t.Generator:
        node = yield from self._write_request(key)
        logical = self._logical(data, logical_size)
        yield from self._transfer(node, logical, self._flow_cap())
        node.store(key, data, logical)
        return None

    def _get_wait_op(self, key: str) -> t.Generator:
        self.cluster.ensure_running()
        return (yield from self._rendezvous_read(self.cluster.node_for(key), key))

    def _delete_op(self, key: str) -> t.Generator:
        node = yield from self._write_request(key)
        return node.remove(key)

    def _mset_op(
        self,
        items: list[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None,
    ) -> t.Generator:
        self.cluster.ensure_running()
        if not items:
            return None
        logicals = self._logicals("mset", items, logical_sizes)

        def issue(index: int, positions: list[int], cap: float) -> SimEvent:
            batch = [(*items[position], logicals[position]) for position in positions]
            return self._spawn(
                self._write_node(self.cluster.nodes[index], batch, cap), f"mset.n{index}"
            )

        yield from self.cluster._fan_out(
            self.connection_bandwidth, [key for key, _data in items], issue
        )
        return None

    def _write_node(
        self, node: CacheNode, batch: list[tuple[str, bytes, float]], cap: float
    ) -> t.Generator:
        """One node's share of an MSET: ``(key, data, logical)``s."""
        yield from self._consume_ops(node, float(len(batch)))
        yield self.sim.timeout(self._write_latency())
        shas = [sha256_hex(data) if data else None for _key, data, _logical in batch]
        # Content dedup: values already resident on this shard ride as
        # references — only novel bytes cross the wire.
        deduped = [sha is not None and node.content.resident(sha) for sha in shas]
        yield from self._transfer(
            node,
            sum(logical for (_k, _d, logical), skip in zip(batch, deduped) if not skip),
            cap,
        )
        for (key, data, logical), sha, was_dedup in zip(batch, shas, deduped):
            if was_dedup and not node.content.resident(sha):
                # The referent left after the residency check (replaced
                # earlier in this batch, or deleted meanwhile):
                # transparently re-send the bytes instead of surfacing a
                # missing-content failure.
                node.stats.dedup_restores += 1
                yield from self._transfer(node, logical, cap)
                was_dedup = False
            node.store(key, data, logical, sha)
            if was_dedup:
                node.stats.dedup_hits += 1
                node.stats.dedup_bytes += logical
                publish_dedup_bytes("cache", logical)

    def _mget_op(self, keys: list[str]) -> t.Generator:
        self.cluster.ensure_running()
        if not keys:
            return []

        def issue(index: int, positions: list[int], cap: float) -> SimEvent:
            node_keys = [keys[position] for position in positions]
            return self._spawn(
                self._read_batch(self.cluster.nodes[index], node_keys, cap),
                f"mget.n{index}",
            )

        return (
            yield from self.cluster._fan_out(self.connection_bandwidth, keys, issue)
        )
