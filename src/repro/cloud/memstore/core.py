"""One in-memory store: the core under the cache node and the VM relay.

A managed cache node and a partition relay on a VM differ in price, in
provisioning and in one rule — what a write does when the node is full:
the cache refuses it (:class:`~repro.cloud.memstore.node.CacheNode`,
Redis ``noeviction``), the relay makes it wait for memory
(:class:`~repro.cloud.vm.relay.PartitionRelay`).  Everything else lives
here, once:

* :class:`MemoryStore` — one node: resident entries and their logical
  bytes against a capacity, the content index, the watchers that
  rendezvous reads park on, a request-rate token bucket and a NIC;
* :class:`StoreClient` — the request side: op processes owned by the
  calling activation, token waits and transfers that clean up after an
  interrupt, the batch read and the rendezvous read;
* :class:`ShardGroup` — N stores behind one keyspace: CRC-32 placement
  (with namespace routers), aggregate views and the batch fan-out.

Real payload bytes are stored verbatim.  Capacity counts *logical* bytes
(real bytes times the experiment's ``logical_scale``), so scaled-down
runs fill up at the same logical dataset sizes as full-scale ones.
"""

from __future__ import annotations

import typing as t
import zlib

from repro.cas import ContentIndex, Resident
from repro.errors import SimulationError
from repro.obs.trace import NOOP_SPAN
from repro.sim import FairShareLink, KeyedWatch, SimEvent, Simulator, TokenBucket


class StoreStats:
    """Counters every store keeps, for planners, reports and tests."""

    def __init__(self) -> None:
        self.misses = 0
        #: Reads that arrived before their key and parked on the store's
        #: watchers (the streaming shuffle's rendezvous reads).
        self.rendezvous_waits = 0
        self.bytes_in = 0.0  # logical bytes stored
        self.bytes_out = 0.0  # logical bytes served to readers
        #: Writes whose value was already resident (content dedup) and
        #: therefore rode as a reference instead of crossing the wire.
        self.dedup_hits = 0
        self.dedup_bytes = 0.0  # logical wire bytes dedup skipped

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


class MemoryStore:
    """One node: bounded entries, content index, watchers, ops bucket, NIC.

    Subclasses set :attr:`stats`, the exception of an absent key and the
    name of the counter of served reads, and add their own write path:
    that is where the full-node rule lives.
    """

    #: Raised by a read of a key the store does not hold.
    key_missing: type[Exception]
    #: The :attr:`stats` counter of served reads.
    reads_counter: str
    stats: StoreStats

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity_bytes: float,
        ops_per_second: float,
        ops_burst: float,
        nic_bandwidth: float,
    ):
        self.sim = sim
        #: Logical bytes this store can hold.
        self.capacity_bytes = capacity_bytes
        self.used_logical = 0.0
        self._entries: dict[str, Resident] = {}
        #: Content held and committed: identical values are counted, not
        #: re-sent on the wire; every way an entry leaves decrements, so
        #: residency here always mirrors ``_entries`` exactly.
        self.content = ContentIndex()
        #: Readers parked until a key lands.
        self._watchers = KeyedWatch(sim, name=f"{name}.watch")
        self.ops = TokenBucket(
            sim, rate=ops_per_second, capacity=ops_burst, name=f"{name}.ops"
        )
        #: The NIC; every transfer to or from this store contends here.
        self.link = FairShareLink(sim, capacity=nic_bandwidth, name=f"{name}.nic")

    # ------------------------------------------------------------------
    # entries (synchronous; the client pays latency and bandwidth)
    # ------------------------------------------------------------------
    def _put(self, key: str, data: bytes, logical: float, sha: str | None) -> None:
        self._entries[key] = Resident(bytes(data), logical, sha)
        self.content.add(sha)
        if sha is not None:
            self.content.record(key, sha, logical)

    def _drop(self, key: str) -> Resident | None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.content.drop(entry.sha)
        return entry

    def _lookup(self, key: str) -> Resident:
        """Resolve ``key`` or raise, counting the miss.  No read stats:
        those are recorded only once the transfer actually happened."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            raise self.key_missing(key)
        return entry

    def _record_reads(self, count: int, logical: float) -> None:
        stats = self.stats
        setattr(stats, self.reads_counter, getattr(stats, self.reads_counter) + count)
        stats.bytes_out += logical

    # ------------------------------------------------------------------
    # watchers (the streaming shuffle's rendezvous reads)
    # ------------------------------------------------------------------
    def watch(self, key: str) -> SimEvent:
        """An event that succeeds the next time ``key`` is stored."""
        return self._watchers.watch(key)

    def unwatch(self, key: str, event: SimEvent) -> None:
        """Drop a watcher (an interrupted reader cleans up after itself)."""
        self._watchers.unwatch(key, event)

    def fail_watchers(self, error: t.Callable[[], BaseException]) -> None:
        """Fail every parked reader with a fresh ``error()`` (the store is
        going away; its keys can never land)."""
        self._watchers.fail_all(lambda _key: error())

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return len(self._entries)

    @property
    def fill_fraction(self) -> float:
        """Used capacity as a fraction of usable memory (0..1)."""
        return self.used_logical / self.capacity_bytes

    def logical_size_of(self, key: str) -> float | None:
        """Logical bytes of the resident entry under ``key`` (or None).

        A metadata peek for planners and the fan-out's bandwidth
        weighting; does not count as a read or a miss.
        """
        entry = self._entries.get(key)
        return entry.logical if entry is not None else None

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Dedup-eligible writes of ``prefix`` or of keys under it."""
        return self.content.entries(prefix)


class StoreClient:
    """The request side of a store or a shard group; verbs return SimEvents.

    ``connection_bandwidth`` caps the client's transfers (the caller's
    NIC).  ``owner`` (a :class:`~repro.cloud.faas.context.FunctionContext`)
    tracks the client's request processes, so a killed activation
    interrupts them instead of letting them drain as orphans.  Every op
    body cleans up after an interrupt: its queued token demand is
    withdrawn and its in-flight flow aborted, so a killed request leaves
    the store as if it had never arrived.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        connection_bandwidth: float | None,
        owner,
        logical_scale: float,
    ):
        self.sim = sim
        self.connection_bandwidth = connection_bandwidth
        #: Owning activation context (tracks request processes), if any.
        self.owner = owner
        self._name = name
        self._scale = logical_scale

    def _span(self):
        """The owning attempt's span (noop for driver-side clients).

        ``owner`` only promises ``track()``; spanless owners (bare
        process trackers) fall back to the no-op span.
        """
        span = getattr(self.owner, "span", None)
        return span if span is not None else NOOP_SPAN

    def _spawn(
        self, generator: t.Generator, label: str, event: str | None = None, **attrs
    ) -> SimEvent:
        """Start an op process; ``event`` notes it on the attempt's span."""
        if event is not None:
            span = self._span()
            if span.recording:
                span.event(event, **attrs)
        process = self.sim.process(generator, name=f"{self._name}.{label}")
        if self.owner is not None:
            self.owner.track(process)
        return process.completion

    def _logical(self, data: bytes, logical_size: float | None) -> float:
        if logical_size is not None:
            return logical_size
        return len(data) * self._scale

    def _logicals(
        self,
        verb: str,
        items: t.Sequence[tuple[str, bytes]],
        logical_sizes: t.Sequence[float] | None,
    ) -> list[float]:
        """The logical size of each of a write's ``items``."""
        if logical_sizes is None:
            return [self._logical(data, None) for _key, data in items]
        if len(logical_sizes) != len(items):
            raise SimulationError(f"{verb}: logical_sizes length does not match items")
        return list(logical_sizes)

    # ------------------------------------------------------------------
    # hooks: what differs between the cache and the relay
    # ------------------------------------------------------------------
    def _read_latency(self) -> float:
        raise NotImplementedError

    def _flow_cap(self) -> float | None:
        """Rate cap of one single-store flow: the caller's NIC."""
        return self.connection_bandwidth

    def _check_fence(self) -> None:
        """Reject a request of a cancelled attempt (the relay fences)."""

    def _parked(self, store: MemoryStore, key: str) -> None:
        """A rendezvous read parked on ``key`` (the relay traces it)."""

    # ------------------------------------------------------------------
    # the steps of every op body
    # ------------------------------------------------------------------
    @staticmethod
    def _consume_ops(store: MemoryStore, amount: float) -> t.Generator:
        """Take ``amount`` rate-limit tokens, in bucket-sized chunks.

        A pipelined batch may exceed the bucket's burst capacity; the
        requests then drain at the sustained rate instead of failing.
        An interrupted wait withdraws its demand, so a dead attempt
        neither burns tokens nor stalls the FIFO behind a ghost.
        """
        remaining = amount
        while remaining > 0:
            take = min(remaining, store.ops.capacity)
            pending = store.ops.consume(take)
            try:
                yield pending
            except BaseException:
                store.ops.cancel(pending)
                raise
            remaining -= take

    @staticmethod
    def _transfer(
        store: MemoryStore, logical: float, cap: float | None, reservation=None
    ) -> t.Generator:
        """Move ``logical`` bytes over ``store``'s NIC (nothing for 0).

        An interrupted transfer aborts its flow.  A push ``reservation``
        holds the flow while it drains, so that cancelling the
        reservation directly can abort it too.
        """
        if logical <= 0:
            return
        flow = store.link.transfer(logical, cap)
        if reservation is not None:
            reservation.transfer_event = flow
        try:
            yield flow
        except BaseException:
            store.link.abort(flow)
            raise
        if reservation is not None:
            reservation.transfer_event = None

    def _read_batch(
        self, store: MemoryStore, keys: list[str], cap: float | None
    ) -> t.Generator:
        """One pipelined read of ``keys`` from ``store``; → their bytes.

        Every key is looked up before anything moves: a missing key fails
        the batch without any of it counted as served.
        """
        yield from self._consume_ops(store, float(len(keys)))
        yield self.sim.timeout(self._read_latency())
        # The attempt may have been cancelled while this request was
        # parked upstream; a zombie must not read (or consume) the
        # winner's data.
        self._check_fence()
        entries = [store._lookup(key) for key in keys]
        total = sum(entry.logical for entry in entries)
        yield from self._transfer(store, total, cap)
        store._record_reads(len(keys), total)
        return [entry.data for entry in entries]

    def _rendezvous_read(self, store: MemoryStore, key: str) -> t.Generator:
        """Read ``key``, *waiting* on ``store`` until it lands; → bytes.

        Where a batch read fails an absent key, this parks the reader on
        the key's watchers and transfers the value once a writer stores
        it.  The park is counted once per read, never as a miss, and the
        fence is re-checked after every wake.
        """
        yield from self._consume_ops(store, 1.0)
        yield self.sim.timeout(self._read_latency())
        self._check_fence()
        waited = False
        while (entry := store._entries.get(key)) is None:
            if not waited:
                waited = True
                store.stats.rendezvous_waits += 1
                self._parked(store, key)
            watcher = store.watch(key)
            try:
                yield watcher
            except BaseException:
                store.unwatch(key, watcher)
                raise
            self._check_fence()
        yield from self._transfer(store, entry.logical, self._flow_cap())
        store._record_reads(1, entry.logical)
        return entry.data


#: ``[(shard index, [key positions...]), ...]`` of one batch.
Groups = list[tuple[int, list[int]]]


class ShardGroup:
    """N stores behind one keyspace: placement, aggregates, fan-out.

    A subclass sets its fan-out rule as two methods: ``_batch_order``
    (the order in which a batch's per-shard groups are issued) and
    ``_nic_shares`` (each group's share of the caller's NIC).
    """

    def __init__(self, sim: Simulator, shards: t.Sequence[MemoryStore]):
        self.sim = sim
        self.shards = shards
        #: Namespaced routers: key namespace → router, so concurrent
        #: sorts on a shared group each route their own keys without
        #: clobbering each other's routing.
        self._routers: dict[str, t.Callable[[str], int | None]] = {}

    def shard_index_for_key(self, key: str) -> int:
        """Stable shard index of ``key`` (router override, else CRC-32 mod N).

        Deliberately *not* Python's randomized ``hash``: placement must
        be identical across runs, retries and speculative attempts or
        the rendezvous breaks.  The router of the longest namespace the
        key lies under decides; a key under none, or one its router does
        not claim, is placed by CRC.
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

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> float:
        """Total usable logical capacity across all shards."""
        return sum(shard.capacity_bytes for shard in self.shards)

    @property
    def used_logical(self) -> float:
        return sum(shard.used_logical for shard in self.shards)

    @property
    def key_count(self) -> int:
        return sum(shard.key_count for shard in self.shards)

    @property
    def fill_fraction(self) -> float:
        return self.used_logical / self.capacity_bytes

    def stats_totals(self) -> dict[str, float]:
        """Summed per-shard counters."""
        totals: dict[str, float] = {}
        for shard in self.shards:
            for field, value in shard.stats.as_dict().items():
                totals[field] = totals.get(field, 0.0) + value
        return totals

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Dedup-eligible writes of ``prefix`` or of keys under it,
        shard by shard (run manifests sort their chunks)."""
        return [entry for shard in self.shards for entry in shard.cas_entries(prefix)]

    # ------------------------------------------------------------------
    # batch fan-out
    # ------------------------------------------------------------------
    def _fan_out(
        self,
        bandwidth: float | None,
        keys: t.Sequence[str],
        issue: t.Callable[[int, list[int], float | None], SimEvent],
        weigh: t.Callable[[int, list[int]], float] | None = None,
    ) -> t.Generator:
        """Issue one sub-batch per shard that ``keys`` touch, all at once.

        ``issue(index, positions, cap)`` starts the sub-batch of shard
        ``index`` at flow cap ``cap``; ``weigh`` gives a group's bytes to
        the rules that split by them.  Returns the sub-batches' results
        reassembled in key order (``None`` where a sub-batch returns
        nothing).
        """
        by_shard: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            by_shard.setdefault(self.shard_index_for_key(key), []).append(position)
        groups = self._batch_order(by_shard)
        caps = self._nic_shares(bandwidth, groups, weigh)
        results = yield self.sim.all_of(
            [issue(index, group, cap) for (index, group), cap in zip(groups, caps)]
        )
        out: list[t.Any] = [None] * len(keys)
        for (_index, positions), values in zip(groups, results):
            for position, value in zip(positions, values or ()):
                out[position] = value
        return out
