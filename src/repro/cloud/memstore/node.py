"""One node of the simulated cache cluster.

A :class:`CacheNode` owns a shard of the key space: a bounded in-memory
byte store with LRU bookkeeping, a per-node request-rate token bucket,
and a per-node NIC modeled as a fair-share link.  The clustering and the
client-facing request flow live in :mod:`repro.cloud.memstore.service`;
the node is pure capacity + bookkeeping.

Real payload bytes are stored verbatim.  Capacity accounting uses
*logical* bytes (real bytes times the experiment's ``logical_scale``) so
scaled-down runs hit memory limits at the same logical dataset sizes as
full-scale ones.
"""

from __future__ import annotations

import collections

from repro.cas import ContentIndex, Resident
from repro.cloud.memstore.errors import CacheOutOfMemory
from repro.cloud.profiles import (
    ALLKEYS_LRU,
    NOEVICTION,
    GB,
    CacheNodeType,
    MemStoreProfile,
)
from repro.sim import FairShareLink, KeyedWatch, SimEvent, Simulator, TokenBucket


class CacheNodeStats:
    """Per-node counters exposed for planners, reports and tests."""

    def __init__(self) -> None:
        self.sets = 0
        self.gets = 0
        self.deletes = 0
        self.misses = 0
        self.evictions = 0
        self.oom_errors = 0
        #: GETs that arrived before their key and parked on the set
        #: notification (the streaming shuffle's rendezvous reads).
        self.rendezvous_waits = 0
        self.bytes_in = 0.0  # logical bytes written
        self.bytes_out = 0.0  # logical bytes read
        #: Writes whose value was already resident (content dedup) and
        #: therefore skipped the wire transfer.
        self.dedup_hits = 0
        #: Dedup'd writes whose referent was evicted between the
        #: residency check and the store — transparently re-sent.
        self.dedup_restores = 0
        self.dedup_bytes = 0.0  # logical wire bytes dedup skipped

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


class CacheNode:
    """One shard: bounded LRU byte store + request-rate + NIC models."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        node_type: CacheNodeType,
        profile: MemStoreProfile,
    ):
        self.sim = sim
        self.node_id = node_id
        self.node_type = node_type
        self.profile = profile
        #: Logical bytes this node can hold.
        self.capacity_bytes = (
            node_type.memory_gb * GB * profile.usable_memory_fraction
        )
        self.used_logical = 0.0
        #: Insertion/access-ordered entries; the front is least recent.
        self._entries: collections.OrderedDict[str, Resident] = collections.OrderedDict()
        self.ops = TokenBucket(
            sim,
            rate=profile.ops_per_node,
            capacity=profile.ops_burst,
            name=f"{node_id}.ops",
        )
        self.link = FairShareLink(
            sim, capacity=node_type.nic_bandwidth, name=f"{node_id}.nic"
        )
        #: Set-notification watchers: readers parked until a key lands.
        self._watchers = KeyedWatch(sim, name=f"{node_id}.watch")
        #: Tombstones of LRU-evicted keys: a rendezvous read that arrives
        #: after the eviction must fail (the value is gone and committed
        #: stream chunks are never re-published), not park forever.
        #: Cleared when the key is stored again.  Deliberately
        #: *unbounded*: a rotation cap would let a late reader park on a
        #: long-ago-evicted key and hang silently, and the set is
        #: anyway bounded by the run's total evictions (a few dozen
        #: bytes each in a run-scoped simulation) — correctness over
        #: memory here.
        self._evicted_keys: set[str] = set()
        #: Content held and committed: identical values are counted,
        #: not re-sent on the wire; eviction and deletion decrement, so
        #: residency here always mirrors ``_entries`` exactly.
        self.content = ContentIndex()
        self.stats = CacheNodeStats()

    # ------------------------------------------------------------------
    # bookkeeping (synchronous; the service layer pays latency/bandwidth)
    # ------------------------------------------------------------------
    def store(self, key: str, data: bytes, logical: float, sha: str | None = None) -> int:
        """Insert or replace ``key``; returns how many keys were evicted.

        Raises :class:`CacheOutOfMemory` when the value cannot fit — a
        value larger than the node, or a full node under ``noeviction``.
        """
        if logical > self.capacity_bytes:
            self.stats.oom_errors += 1
            raise CacheOutOfMemory(self.node_id, logical, self.capacity_bytes)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.used_logical -= previous.logical
            self.content.drop(previous.sha)

        evicted = 0
        while self.used_logical + logical > self.capacity_bytes:
            if self.profile.eviction_policy == NOEVICTION:
                # Put the displaced entry back: a refused write must not
                # lose the previous value of the key.
                if previous is not None:
                    self._entries[key] = previous
                    self.used_logical += previous.logical
                    self.content.add(previous.sha)
                self.stats.oom_errors += 1
                raise CacheOutOfMemory(
                    self.node_id, self.used_logical + logical, self.capacity_bytes
                )
            assert self.profile.eviction_policy == ALLKEYS_LRU
            victim_key, victim = self._entries.popitem(last=False)
            self.used_logical -= victim.logical
            evicted += 1
            self._evicted_keys.add(victim_key)
            self.content.drop(victim.sha)

        self._entries[key] = Resident(bytes(data), logical, sha)
        self.content.add(sha)
        if sha is not None:
            self.content.record(key, sha, logical)
        self._evicted_keys.discard(key)
        self.used_logical += logical
        self.stats.sets += 1
        self.stats.bytes_in += logical
        self.stats.evictions += evicted
        self._watchers.notify(key)
        return evicted

    # ------------------------------------------------------------------
    # set notification (the streaming shuffle's rendezvous reads)
    # ------------------------------------------------------------------
    def watch(self, key: str) -> SimEvent:
        """An event that succeeds the next time ``key`` is stored."""
        return self._watchers.watch(key)

    def was_evicted(self, key: str) -> bool:
        """Whether ``key`` was LRU-evicted and not stored since.

        A rendezvous read checks this before parking: parking on an
        evicted key would hang forever where a plain GET raises
        :class:`~repro.cloud.memstore.errors.CacheKeyMissing`.
        """
        return key in self._evicted_keys

    def unwatch(self, key: str, event: SimEvent) -> None:
        """Drop a watcher (an interrupted reader cleans up after itself)."""
        self._watchers.unwatch(key, event)

    def fail_watchers(self, exc: BaseException) -> None:
        """Fail every parked watcher (the cluster is going away)."""
        self._watchers.fail_all(lambda _key: exc)

    def fetch(self, key: str) -> Resident | None:
        """Look up ``key``, refreshing its LRU position.  None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.gets += 1
        self.stats.bytes_out += entry.logical
        return entry

    def remove(self, key: str) -> bool:
        """Delete ``key`` if present; returns whether it existed."""
        entry = self._entries.pop(key, None)
        self.stats.deletes += 1
        if entry is None:
            return False
        self.used_logical -= entry.logical
        self.content.drop(entry.sha)
        return True

    def contains(self, key: str) -> bool:
        """Membership check without touching LRU order or stats."""
        return key in self._entries

    @property
    def key_count(self) -> int:
        return len(self._entries)

    @property
    def fill_fraction(self) -> float:
        """Used capacity as a fraction of usable memory (0..1)."""
        return self.used_logical / self.capacity_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CacheNode {self.node_id} {self.node_type.name} "
            f"keys={self.key_count} fill={self.fill_fraction:.1%}>"
        )
