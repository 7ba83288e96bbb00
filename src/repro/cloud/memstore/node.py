"""One node of the simulated cache cluster.

A :class:`CacheNode` is the in-memory store core
(:class:`~repro.cloud.memstore.core.MemoryStore`: entries, content
index, set watchers, a per-node request-rate bucket and NIC) with the
cache's rule for a full node: Redis ``noeviction``, the write is
refused with :class:`~repro.cloud.memstore.errors.CacheOutOfMemory` and
nothing resident is dropped.  The clustering and the client-facing
request flow live in :mod:`repro.cloud.memstore.service`.
"""

from __future__ import annotations

from repro.cloud.memstore.core import MemoryStore, StoreStats
from repro.cloud.memstore.errors import CacheKeyMissing, CacheOutOfMemory
from repro.cloud.profiles import GB, CacheNodeType, MemStoreProfile
from repro.sim import Simulator


class CacheNodeStats(StoreStats):
    """Per-node counters exposed for planners, reports and tests."""

    def __init__(self) -> None:
        super().__init__()
        self.sets = 0
        self.gets = 0
        self.deletes = 0
        self.oom_errors = 0
        #: Dedup'd writes whose referent left between the residency
        #: check and the store (replaced earlier in the same batch, or
        #: deleted meanwhile) — transparently re-sent.
        self.dedup_restores = 0


class CacheNode(MemoryStore):
    """One shard: the store core, refusing writes when full."""

    key_missing = CacheKeyMissing
    reads_counter = "gets"

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        node_type: CacheNodeType,
        profile: MemStoreProfile,
    ):
        super().__init__(
            sim,
            node_id,
            capacity_bytes=node_type.memory_gb * GB * profile.usable_memory_fraction,
            ops_per_second=profile.ops_per_node,
            ops_burst=profile.ops_burst,
            nic_bandwidth=node_type.nic_bandwidth,
        )
        self.node_id = node_id
        self.node_type = node_type
        self.profile = profile
        self.stats = CacheNodeStats()

    def store(
        self, key: str, data: bytes, logical: float, sha: str | None = None
    ) -> None:
        """Insert or replace ``key`` and wake its parked readers.

        Raises :class:`CacheOutOfMemory` when the value does not fit
        beside the rest (the bytes of the value it replaces count as
        free); a refused write leaves the previous value in place.
        """
        previous = self._entries.get(key)
        rest = self.used_logical - (previous.logical if previous is not None else 0.0)
        if logical > self.capacity_bytes or rest + logical > self.capacity_bytes:
            self.stats.oom_errors += 1
            raise CacheOutOfMemory(self.node_id, rest + logical, self.capacity_bytes)
        self._drop(key)
        self._put(key, data, logical, sha)
        self.used_logical = rest + logical
        self.stats.sets += 1
        self.stats.bytes_in += logical
        self._watchers.notify(key)

    def remove(self, key: str) -> bool:
        """Delete ``key`` if present; returns whether it existed."""
        entry = self._drop(key)
        self.stats.deletes += 1
        if entry is None:
            return False
        self.used_logical -= entry.logical
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CacheNode {self.node_id} {self.node_type.name} "
            f"keys={self.key_count} fill={self.fill_fraction:.1%}>"
        )
