"""Exceptions raised by the in-memory key-value store service."""

from __future__ import annotations

from repro.errors import StorageError


class MemStoreError(StorageError):
    """Base class for cache-service failures."""


class UnknownCacheNodeType(MemStoreError):
    """A requested node type is not in the catalog."""

    def __init__(self, type_name: str, available: list[str]):
        super().__init__(
            f"unknown cache node type {type_name!r}; available: {sorted(available)}"
        )
        self.type_name = type_name
        self.available = list(available)


class CacheKeyMissing(MemStoreError):
    """GET on a key the cluster does not hold."""

    def __init__(self, key: str):
        super().__init__(f"cache key not found: {key!r}")
        self.key = key


class CacheOutOfMemory(MemStoreError):
    """A write did not fit: a full cache node refuses it (``noeviction``)."""

    def __init__(self, node_id: str, needed: float, capacity: float):
        super().__init__(
            f"cache node {node_id} out of memory: need {needed:.0f} logical "
            f"bytes, capacity {capacity:.0f}"
        )
        self.node_id = node_id
        self.needed = needed
        self.capacity = capacity


class ClusterNotRunning(MemStoreError):
    """An operation reached a cluster that is not in the running state."""

    def __init__(self, cluster_id: str, state: str):
        super().__init__(f"cache cluster {cluster_id} is {state}, not running")
        self.cluster_id = cluster_id
        self.state = state


class ClusterAlreadyTerminated(MemStoreError):
    """``terminate()`` called twice on the same cluster."""

    def __init__(self, cluster_id: str):
        super().__init__(f"cache cluster {cluster_id} already terminated")
        self.cluster_id = cluster_id


class UnknownCluster(MemStoreError):
    """A cluster id does not resolve to a provisioned cluster."""

    def __init__(self, cluster_id: str):
        super().__init__(f"unknown cache cluster: {cluster_id!r}")
        self.cluster_id = cluster_id
