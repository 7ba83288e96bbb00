"""Bandwidth-bounded, retrying views over the object store.

Compute nodes (function instances, VMs) do not talk to object storage at
the store's full per-connection speed: their own NIC caps the rate.  A
:class:`BoundStorage` wraps an :class:`~repro.cloud.objectstore.ObjectStore`
and threads the caller's bandwidth bound through every data-plane call.

It is the one object-store client: every function, every VM and the
executor's driver (unbounded, ``connection_bandwidth=None``) use it.
Like the SDK real Lithops workers and drivers use, it retries 503/500
responses under :data:`~repro.cloud.retry.RETRY_POLICY`, so transient
storage failures cost backoff time, not the whole activation.
"""

from __future__ import annotations

import typing as t

from repro.cloud.objectstore.service import ObjectStore
from repro.cloud.retry import retry_loop
from repro.obs.trace import NOOP_SPAN
from repro.sim import LazyName, SimEvent, request


class BoundStorage:
    """Object-store facade with a fixed per-connection bandwidth bound.

    All data-plane methods mirror :class:`ObjectStore` and return
    :class:`~repro.sim.events.SimEvent`s for processes to yield; the
    ``*_request`` methods return the same request as a generator.
    """

    def __init__(
        self,
        store: ObjectStore,
        connection_bandwidth: float | None,
        name: str = "bound",
    ):
        self._store = store
        self.connection_bandwidth = connection_bandwidth
        self.name = name
        self.backoff_rng = store.sim.rng.stream(f"{name}.backoff")
        #: Transient-error retries performed (visible to tests/reports).
        self.retries = 0
        #: The owning attempt's trace span (the FaaS context binds it);
        #: noop when tracing is off.
        self.span = NOOP_SPAN

    # -- requests --------------------------------------------------------
    # A request is the store's op body run in at most one process: the
    # verbs start it at issue (``repro.sim.request``), and the retry loop
    # runs each attempt inline with ``yield from`` (see "Simulator hot
    # path" in repro.sim.events).  The ``*_request`` forms are the same
    # generator for a caller that runs it in a process it already has
    # (``repro.sim.inline``).
    def _spawn(self, body: t.Generator, label: LazyName) -> SimEvent:
        return request(self._store.sim, body, ("{}.{}", self.name, label))

    def _request(self, label: LazyName, body: t.Callable, *args) -> t.Generator:
        return retry_loop(self, self._store.sim, label, body, *args)

    # -- data plane ----------------------------------------------------
    def put(
        self,
        bucket: str,
        key: str,
        data: bytes,
        logical_size: float | None = None,
        dedup: bool = False,
    ) -> SimEvent:
        return self._spawn(
            self.put_request(bucket, key, data, logical_size, dedup), ("put:{}", key)
        )

    def put_request(
        self,
        bucket: str,
        key: str,
        data: bytes,
        logical_size: float | None = None,
        dedup: bool = False,
    ) -> t.Generator:
        if self.span.recording:
            self.span.event(
                "storage.put", key=key, bytes=len(data),
                logical=logical_size if logical_size is not None else len(data),
            )
        return self._request(
            ("put:{}", key), self._store._put_op,
            bucket, key, data, logical_size, self.connection_bandwidth, dedup,
        )

    def get(self, bucket: str, key: str, missing_ok: bool = False) -> SimEvent:
        """Whole-object GET; ``missing_ok`` as on :meth:`ObjectStore.get`."""
        return self._spawn(self.get_request(bucket, key, missing_ok), ("get:{}", key))

    def get_request(self, bucket: str, key: str, missing_ok: bool = False) -> t.Generator:
        if self.span.recording:
            self.span.event("storage.get", key=key)
        return self._request(
            ("get:{}", key), self._store._get_op,
            bucket, key, None, self.connection_bandwidth, missing_ok,
        )

    def get_range(self, bucket: str, key: str, start: int, end: int) -> SimEvent:
        return self._spawn(
            self.get_range_request(bucket, key, start, end), ("get_range:{}", key)
        )

    def get_range_request(
        self, bucket: str, key: str, start: int, end: int
    ) -> t.Generator:
        if self.span.recording:
            self.span.event(
                "storage.get_range", key=key, start=start, end=end
            )
        return self._request(
            ("get_range:{}", key), self._store._get_op,
            bucket, key, (start, end), self.connection_bandwidth,
        )

    def head(self, bucket: str, key: str) -> SimEvent:
        return self._spawn(self.head_request(bucket, key), ("head:{}", key))

    def head_request(self, bucket: str, key: str) -> t.Generator:
        return self._request(("head:{}", key), self._store._head_op, bucket, key)

    def list_keys(self, bucket: str, prefix: str = "") -> SimEvent:
        return self._spawn(self.list_keys_request(bucket, prefix), ("list:{}", prefix))

    def list_keys_request(self, bucket: str, prefix: str = "") -> t.Generator:
        return self._request(("list:{}", prefix), self._store._list_op, bucket, prefix)

    def delete(self, bucket: str, key: str) -> SimEvent:
        return self._spawn(self.delete_request(bucket, key), ("delete:{}", key))

    def delete_request(self, bucket: str, key: str) -> t.Generator:
        return self._request(("delete:{}", key), self._store._delete_op, bucket, key)

    # -- derived views -------------------------------------------------
    def bounded(self, connection_bandwidth: float) -> "BoundStorage":
        """A stricter view, e.g. for splitting a NIC across parallel streams.

        The effective bound is the minimum of this view's bound and the
        requested one, so a derived view can never exceed its parent.
        It shares the parent's name, so its backoffs draw from the same
        stream.
        """
        if self.connection_bandwidth is not None:
            connection_bandwidth = min(connection_bandwidth, self.connection_bandwidth)
        view = BoundStorage(self._store, connection_bandwidth, name=self.name)
        view.span = self.span
        return view

    # -- passthrough ---------------------------------------------------
    @property
    def raw(self) -> ObjectStore:
        """The underlying store (control-plane helpers, stats)."""
        return self._store
