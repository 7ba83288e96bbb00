"""Bandwidth-bounded views over the object store.

Compute nodes (function instances, VMs) do not talk to object storage at
the store's full per-connection speed: their own NIC caps the rate.  A
:class:`BoundStorage` wraps an :class:`~repro.cloud.objectstore.ObjectStore`
and threads the caller's bandwidth bound through every data-plane call.

Worker-side views additionally carry a :class:`~repro.cloud.retry.RetryPolicy`:
real Lithops workers use an SDK that retries 503/500 responses inside
the function, so transient storage failures cost backoff time — not the
whole activation.  Views without a policy surface errors directly (the
driver-side :class:`~repro.storage.api.Storage` client layers its own
retries on top).
"""

from __future__ import annotations

import typing as t

from repro.cloud.objectstore.service import ObjectStore
from repro.cloud.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.errors import StorageError
from repro.obs.trace import NOOP_SPAN
from repro.sim import LazyName, SimEvent, render_name


class BoundStorage:
    """Object-store facade with a fixed per-connection bandwidth bound.

    All data-plane methods mirror :class:`ObjectStore` and return
    :class:`~repro.sim.events.SimEvent`s for processes to yield.
    """

    def __init__(
        self,
        store: ObjectStore,
        connection_bandwidth: float | None,
        retry: RetryPolicy | None = None,
        name: str = "bound",
    ):
        self._store = store
        self.connection_bandwidth = connection_bandwidth
        self.retry = retry
        self.name = name
        self._rng = store.sim.rng.stream(f"{name}.backoff") if retry else None
        #: Transient-error retries performed (visible to tests/reports).
        self.retries = 0
        #: The owning attempt's trace span (the FaaS context binds it);
        #: noop when tracing is off.
        self.span = NOOP_SPAN

    # -- retry plumbing --------------------------------------------------
    def _call(self, make_event: t.Callable[[], SimEvent], label: LazyName) -> SimEvent:
        if self.retry is None:
            return make_event()
        return self._store.sim.process(
            self._retry_loop(make_event, label), ("{}.{}", self.name, label)
        ).completion

    def _retry_loop(
        self, make_event: t.Callable[[], SimEvent], label: LazyName
    ) -> t.Generator:
        attempt = 1
        while True:
            try:
                result = yield make_event()
                return result
            except RETRYABLE_ERRORS as exc:
                if attempt >= self.retry.max_attempts:
                    raise StorageError(
                        f"{render_name(label)}: still failing after "
                        f"{self.retry.max_attempts} attempts ({exc})"
                    )
                self.retries += 1
                yield self._store.sim.timeout(
                    self.retry.delay(attempt, self._rng)
                )
                attempt += 1

    # -- data plane ----------------------------------------------------
    def put(
        self,
        bucket: str,
        key: str,
        data: bytes,
        logical_size: float | None = None,
        dedup: bool = False,
    ) -> SimEvent:
        if self.span.recording:
            self.span.event(
                "storage.put", key=key, bytes=len(data),
                logical=logical_size if logical_size is not None else len(data),
            )
        return self._call(
            lambda: self._store.put(
                bucket,
                key,
                data,
                logical_size=logical_size,
                connection_bandwidth=self.connection_bandwidth,
                dedup=dedup,
            ),
            ("put:{}", key),
        )

    def get(self, bucket: str, key: str, missing_ok: bool = False) -> SimEvent:
        """Whole-object GET; ``missing_ok`` as on :meth:`ObjectStore.get`."""
        if self.span.recording:
            self.span.event("storage.get", key=key)
        return self._call(
            lambda: self._store.get(
                bucket,
                key,
                connection_bandwidth=self.connection_bandwidth,
                missing_ok=missing_ok,
            ),
            ("get:{}", key),
        )

    def get_range(self, bucket: str, key: str, start: int, end: int) -> SimEvent:
        if self.span.recording:
            self.span.event(
                "storage.get_range", key=key, start=start, end=end
            )
        return self._call(
            lambda: self._store.get_range(
                bucket, key, start, end,
                connection_bandwidth=self.connection_bandwidth,
            ),
            ("get_range:{}", key),
        )

    def head(self, bucket: str, key: str) -> SimEvent:
        return self._call(lambda: self._store.head(bucket, key), ("head:{}", key))

    def list_keys(self, bucket: str, prefix: str = "") -> SimEvent:
        return self._call(
            lambda: self._store.list_keys(bucket, prefix), ("list:{}", prefix)
        )

    def delete(self, bucket: str, key: str) -> SimEvent:
        return self._call(
            lambda: self._store.delete(bucket, key), ("delete:{}", key)
        )

    def create_multipart_upload(self, bucket: str, key: str) -> SimEvent:
        return self._call(
            lambda: self._store.create_multipart_upload(bucket, key),
            ("mpu:{}", key),
        )

    def upload_part(
        self,
        upload_id: str,
        part_number: int,
        data: bytes,
        logical_size: float | None = None,
    ) -> SimEvent:
        return self._call(
            lambda: self._store.upload_part(
                upload_id,
                part_number,
                data,
                logical_size=logical_size,
                connection_bandwidth=self.connection_bandwidth,
            ),
            ("part:{}:{}", upload_id, part_number),
        )

    def complete_multipart_upload(self, upload_id: str) -> SimEvent:
        return self._call(
            lambda: self._store.complete_multipart_upload(upload_id),
            ("mpuc:{}", upload_id),
        )

    # -- derived views -------------------------------------------------
    def bounded(self, connection_bandwidth: float) -> "BoundStorage":
        """A stricter view, e.g. for splitting a NIC across parallel streams.

        The effective bound is the minimum of this view's bound and the
        requested one, so a derived view can never exceed its parent.
        The retry policy carries over.
        """
        if self.connection_bandwidth is not None:
            connection_bandwidth = min(connection_bandwidth, self.connection_bandwidth)
        view = BoundStorage(
            self._store, connection_bandwidth, retry=self.retry, name=self.name
        )
        view.span = self.span
        return view

    # -- passthrough ---------------------------------------------------
    @property
    def raw(self) -> ObjectStore:
        """The underlying store (control-plane helpers, stats)."""
        return self._store
