"""Lithops-like storage client with retry/backoff.

:class:`Storage` wraps a (possibly bandwidth-bounded) object store with
automatic backoff-and-retry on :class:`SlowDown` throttling errors — the
behaviour real COS clients implement and the paper's shuffle relies on
when the function count is mis-sized.

All methods return :class:`~repro.sim.events.SimEvent`s; callers are
simulation processes.
"""

from __future__ import annotations

import typing as t

from repro.cloud.retry import RETRYABLE_ERRORS, RetryPolicy, retry_loop
from repro.cloud.storageview import BoundStorage
from repro.sim import SimEvent, Simulator, request

__all__ = ["RETRYABLE_ERRORS", "RetryPolicy", "Storage"]


class Storage:
    """High-level storage client for simulated analytics code."""

    def __init__(
        self,
        sim: Simulator,
        backend: BoundStorage,
        retry: RetryPolicy | None = None,
        name: str = "storage",
    ):
        self.sim = sim
        self.backend = backend
        self.retry = retry if retry is not None else RetryPolicy()
        self.name = name
        self.backoff_rng = sim.rng.stream(f"{name}.backoff")
        #: Number of SlowDown retries performed (visible to tests/reports).
        self.retries = 0

    # ------------------------------------------------------------------
    # retry plumbing
    # ------------------------------------------------------------------
    def _with_retry(
        self, make_request: t.Callable[[], t.Generator], label: str
    ) -> SimEvent:
        """Run ``make_request`` with backoff-and-retry on SlowDown, in one process.

        Each attempt is the backend's request run inline by
        :func:`~repro.cloud.retry.retry_loop`; the loop starts at issue,
        with no kick-off (:func:`~repro.sim.request`).
        """
        return request(
            self.sim,
            retry_loop(self, self.sim, label, make_request),
            ("{}.{}", self.name, label),
        )

    # ------------------------------------------------------------------
    # byte-level API
    # ------------------------------------------------------------------
    def put_object(
        self, bucket: str, key: str, data: bytes, logical_size: float | None = None
    ) -> SimEvent:
        return self._with_retry(
            lambda: self.backend.put_request(bucket, key, data, logical_size),
            f"put:{key}",
        )

    def get_object(self, bucket: str, key: str) -> SimEvent:
        return self._with_retry(
            lambda: self.backend.get_request(bucket, key), f"get:{key}"
        )

    def get_object_range(self, bucket: str, key: str, start: int, end: int) -> SimEvent:
        return self._with_retry(
            lambda: self.backend.get_range_request(bucket, key, start, end),
            f"get_range:{key}",
        )

    def head_object(self, bucket: str, key: str) -> SimEvent:
        return self._with_retry(
            lambda: self.backend.head_request(bucket, key), f"head:{key}"
        )

    def list_keys(self, bucket: str, prefix: str = "") -> SimEvent:
        return self._with_retry(
            lambda: self.backend.list_keys_request(bucket, prefix), f"list:{prefix}"
        )

    def delete_object(self, bucket: str, key: str) -> SimEvent:
        return self._with_retry(
            lambda: self.backend.delete_request(bucket, key), f"delete:{key}"
        )
