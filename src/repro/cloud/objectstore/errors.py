"""Object-store error types, mirroring S3/COS error codes."""

from __future__ import annotations

from repro.errors import StorageError


class NoSuchBucket(StorageError):
    """The referenced bucket does not exist."""

    def __init__(self, bucket: str):
        super().__init__(f"bucket does not exist: {bucket!r}")
        self.bucket = bucket


class NoSuchKey(StorageError):
    """The referenced object does not exist."""

    def __init__(self, bucket: str, key: str):
        super().__init__(f"object does not exist: {bucket!r}/{key!r}")
        self.bucket = bucket
        self.key = key


class SlowDown(StorageError):
    """The request rate exceeds the service limit (HTTP 503 SlowDown).

    Clients are expected to back off and retry; every
    :class:`~repro.cloud.storageview.BoundStorage` does so automatically.
    """

    def __init__(self, estimated_wait_s: float):
        super().__init__(
            f"request rate exceeded; estimated backlog {estimated_wait_s:.1f}s"
        )
        self.estimated_wait_s = estimated_wait_s


class InternalError(StorageError):
    """A transient service-side failure (HTTP 500 InternalError).

    Real object stores return these under load or during internal
    failovers; clients are expected to retry, and every
    :class:`~repro.cloud.storageview.BoundStorage` does so automatically.
    Raised by the simulated store's failure injection
    (``ObjectStore.fault_probability``).
    """

    def __init__(self, operation: str):
        super().__init__(f"transient internal error during {operation}")
        self.operation = operation


class InvalidRange(StorageError):
    """A byte-range request fell outside the object."""

    def __init__(self, bucket: str, key: str, start: int, end: int, size: int):
        super().__init__(
            f"invalid range [{start}, {end}) for {bucket!r}/{key!r} of size {size}"
        )
        self.start = start
        self.end = end
        self.size = size

