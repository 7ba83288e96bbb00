"""Stored-object model for the simulated object store."""

from __future__ import annotations

import dataclasses
import hashlib


class _Payload:
    """The stored bytes an :class:`ObjectMetadata` has yet to hash."""

    __slots__ = ("_payload",)


@dataclasses.dataclass(frozen=True, slots=True)
class ObjectMetadata(_Payload):
    """What ``HEAD`` returns: identity and sizes, but no payload.

    ``logical_size`` is the size the performance/billing model uses; it
    differs from ``size`` (the real payload length) when the experiment
    runs scaled-down data (see ``CloudProfile.logical_scale``).

    ``etag`` is hashed from ``payload`` (the immutable stored bytes) on
    first read — few ETags ever are — and is a field like any other:
    equality, hashing, ``repr`` and pickling read it.
    """

    bucket: str
    key: str
    size: int
    logical_size: float
    etag: str = dataclasses.field(init=False)
    created_at: float
    payload: dataclasses.InitVar[bytes]

    def __post_init__(self, payload: bytes) -> None:
        object.__setattr__(self, "_payload", payload)

    def __getattr__(self, name: str) -> str:
        # Reached only while the ``etag`` slot is still empty.
        if name != "etag":
            raise AttributeError(name)
        etag = compute_etag(self._payload)
        object.__setattr__(self, "etag", etag)
        object.__delattr__(self, "_payload")
        return etag


@dataclasses.dataclass(slots=True)
class StoredObject:
    """Payload plus metadata, as held by the store."""

    data: bytes
    meta: ObjectMetadata


def compute_etag(data: bytes) -> str:
    """Deterministic content hash used as the object ETag."""
    return hashlib.md5(data).hexdigest()  # noqa: S324 - identity, not security
