"""Stored-object model for the simulated object store."""

from __future__ import annotations

import dataclasses
import functools
import hashlib

from repro.cas import sha256_hex


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
    first read — few ETags ever are — through :func:`compute_etag`'s
    process-wide memo, and is a field like any other: equality, hashing,
    ``repr`` and pickling read it.
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
    """Payload plus metadata, as held by the store.

    ``sha`` is the payload's sha256 content address: the digest a dedup
    PUT already took, or ``None`` until :meth:`address` first hashes a
    non-dedup payload (or an empty one, which no PUT hashes).  The bytes
    never change under it, so the store sha256-hashes each stored byte
    at most once.
    """

    data: bytes
    meta: ObjectMetadata
    sha: str | None = None

    def address(self) -> str:
        """The payload's sha256, hashed on first read only."""
        if self.sha is None:
            self.sha = sha256_hex(self.data)
        return self.sha


@functools.lru_cache(maxsize=8)
def compute_etag(data: bytes) -> str:
    """Deterministic content hash used as the object ETag.

    Memoized on the immutable bytes, process-wide: an experiment stages
    the same dataset payload into a fresh region for every cell and
    sweep row (``methylome_payload`` hands out one ``bytes`` object per
    argument set), and each region's first ETag read would otherwise
    md5 it again.  The bound is that payload memo's, so this memo keeps
    no more payloads alive than it does.
    """
    return hashlib.md5(data).hexdigest()  # noqa: S324 - identity, not security
