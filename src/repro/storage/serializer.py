"""Serialization of call payloads and results.

Lithops ships function arguments and results through object storage as
pickled blobs; we do the same with :mod:`cloudpickle`, which also ships
lambdas and closures by value.  Payload size is what the performance
model charges, so serialization stays on the real byte path.
"""

from __future__ import annotations

import io
import pickle
import typing as t

import cloudpickle

from repro.errors import ExecutorError


def serialize(obj: object) -> bytes:
    """Pickle ``obj`` to bytes with cloudpickle."""
    return cloudpickle.dumps(obj)


def deserialize(data: bytes) -> object:
    """Inverse of :func:`serialize`."""
    return pickle.loads(data)  # noqa: S301 - trusted, in-process data


def serialized_size(obj: object) -> int:
    """Size in bytes of the serialized form (without keeping it)."""
    return len(serialize(obj))


def chunk_bytes(data: bytes, chunk_size: int) -> t.Iterator[bytes]:
    """Split ``data`` into chunks of at most ``chunk_size`` bytes."""
    if chunk_size <= 0:
        raise ExecutorError(f"chunk_size must be positive, got {chunk_size}")
    view = memoryview(data)
    for start in range(0, len(view), chunk_size):
        yield bytes(view[start : start + chunk_size])


def concat_chunks(chunks: t.Iterable[bytes]) -> bytes:
    """Reassemble chunks produced by :func:`chunk_bytes`."""
    buffer = io.BytesIO()
    for chunk in chunks:
        buffer.write(chunk)
    return buffer.getvalue()
