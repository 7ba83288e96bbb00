"""Serialization of call payloads and results.

Lithops ships function arguments and results through object storage as
pickled blobs; we do the same with :mod:`cloudpickle`, which also ships
lambdas and closures by value.  Payload size is what the performance
model charges, so serialization stays on the real byte path.
"""

from __future__ import annotations

import pickle

import cloudpickle


def serialize(obj: object) -> bytes:
    """Pickle ``obj`` to bytes with cloudpickle."""
    return cloudpickle.dumps(obj)


def deserialize(data: bytes) -> object:
    """Inverse of :func:`serialize`."""
    return pickle.loads(data)  # noqa: S301 - trusted, in-process data
