"""Simulated object storage service (IBM COS-like)."""

from repro.cloud.objectstore.blobs import ObjectMetadata, StoredObject
from repro.cloud.objectstore.errors import (
    BucketAlreadyExists,
    InvalidRange,
    NoSuchBucket,
    NoSuchKey,
    SlowDown,
)
from repro.cloud.objectstore.service import ObjectStore, OpStats

__all__ = [
    "BucketAlreadyExists",
    "InvalidRange",
    "NoSuchBucket",
    "NoSuchKey",
    "ObjectMetadata",
    "ObjectStore",
    "OpStats",
    "SlowDown",
    "StoredObject",
]
