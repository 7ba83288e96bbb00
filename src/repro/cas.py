"""Content-addressed hashing core (CAS).

Every exchange artifact in this repo is byte-deterministic across all
four substrates and both execution modes — an invariant the parity
matrices assert on every PR.  This module turns that invariant into a
primitive the rest of the stack can *spend*: a stable content hash for
raw chunk bytes and for structured metadata, which the dedup, lineage
and replay features hang off, plus the one :class:`ContentIndex` every
stateful store keeps of the content it holds.

It deliberately has **zero** intra-repo imports so the storage, cache
and relay services can all use it without cycles.  The object store's
existing ``compute_etag`` (md5, the S3-compatible ETag) stays the
*transport* checksum on :class:`~repro.cloud.objectstore.blobs.ObjectMetadata`;
the CAS layer adds sha256 as the *content address* — the two coexist
exactly as they do on real object stores.

Each stored byte is hashed once per digest.  A dedup write takes the
sha256 that its index and log keep; the object store also keeps it on
the stored object (``ObjectStore.content_address``), where run
manifests and the lineage check read it instead of hashing the bytes
again.  The md5 ETag is memoized process-wide on the immutable payload
(``compute_etag``), which pays because experiments stage one dataset
``bytes`` object into a fresh region for every cell they compare.

Determinism contract: everything here is pure interpreter-side hashing
of real bytes.  No simulation events, no RNG, no clock reads — safe to
call from inside client ops without perturbing timelines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as t


def sha256_hex(data: bytes) -> str:
    """Content address of raw bytes (64 hex chars)."""
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass(slots=True)
class Resident:
    """One stored value: real payload plus its logical size.

    ``sha`` is the value's content address when the write was
    dedup-eligible (``None`` otherwise); it keys the store's
    :class:`ContentIndex`.
    """

    data: bytes
    logical: float
    sha: str | None = None


class ContentIndex:
    """Which content a store holds, and which content it has committed.

    The refcounts map a sha256 to the number of resident values holding
    those bytes: a store calls :meth:`add` when a value becomes resident
    and :meth:`drop` when it leaves (replacement, deletion,
    consume), so residency mirrors the store's entries exactly and a
    drained store has no refcount left.  The log is the append-only
    ``(key, sha256, logical)`` record of dedup-eligible commits that run
    manifests are built from; :meth:`clear` (the store's memory is gone)
    keeps it.
    """

    __slots__ = ("_refs", "_log")

    def __init__(self) -> None:
        self._refs: dict[str, int] = {}
        self._log: list[tuple[str, str, float]] = []

    def add(self, sha: str | None) -> None:
        """A value with address ``sha`` became resident."""
        if sha is not None:
            self._refs[sha] = self._refs.get(sha, 0) + 1

    def drop(self, sha: str | None) -> None:
        """A value with address ``sha`` stopped being resident."""
        if sha is None:
            return
        remaining = self._refs[sha] - 1
        if remaining > 0:
            self._refs[sha] = remaining
        else:
            del self._refs[sha]

    def resident(self, sha: str) -> bool:
        """Whether any resident value holds bytes with this address."""
        return sha in self._refs

    def refcounts(self) -> dict[str, int]:
        """A copy of the refcounts (empty once the store is drained)."""
        return dict(self._refs)

    def clear(self) -> None:
        """Forget every resident value; the log stays."""
        self._refs.clear()

    def record(self, key: str, sha: str, logical: float) -> None:
        """Log one dedup-eligible commit of ``key``."""
        self._log.append((key, sha, logical))

    def entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Logged commits of ``prefix`` or of keys under it, in commit order.

        The prefix matches whole path segments: ``runs/a`` holds
        ``runs/a/m00000.r00001`` but not ``runs/ab/...``, so one sort's
        manifest never takes in a sibling sort's chunks.  A prefix that
        already ends in ``/`` matches the keys below it, and ``""`` every
        key.
        """
        below = prefix if not prefix or prefix.endswith("/") else prefix + "/"
        return [
            entry for entry in self._log
            if entry[0] == prefix or entry[0].startswith(below)
        ]


def stable_serialize(obj: t.Any) -> bytes:
    """Canonical byte encoding of plain nested data.

    Unambiguous by construction — every value is tagged and
    length-prefixed, so ``["ab", "c"]`` and ``["a", "bc"]`` (or a str
    and the identically-spelled bytes) can never serialize to the same
    byte string.  Dict entries are sorted by their encoded key.  The
    repo's serializer (cloudpickle) is *not* hash-stable across runs,
    which is why the CAS layer carries its own encoding.

    Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``list``/``tuple``, ``dict``.  Anything else raises
    ``TypeError`` — silent ``repr`` coercion could smuggle memory
    addresses into a supposedly stable hash.
    """
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def _encode(obj: t.Any, out: bytearray) -> None:
    if obj is None:
        out += b"n;"
    elif isinstance(obj, bool):
        out += b"b1;" if obj else b"b0;"
    elif isinstance(obj, int):
        body = repr(obj).encode("ascii")
        out += b"i%d:" % len(body) + body
    elif isinstance(obj, float):
        body = repr(obj).encode("ascii")
        out += b"f%d:" % len(body) + body
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        out += b"s%d:" % len(body) + body
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        body = bytes(obj)
        out += b"y%d:" % len(body) + body
    elif isinstance(obj, (list, tuple)):
        out += b"l%d:" % len(obj)
        for item in obj:
            _encode(item, out)
        out += b";"
    elif isinstance(obj, dict):
        encoded: list[tuple[bytes, t.Any]] = []
        for key, value in obj.items():
            key_out = bytearray()
            _encode(key, key_out)
            encoded.append((bytes(key_out), value))
        encoded.sort(key=lambda pair: pair[0])
        out += b"d%d:" % len(encoded)
        for key_bytes, value in encoded:
            out += key_bytes
            _encode(value, out)
        out += b";"
    else:
        raise TypeError(
            f"stable_serialize cannot encode {type(obj).__name__!r}; "
            "coerce to plain data first"
        )


def content_hash(obj: t.Any) -> str:
    """sha256 of the stable serialization (64 hex chars)."""
    return sha256_hex(stable_serialize(obj))


def output_digest(cloud: t.Any, result: t.Any, *, full: bool = False) -> str:
    """sha256-over-runs digest of a sort's output artifact.

    The one byte-parity fingerprint every sweep and bench compares:
    the sorted runs' real bytes, peeked free of charge in partition
    order.  ``full`` returns all 64 hex chars (the speculation sweep
    compares whole digests); the default is the 16-char prefix the
    sweep tables print.
    """
    digest = hashlib.sha256()
    for run in result.runs:
        digest.update(cloud.store.peek(run.bucket, run.key))
    text = digest.hexdigest()
    return text if full else text[:16]
