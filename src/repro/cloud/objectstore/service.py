"""The simulated object storage service (IBM COS-like).

The model captures the three characteristics the paper's argument rests
on:

1. **limited request throughput** — an account-level token bucket caps
   sustained requests/s ("IBM COS only supports a few thousand
   operations/s"); when the backlog exceeds a threshold the service
   fails requests with :class:`SlowDown`, like the real thing;
2. **large aggregate bandwidth** — all transfers share one max-min
   fair :class:`~repro.sim.links.FairShareLink` whose capacity is far
   above any single connection ("the huge aggregated bandwidth offered
   by object stores");
3. **per-connection bandwidth caps and per-request latency** — each
   GET/PUT pays a first-byte latency and streams at a bounded
   per-connection rate, so few large readers cannot saturate the
   aggregate pipe.

Requests return :class:`~repro.sim.events.SimEvent`s; callers are
simulation processes that ``yield`` them.  The store itself offers only
``put`` and ``head``, for staging inputs and control-plane lookups:
every request a function, a VM or a driver makes — GETs, range GETs,
DELETEs included — goes through the one client,
:class:`~repro.cloud.storageview.BoundStorage`, which runs the same
operation bodies under its bandwidth bound and retry policy.

Real payload bytes are stored verbatim; ``logical_scale`` only affects
*timing and volume billing*, so scaled-down experiments still move real
data through real code.
"""

from __future__ import annotations

import typing as t

from repro.cas import ContentIndex, sha256_hex
from repro.cloud.billing import CostMeter
from repro.cloud.objectstore.blobs import ObjectMetadata, StoredObject
from repro.cloud.objectstore.errors import (
    InternalError,
    InvalidRange,
    NoSuchBucket,
    NoSuchKey,
    SlowDown,
)
from repro.cloud.profiles import GB, ObjectStoreProfile
from repro.obs.metrics import publish_dedup_bytes
from repro.sim import FairShareLink, LazyName, SimEvent, Simulator, TokenBucket, request


class OpStats:
    """Operation counters exposed for planners, reports and tests."""

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.heads = 0
        self.deletes = 0
        self.slowdowns = 0
        self.internal_errors = 0
        self.bytes_in = 0.0  # logical bytes written
        self.bytes_out = 0.0  # logical bytes read
        self.dedup_ops = 0  # PUTs short-circuited by content dedup
        self.dedup_bytes = 0.0  # logical wire bytes those PUTs skipped

    @property
    def total_requests(self) -> int:
        return self.puts + self.gets + self.heads + self.deletes


class ObjectStore:
    """Simulated object storage with COS-like performance and pricing."""

    def __init__(
        self,
        sim: Simulator,
        profile: ObjectStoreProfile,
        meter: CostMeter,
        logical_scale: float = 1.0,
        name: str = "cos",
    ):
        self.sim = sim
        self.profile = profile
        self.meter = meter
        self.logical_scale = logical_scale
        self.name = name
        self._buckets: dict[str, dict[str, StoredObject]] = {}
        self._ops = TokenBucket(
            sim,
            rate=profile.ops_per_second,
            capacity=profile.ops_burst,
            name=f"{name}.ops",
        )
        self._aggregate = FairShareLink(
            sim, capacity=profile.aggregate_bandwidth, name=f"{name}.aggregate"
        )
        self._rng_read = sim.rng.stream(f"{name}.read_latency")
        self._rng_write = sim.rng.stream(f"{name}.write_latency")
        self._rng_faults = sim.rng.stream(f"{name}.faults")
        #: Probability that a data-plane request fails transiently with
        #: :class:`InternalError` after admission (failure injection for
        #: client-retry tests); 0 by default.
        self.fault_probability = 0.0
        self.stats = OpStats()
        # Content addressing: (bucket, sha256) → last key that stored
        # those bytes.  Hits are validated by byte equality, so stale or
        # colliding index entries can never silently alias different
        # content.  ``content`` is used only for its log of
        # dedup-eligible PUTs, for run-manifest construction.
        self._cas_index: dict[tuple[str, str], str] = {}
        self.content = ContentIndex()
        # Stored-volume billing: integral of logical bytes over time.
        self._stored_logical = 0.0
        self._volume_updated_at = sim.now
        self._volume_gb_hours = 0.0

    # ------------------------------------------------------------------
    # buckets
    # ------------------------------------------------------------------
    def ensure_bucket(self, bucket: str) -> None:
        """Create ``bucket`` if it does not already exist."""
        self._buckets.setdefault(bucket, {})

    def _bucket(self, bucket: str) -> dict[str, StoredObject]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise NoSuchBucket(bucket) from None

    # ------------------------------------------------------------------
    # the store's own requests: input staging and control-plane lookups
    # (no retry, no bandwidth bound of a caller).  Every worker and
    # driver request goes through a BoundStorage view instead.
    # ------------------------------------------------------------------
    def put(
        self,
        bucket: str,
        key: str,
        data: bytes,
        logical_size: float | None = None,
        connection_bandwidth: float | None = None,
        dedup: bool = False,
    ) -> SimEvent:
        """Store ``data`` under ``bucket/key``; event → :class:`ObjectMetadata`.

        ``dedup=True`` opts this PUT into content addressing: when
        byte-identical content is already resident in the bucket the
        payload transfer is skipped and the request bills as a cheap
        HEAD-shaped round trip (class B).  The object is still stored
        under ``key`` with full residency semantics either way.
        """
        return self._spawn(
            self._put_op(
                bucket, key, data, logical_size, connection_bandwidth, dedup
            ),
            ("put:{}", key),
        )

    def head(self, bucket: str, key: str) -> SimEvent:
        """Metadata lookup; event → :class:`ObjectMetadata`."""
        return self._spawn(self._head_op(bucket, key), ("head:{}", key))

    def _spawn(self, generator: t.Generator, label: LazyName) -> SimEvent:
        # One process per request, started at issue with no kick-off (see
        # ``repro.sim.events``); the name stays a recipe and is only
        # rendered if somebody reads it.
        return request(self.sim, generator, ("{}.{}", self.name, label))

    # ------------------------------------------------------------------
    # operation bodies (a BoundStorage view runs them inside its own
    # request process, or inside its caller's, so every request is at
    # most one process)
    # ------------------------------------------------------------------
    def _admit(self) -> SimEvent:
        """The rate limiter's event for one request, or fail fast with SlowDown."""
        limit = self.profile.slowdown_after_s
        if limit is not None:
            wait = self._ops.estimated_wait(1.0)
            if wait > limit:
                self.stats.slowdowns += 1
                raise SlowDown(wait)
        return self._ops.consume(1.0)

    def _inject_fault(self, operation: str = "request") -> None:
        """Fail an admitted request transiently when failure injection is on.

        Called right after the admission event: a failed request *has*
        consumed a rate token and a round trip, like a real 500.
        """
        if (
            self.fault_probability > 0.0
            and self._rng_faults.random() < self.fault_probability
        ):
            self.stats.internal_errors += 1
            raise InternalError(operation)

    def _logical(self, real_bytes: float, logical_size: float | None) -> float:
        if logical_size is not None:
            return logical_size
        return real_bytes * self.logical_scale

    def _flow_cap(self, connection_bandwidth: float | None) -> float:
        cap = self.profile.per_connection_bandwidth
        if connection_bandwidth is not None:
            cap = min(cap, connection_bandwidth)
        return cap

    def _put_op(
        self,
        bucket: str,
        key: str,
        data: bytes,
        logical_size: float | None,
        connection_bandwidth: float | None,
        dedup: bool = False,
    ) -> t.Generator:
        objects = self._bucket(bucket)
        sha: str | None = None
        hit = False
        if dedup and data:
            sha = sha256_hex(data)
            existing_key = self._cas_index.get((bucket, sha))
            if existing_key is not None:
                existing = objects.get(existing_key)
                # Byte-equality guard: a deleted/overwritten referent or
                # a hash collision degrades to a normal PUT, never an
                # alias to different content.
                hit = existing is not None and existing.data == data
        yield self._admit()
        self._inject_fault("put")
        logical = self._logical(len(data), logical_size)
        if hit:
            # Content already resident: the request is a metadata round
            # trip (read latency, class B) with no payload transfer.
            yield self.sim.timeout(self.profile.read_latency.sample(self._rng_read))
        else:
            yield self.sim.timeout(self.profile.write_latency.sample(self._rng_write))
            if logical > 0:
                yield self._aggregate.transfer(
                    logical, self._flow_cap(connection_bandwidth)
                )
        data = bytes(data)
        meta = ObjectMetadata(
            bucket=bucket,
            key=key,
            size=len(data),
            logical_size=logical,
            created_at=self.sim.now,
            payload=data,
        )
        self._accrue_volume()
        previous = objects.get(key)
        if previous is not None:
            self._stored_logical -= previous.meta.logical_size
        objects[key] = StoredObject(data, meta)
        self._stored_logical += logical
        self.stats.puts += 1
        if hit:
            self.stats.dedup_ops += 1
            self.stats.dedup_bytes += logical
            publish_dedup_bytes("objectstore", logical)
            self._charge_request("class_b_request", self.profile.class_b_price_usd)
        else:
            self.stats.bytes_in += logical
            self._charge_request("class_a_request", self.profile.class_a_price_usd)
        if sha is not None:
            self._cas_index[(bucket, sha)] = key
            self.content.record(key, sha, logical)
        return meta

    def _get_op(
        self,
        bucket: str,
        key: str,
        byte_range: tuple[int, int] | None,
        connection_bandwidth: float | None,
        missing_ok: bool = False,
    ) -> t.Generator:
        objects = self._bucket(bucket)
        yield self._admit()
        self._inject_fault("get")
        yield self.sim.timeout(self.profile.read_latency.sample(self._rng_read))
        stored = objects.get(key)
        if stored is None:
            if missing_ok:
                return None
            raise NoSuchKey(bucket, key)
        if byte_range is None:
            payload = stored.data
        else:
            start, end = byte_range
            if start < 0 or end < start or start > len(stored.data):
                raise InvalidRange(bucket, key, start, end, len(stored.data))
            payload = stored.data[start:end]
        logical = len(payload) * (
            stored.meta.logical_size / stored.meta.size if stored.meta.size else 1.0
        )
        if logical > 0:
            yield self._aggregate.transfer(logical, self._flow_cap(connection_bandwidth))
        self.stats.gets += 1
        self.stats.bytes_out += logical
        self._charge_request("class_b_request", self.profile.class_b_price_usd)
        return payload

    def _head_op(self, bucket: str, key: str) -> t.Generator:
        objects = self._bucket(bucket)
        yield self._admit()
        self._inject_fault()
        yield self.sim.timeout(self.profile.read_latency.sample(self._rng_read))
        stored = objects.get(key)
        if stored is None:
            raise NoSuchKey(bucket, key)
        self.stats.heads += 1
        self._charge_request("class_b_request", self.profile.class_b_price_usd)
        return stored.meta

    def _delete_op(self, bucket: str, key: str) -> t.Generator:
        objects = self._bucket(bucket)
        yield self._admit()
        self._inject_fault()
        yield self.sim.timeout(self.profile.write_latency.sample(self._rng_write))
        stored = objects.pop(key, None)
        if stored is not None:
            self._accrue_volume()
            self._stored_logical -= stored.meta.logical_size
        self.stats.deletes += 1
        self._charge_request("class_a_request", self.profile.class_a_price_usd)
        return None

    # ------------------------------------------------------------------
    # billing
    # ------------------------------------------------------------------
    def _charge_request(self, item: str, unit_price: float) -> None:
        self.meter.charge(self.sim.now, "objectstore", item, 1.0, unit_price)

    def _accrue_volume(self) -> None:
        now = self.sim.now
        elapsed_hours = (now - self._volume_updated_at) / 3600.0
        if elapsed_hours > 0:
            self._volume_gb_hours += (self._stored_logical / GB) * elapsed_hours
        self._volume_updated_at = now

    def finalize_billing(self) -> None:
        """Charge accrued storage-volume GB-hours.  Call once, at run end."""
        self._accrue_volume()
        if self._volume_gb_hours > 0:
            self.meter.charge(
                self.sim.now,
                "objectstore",
                "storage_gb_hour",
                self._volume_gb_hours,
                self._volume_gb_hours * self.profile.storage_gb_hour_usd,
            )
            self._volume_gb_hours = 0.0

    # ------------------------------------------------------------------
    # introspection helpers (control-plane, free, instantaneous)
    # ------------------------------------------------------------------
    def peek(self, bucket: str, key: str) -> bytes:
        """Read payload without simulation cost (tests/debugging only)."""
        stored = self._bucket(bucket).get(key)
        if stored is None:
            raise NoSuchKey(bucket, key)
        return stored.data

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Dedup-eligible PUTs whose key starts with ``prefix``.

        ``(key, sha256, logical)`` in commit order; run-manifest
        builders filter by their sort's output prefix.
        """
        return self.content.entries(prefix)
