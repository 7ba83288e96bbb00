"""Streaming exchange: backpressure-aware pipelined map→reduce shuffle.

Every substrate in :mod:`repro.shuffle` historically ran *staged*: the
full map wave had to finish before any reducer launched, so even the
fastest substrate paid a hard wave barrier.  This module removes the
barrier.  A :class:`~repro.shuffle.operator.ShuffleSort` whose backend
was built with ``stream=StreamConfig(...)`` launches the reduce wave
concurrently with the map wave; mappers cut their split into chunks and
publish each chunk's partition segments as soon as they are produced,
and reducers *subscribe* to their partition across every mapper,
fetching and pre-sorting chunks while upstream mappers are still
reading input.

The per-partition readiness protocol is substrate-shaped:

* **object storage** — manifest polling.  A mapper PUTs one combined
  chunk object (write-combining, exactly like the staged mapper) plus
  one tiny immutable per-chunk manifest carrying the chunk's offset
  table, and an end-of-stream object with the final chunk count.
  Reducers poll for the next manifest (with gentle backoff) and
  range-GET their segment.  Every object's content is deterministic, so
  crash-retried and speculative mappers overwrite byte-identical data —
  the protocol stays idempotent without coordination.
* **cache** — memstore notification.  Readers park on the owning node's
  set notification (:meth:`~repro.cloud.memstore.service.CacheClient.get_wait`)
  instead of polling; mappers MSET one value per (mapper, reducer,
  chunk) plus a header announcing the chunk count.
* **relay / sharded fleet** — the relay's natural rendezvous semantics:
  :meth:`~repro.cloud.vm.relay.RelayClient.pull_wait` blocks until the
  key commits (attempt-fencing and cancellation included), so a reducer
  simply pulls chunk keys that do not exist yet.

Reducer-side flow control: each reducer owns a **bounded buffer** of
fetched-but-unsorted chunks.  When the buffer is full the reducer stops
fetching (a backpressure wait, counted and timed), resuming as its
sorter drains — on the relay substrate unfetched chunks additionally
occupy relay memory, so the pressure propagates to mappers through the
relay's own admission control.  The incremental sorter charges exactly
the staged reducer's sort CPU, just overlapped with the map wave; the
final merge of the pre-sorted chunk runs is folded into that pass, so
streaming's win is pure overlap and the sorted artifact is
**byte-identical** to the staged one (chunks are reassembled in
(mapper, chunk) order before the final stable sort — the same record
order the staged reducer sees).

Fault handling and speculation are inherited wholesale: streams are
never consumed destructively, every publish is an idempotent overwrite
of deterministic content, and all clients are attempt-scoped — a
crashed or cancelled worker's in-flight transfers are reclaimed and its
zombie requests fenced, exactly as on the staged paths (the chaos and
speculation-parity matrices cover ``streaming_sort`` too).
"""

from __future__ import annotations

import collections
import dataclasses
import typing as t

from repro.errors import ShuffleError
from repro.shuffle import kernels
from repro.shuffle.stages import read_split, write_run
from repro.sim import SimEvent, inline
from repro.storage.serializer import deserialize, serialize


@dataclasses.dataclass(slots=True)
class StreamConfig:
    """Knobs of the streaming exchange (sizes in *logical* bytes)."""

    #: Target logical bytes per mapper chunk (the pipelining grain):
    #: smaller chunks overlap more but pay more per-chunk requests.
    chunk_bytes: float = 32 * (1 << 20)
    #: Reducer-side buffer bound on fetched-but-unsorted chunks;
    #: ``None`` disables backpressure (unbounded buffer).  A single
    #: chunk is always admitted, so a bound below the chunk size
    #: throttles without deadlocking.
    buffer_bytes: float | None = 256 * (1 << 20)
    #: Manifest poll cadence of the object-storage reducer (the other
    #: substrates push notifications and never poll).
    poll_interval_s: float = 0.2


# ----------------------------------------------------------------------
# stream key layout
# ----------------------------------------------------------------------
def stream_chunk_object_key(prefix: str, mapper_id: int, chunk: int) -> str:
    """COS object holding mapper ``mapper_id``'s combined chunk ``chunk``."""
    return f"{prefix}/m{mapper_id:05d}.c{chunk:05d}"


def stream_manifest_key(prefix: str, mapper_id: int, chunk: int) -> str:
    """COS object holding chunk ``chunk``'s offset table (immutable)."""
    return f"{prefix}/m{mapper_id:05d}.mf{chunk:05d}"


def stream_eos_key(prefix: str, mapper_id: int) -> str:
    """COS object announcing mapper ``mapper_id``'s final chunk count."""
    return f"{prefix}/m{mapper_id:05d}.eos"


def stream_header_key(prefix: str, mapper_id: int) -> str:
    """Relay/cache key announcing mapper ``mapper_id``'s chunk count."""
    return f"{prefix}/m{mapper_id:05d}.hdr"


def stream_segment_key(
    prefix: str, mapper_id: int, reducer_id: int, chunk: int
) -> str:
    """Relay/cache key of one (mapper, reducer, chunk) segment."""
    return f"{prefix}/m{mapper_id:05d}.r{reducer_id:05d}.c{chunk:05d}"


def poll_object(ctx, bucket: str, key: str, interval: float) -> t.Generator:
    """GET ``bucket/key``, polling with gentle backoff until it exists.

    Each GET runs inline in the caller's process (see "Simulator hot
    path" in :mod:`repro.sim.events`): the poller is its one waiter.
    """
    delay = interval
    while True:
        raw = yield from inline(
            ctx.sim, ctx.storage.get_request(bucket, key, missing_ok=True)
        )
        if raw is not None:
            return raw
        yield ctx.sleep(delay)
        delay = min(delay * 1.5, interval * 4)


# ----------------------------------------------------------------------
# worker-side stream ports (one per substrate kind)
# ----------------------------------------------------------------------
class _ObjectStorePort:
    """Manifest-polling stream port over object storage."""

    def __init__(self, ctx, stream: dict):
        self.ctx = ctx
        self.bucket = stream["bucket"]
        self.prefix = stream["prefix"]
        self.poll_interval = stream["poll_interval"]
        #: Final chunk count per mapper, once the EOS object was read.
        self._eos: dict[int, int] = {}

    # -- mapper side ---------------------------------------------------
    def announce(self, mapper_id: int, chunk_count: int) -> t.Generator:
        return
        yield  # pragma: no cover - generator marker

    def publish(
        self, mapper_id: int, chunk: int, segments: list[bytes]
    ) -> t.Generator:
        combined = b"".join(segments)
        offsets: list[tuple[int, int]] = []
        cursor = 0
        for segment in segments:
            offsets.append((cursor, cursor + len(segment)))
            cursor += len(segment)
        # Data first, then the manifest naming it: any manifest a
        # reducer can read points at a chunk object that already exists.
        yield self.ctx.storage.put(
            self.bucket, stream_chunk_object_key(self.prefix, mapper_id, chunk),
            combined, dedup=True,
        )
        payload = serialize(offsets)
        # Manifests are control-plane metadata: charge their real size,
        # not the experiment's logical scale-up.
        yield self.ctx.storage.put(
            self.bucket, stream_manifest_key(self.prefix, mapper_id, chunk),
            payload, logical_size=len(payload),
        )

    def finish(self, mapper_id: int, chunk_count: int) -> t.Generator:
        payload = serialize(chunk_count)
        yield self.ctx.storage.put(
            self.bucket, stream_eos_key(self.prefix, mapper_id),
            payload, logical_size=len(payload),
        )

    # -- reducer side --------------------------------------------------
    def _segment(
        self, manifest: bytes, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        """Range-GET the reducer's slice of a chunk whose manifest was read."""
        start, end = deserialize(manifest)[reducer_id]
        if end <= start:
            return b""
        return (
            yield from inline(
                self.ctx.sim,
                self.ctx.storage.get_range_request(
                    self.bucket,
                    stream_chunk_object_key(self.prefix, mapper_id, chunk),
                    start,
                    end,
                ),
            )
        )

    def next_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        """The reducer's segment of chunk ``chunk``, or ``None`` at EOS.

        Every GET runs inline in the fetcher's process (see
        :func:`poll_object`).
        """
        sim, storage = self.ctx.sim, self.ctx.storage
        delay = self.poll_interval
        while True:
            raw = yield from inline(
                sim,
                storage.get_request(
                    self.bucket,
                    stream_manifest_key(self.prefix, mapper_id, chunk),
                    missing_ok=True,
                ),
            )
            if raw is not None:
                return (yield from self._segment(raw, mapper_id, reducer_id, chunk))
            if mapper_id not in self._eos:
                raw = yield from inline(
                    sim,
                    storage.get_request(
                        self.bucket, stream_eos_key(self.prefix, mapper_id),
                        missing_ok=True,
                    ),
                )
                if raw is not None:
                    self._eos[mapper_id] = deserialize(raw)
            count = self._eos.get(mapper_id)
            if count is not None:
                if chunk >= count:
                    return None
                # The manifest exists (it precedes EOS); re-read it now.
                continue
            yield self.ctx.sleep(delay)
            # Gentle backoff keeps W^2 pollers off the ops ceiling while
            # nothing is being produced; reset on progress (new call).
            delay = min(delay * 1.5, self.poll_interval * 4)

    def fetch_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        """The reducer's segment of a chunk *known to exist eventually*.

        The online sort's reducers learn the exact chunk grid from a
        control record before fetching, so unlike :meth:`next_chunk`
        there is no EOS protocol — this simply polls the manifest until
        the chunk is published (possibly by a mapper running waves
        later) and range-GETs the segment.
        """
        raw = yield from poll_object(
            self.ctx,
            self.bucket,
            stream_manifest_key(self.prefix, mapper_id, chunk),
            self.poll_interval,
        )
        return (yield from self._segment(raw, mapper_id, reducer_id, chunk))


class _NotifyPort:
    """Stream port over a notifying key-value rendezvous.

    The cache and the relay speak the same streaming protocol — a
    header key announcing the chunk count, one value per
    (mapper, reducer, chunk), blocking reads parked on the server's
    publish notification — and differ only in the client verbs, which
    :func:`_cache_port` / :func:`_relay_port` bind: ``put(key, data)``,
    ``mput(items)`` and ``get_blocking(key)``, each returning an event.
    """

    def __init__(self, prefix: str, put, mput, get_blocking):
        self.prefix = prefix
        self._put = put
        self._mput = mput
        self._get_blocking = get_blocking
        self._headers: dict[int, int] = {}

    # -- mapper side ---------------------------------------------------
    def announce(self, mapper_id: int, chunk_count: int) -> t.Generator:
        yield self._put(
            stream_header_key(self.prefix, mapper_id),
            chunk_count.to_bytes(8, "big"),
        )

    def publish(
        self, mapper_id: int, chunk: int, segments: list[bytes]
    ) -> t.Generator:
        yield self._mput(
            [
                (stream_segment_key(self.prefix, mapper_id, reducer_id, chunk),
                 data)
                for reducer_id, data in enumerate(segments)
            ]
        )

    def finish(self, mapper_id: int, chunk_count: int) -> t.Generator:
        return
        yield  # pragma: no cover - generator marker

    # -- reducer side --------------------------------------------------
    def next_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        count = self._headers.get(mapper_id)
        if count is None:
            raw = yield self._get_blocking(
                stream_header_key(self.prefix, mapper_id)
            )
            count = int.from_bytes(raw, "big")
            self._headers[mapper_id] = count
        if chunk >= count:
            return None
        return (yield from self.fetch_chunk(mapper_id, reducer_id, chunk))

    def fetch_chunk(
        self, mapper_id: int, reducer_id: int, chunk: int
    ) -> t.Generator:
        """One known (mapper, reducer, chunk) segment, blocking.

        Online-sort counterpart of :meth:`next_chunk`: the chunk grid is
        known from the control record, so no header handshake — park on
        the rendezvous read until the segment is published.
        """
        return (
            yield self._get_blocking(
                stream_segment_key(self.prefix, mapper_id, reducer_id, chunk)
            )
        )


def _cache_port(ctx, stream: dict) -> _NotifyPort:
    """Set-notification stream port over the in-memory cache cluster."""
    client = ctx.kv(stream["cluster_id"])
    return _NotifyPort(
        stream["prefix"],
        put=lambda key, data: client.set(key, data, logical_size=len(data)),
        mput=client.mset,
        get_blocking=client.get_wait,
    )


def _relay_port(ctx, stream: dict) -> _NotifyPort:
    """Rendezvous stream port over the VM relay (or sharded fleet)."""
    client = ctx.relay(stream["relay_id"], scope=stream.get("relay_scope"))
    return _NotifyPort(
        stream["prefix"],
        put=lambda key, data: client.push(key, data, logical_size=len(data)),
        mput=client.mpush,
        get_blocking=client.pull_wait,
    )


_PORTS = {
    "objectstore": _ObjectStorePort,
    "cache": _cache_port,
    "relay": _relay_port,
}


def _make_port(ctx, stream: dict):
    try:
        open_port = _PORTS[stream["kind"]]
    except KeyError:
        raise ShuffleError(f"unknown stream port kind {stream['kind']!r}") from None
    return open_port(ctx, stream)


# ----------------------------------------------------------------------
# worker stages (substrate-generic: the port carries the difference)
# ----------------------------------------------------------------------
def streaming_shuffle_mapper(ctx, task: dict) -> t.Generator:
    """Read one split, then partition and publish it chunk by chunk.

    Task fields: the staged mapper base (``bucket, key, start, end,
    object_size, peek_bytes, boundaries, codec, partition_throughput``)
    plus ``mapper_id`` and the ``stream`` port descriptor.  Chunks are
    contiguous record runs of ~``stream.chunk_bytes`` logical bytes, so
    concatenating a partition's chunk segments in order reproduces the
    staged mapper's partition segment byte for byte.
    """
    started_at = ctx.sim.now
    owned = yield from read_split(ctx, task, task["start"], task["end"])
    stream = task["stream"]
    chunk_real = max(1, int(stream["chunk_bytes"] / ctx.logical_scale))
    port = _make_port(ctx, stream)
    mapper_id = task["mapper_id"]
    partition_records = [0] * (len(task["boundaries"]) + 1)
    published_bytes = 0

    # Decode the split once, cut it into chunks, then partition and
    # publish chunk by chunk: one chunk's segments are held at a time.
    chunks = kernels.ChunkedPartition(
        task["codec"], owned, task["boundaries"], chunk_real
    )
    kernel_s = chunks.elapsed_s
    yield from port.announce(mapper_id, len(chunks))
    for chunk_index, outcome in enumerate(chunks):
        kernel_s += outcome.elapsed_s
        yield ctx.compute_bytes(len(outcome.combined), task["partition_throughput"])
        for reducer_id, count in enumerate(outcome.partition_records):
            partition_records[reducer_id] += count
        published_bytes += len(outcome.combined)
        yield from port.publish(mapper_id, chunk_index, outcome.segments())

    yield from port.finish(mapper_id, len(chunks))
    return {
        "records": chunks.records,
        "bytes": published_bytes,
        "chunks": len(chunks),
        "partition_records": partition_records,
        "started_at": started_at,
        "kernel": chunks.kernel,
        "kernel_records": chunks.records,
        "kernel_s": kernel_s,
    }


class _StreamBuffer:
    """The reducer's bounded chunk buffer: admission gate + drain queue.

    Fetchers call :meth:`wait_for_space` before pulling the next chunk
    (the backpressure point — counted and timed) and :meth:`arrived`
    when one lands; the sorter pops :attr:`queue` and calls
    :meth:`drained` after charging the chunk's sort CPU.  A bound below
    one chunk still admits single chunks, so progress is guaranteed.
    """

    def __init__(self, sim, limit: float | None):
        self.sim = sim
        # A non-positive bound means "unbounded" (a literal zero would
        # park every fetcher before the first chunk, with no sorter
        # drain ever able to wake them).
        self.limit = limit if limit is not None and limit > 0 else None
        self.used = 0.0
        self.high_watermark = 0.0
        self.waits = 0
        self.wait_s = 0.0
        self.queue: collections.deque[tuple[int, float]] = collections.deque()
        self._space: SimEvent | None = None
        self._work: SimEvent | None = None

    def _arm(self, attr: str) -> SimEvent:
        event = getattr(self, attr)
        if event is None or event.triggered:
            event = SimEvent(self.sim, name=f"streambuffer.{attr}")
            setattr(self, attr, event)
        return event

    def _fire(self, attr: str) -> None:
        event = getattr(self, attr)
        if event is not None and not event.triggered:
            event.succeed()

    def wait_for_space(self) -> t.Generator:
        while self.limit is not None and self.used >= self.limit:
            self.waits += 1
            started = self.sim.now
            yield self._arm("_space")
            self.wait_s += self.sim.now - started

    def arrived(self, real_len: int, logical: float) -> None:
        self.used += logical
        self.high_watermark = max(self.high_watermark, self.used)
        self.queue.append((real_len, logical))
        self._fire("_work")

    def drained(self, logical: float) -> None:
        self.used -= logical
        self._fire("_space")

    def notify_work(self) -> None:
        self._fire("_work")

    def work_event(self) -> SimEvent:
        return self._arm("_work")


def subscribe_and_sort(
    ctx,
    task: dict,
    started_at: float,
    mappers: int,
    buffer_bytes: float | None,
    next_chunk: t.Callable[[int, int], t.Generator],
    chunk_counts: t.Sequence[int] | None,
    label: str,
) -> t.Generator:
    """Chunk-subscribe → bounded buffer → incremental sort → one run.

    The body of the streaming and online reducers.  One fetcher
    sub-process per mapper pulls that mapper's chunks through
    ``next_chunk(mapper_id, chunk_index)`` behind the bounded buffer —
    until it returns ``None`` (end of stream), or for exactly
    ``chunk_counts[mapper_id]`` chunks when the grid is known up front;
    one sorter sub-process drains the buffer, charging the sort CPU
    incrementally (total identical to the staged reducer's single pass
    — the final merge of pre-sorted chunk runs is folded in).  All
    sub-processes register with the activation's cancel scope, so a
    killed attempt tears the whole pipeline down.  ``label`` prefixes
    the sub-process names (observable in traces).
    """
    buffer = _StreamBuffer(ctx.sim, buffer_bytes)
    chunks: list[list[bytes]] = [[] for _ in range(mappers)]
    finished = {"fetchers": 0}

    def consume_stream(mapper_id: int) -> t.Generator:
        received = chunks[mapper_id]
        while chunk_counts is None or len(received) < chunk_counts[mapper_id]:
            yield from buffer.wait_for_space()
            data = yield from next_chunk(mapper_id, len(received))
            if data is None:
                break
            received.append(data)
            buffer.arrived(len(data), len(data) * ctx.logical_scale)
        finished["fetchers"] += 1
        buffer.notify_work()

    def sorter() -> t.Generator:
        while True:
            if buffer.queue:
                real_len, logical = buffer.queue.popleft()
                if real_len > 0:
                    yield ctx.compute_bytes(real_len, task["sort_throughput"])
                buffer.drained(logical)
                continue
            if finished["fetchers"] == mappers:
                return
            yield buffer.work_event()

    fetchers = [
        ctx.track(
            ctx.sim.process(
                consume_stream(mapper_id), name=f"{label}fetch-m{mapper_id}"
            )
        )
        for mapper_id in range(mappers)
    ]
    sort_process = ctx.track(ctx.sim.process(sorter(), name=f"{label}sort"))
    yield ctx.sim.all_of(
        [process.completion for process in fetchers] + [sort_process.completion]
    )

    # Reassemble in (mapper, chunk) order — exactly the record order the
    # staged reducer sees — then the same stable sort: byte parity.
    payload = b"".join(segment for received in chunks for segment in received)
    outcome = kernels.sort_buffer(task["codec"], payload)
    return (
        yield from write_run(
            ctx,
            task,
            outcome,
            extra={
                "buffer_waits": buffer.waits,
                "buffer_wait_s": buffer.wait_s,
                "buffer_high_watermark_bytes": buffer.high_watermark,
                "started_at": started_at,
            },
        )
    )


def streaming_shuffle_reducer(ctx, task: dict) -> t.Generator:
    """Subscribe to one partition across all mappers; sort as chunks land.

    Task fields: ``reducer_id, mappers, out_bucket, output_key, codec,
    sort_throughput`` and the ``stream`` port descriptor; the pipeline
    itself is :func:`subscribe_and_sort`.
    """
    stream = task["stream"]
    port = _make_port(ctx, stream)
    reducer_id = task["reducer_id"]
    return (
        yield from subscribe_and_sort(
            ctx,
            task,
            started_at=ctx.sim.now,
            mappers=task["mappers"],
            buffer_bytes=stream["buffer_bytes"],
            next_chunk=lambda mapper_id, chunk: port.next_chunk(
                mapper_id, reducer_id, chunk
            ),
            chunk_counts=None,
            label="stream",
        )
    )
