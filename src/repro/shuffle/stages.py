"""Worker-side stages of the object-storage shuffle.

Three sim-aware functions executed through a
:class:`~repro.executor.FunctionExecutor`:

* :func:`shuffle_sampler` — reads a window of its split and returns a
  key sample for boundary selection;
* :func:`shuffle_mapper` — reads its record-aligned split, partitions
  records by range, and writes **one combined object** (all partitions
  concatenated, plus an offset table returned to the driver).  This is
  the write-combining I/O optimization: ``W`` PUTs per map phase instead
  of ``W²``;
* :func:`shuffle_reducer` — range-GETs its segment from every mapper
  output (batched for latency hiding), sorts the records, and writes one
  sorted run.

All payloads are plain picklable dicts, so the stages ride the normal
executor data path through object storage.
"""

from __future__ import annotations

import typing as t

from repro.shuffle import kernels
from repro.shuffle.records import RecordCodec
from repro.shuffle.sampler import reservoir_sample


def _sample_windows(
    start: int, end: int, sample_bytes: int, strides: int
) -> list[tuple[int, int]]:
    """Byte windows of one sampler's split: ``strides`` spread slices.

    The sampling budget is split over ``strides`` windows placed at the
    starts of equal sub-spans of ``[start, end)`` — a single
    head-of-split window (``strides=1``, the old behaviour) only ever
    sees the *low-key head of each locally-ascending run* on
    ``sorted-runs`` inputs, biasing the weighted boundaries; spreading
    the same bytes restores uniform positional coverage.
    """
    span = end - start
    if strides <= 1 or span <= sample_bytes:
        return [(start, min(end, start + sample_bytes))]
    per_window = max(1, sample_bytes // strides)
    step, remainder = divmod(span, strides)
    windows: list[tuple[int, int]] = []
    cursor = start
    for index in range(strides):
        sub_end = cursor + step + (1 if index < remainder else 0)
        window_end = min(sub_end, cursor + per_window)
        if window_end > cursor:
            windows.append((cursor, window_end))
        cursor = sub_end
    return windows


def shuffle_sampler(ctx, task: dict) -> t.Generator:
    """Sample record keys from one input split.

    Task fields: ``bucket, key, start, end, object_size, sample_bytes,
    sample_keys, codec, seed``, and optional ``sample_strides`` (number
    of windows the sampling budget is spread over — see
    :func:`_sample_windows`).
    """
    codec: RecordCodec = task["codec"]
    strides = max(1, int(task.get("sample_strides", 1)))
    keys: list = []
    records_seen = 0
    for window_start, window_end in _sample_windows(
        task["start"], task["end"], task["sample_bytes"], strides
    ):
        window = yield ctx.storage.get_range(
            task["bucket"], task["key"], window_start, window_end
        )
        # Vectorized window decode when the codec supports it; the key
        # list is identical either way, so the reservoir draws — and
        # therefore the chosen boundaries — do not depend on the path.
        window_keys, window_records, _kernel = kernels.window_keys(
            codec, window, is_first=(window_start == 0), global_start=window_start
        )
        keys.extend(window_keys)
        records_seen += window_records
    rng = ctx.rng(f"sampler-{task.get('sampler_id', 0)}")
    sample = reservoir_sample(keys, task["sample_keys"], rng) if keys else []
    return {"keys": sample, "records_seen": records_seen}


# ----------------------------------------------------------------------
# shared worker bodies
#
# Every worker entry point (here and in cachestages / relay / streaming
# / online) keeps its own module path and name — the executor
# pickles functions by reference and charges the pickled bytes, and the
# function name seeds the activation's RNG streams — so the substrates
# share these *bodies* behind thin named entry points.
# ----------------------------------------------------------------------
def read_split(ctx, task: dict, start: int, end: int) -> t.Generator:
    """Range-GET ``[start, end)`` plus the peek window; return the
    record-aligned bytes this split owns."""
    object_size = task["object_size"]
    window_end = min(object_size, end + task["peek_bytes"])
    raw = yield ctx.storage.get_range(task["bucket"], task["key"], start, window_end)
    base, tail = raw[: end - start], raw[end - start :]
    return task["codec"].extract_split(
        base,
        tail,
        is_first=(start == 0),
        at_end=(end >= object_size),
        global_start=start,
    )


def partition_split(ctx, task: dict, start: int, end: int) -> t.Generator:
    """Read one split, range-partition it and charge the partitioning
    CPU; returns the :class:`~repro.shuffle.kernels.PartitionOutcome`."""
    owned = yield from read_split(ctx, task, start, end)
    outcome = kernels.partition_buffer(task["codec"], owned, task["boundaries"])
    yield ctx.compute_bytes(len(owned), task["partition_throughput"])
    return outcome


def kernel_fields(outcome) -> dict:
    """The kernel-attribution tail every worker result ends with."""
    return {
        "kernel": outcome.kernel,
        "kernel_records": outcome.records,
        "kernel_s": outcome.elapsed_s,
    }


def write_run(ctx, task: dict, outcome, extra: dict | None = None) -> t.Generator:
    """PUT one sorted run and build the reducer result (``extra`` —
    the streaming reducers' buffer observables — sits before the
    kernel tail)."""
    yield ctx.storage.put(
        task["out_bucket"], task["output_key"], outcome.output, dedup=True
    )
    return {
        "records": outcome.records,
        "bytes": len(outcome.output),
        "output_key": task["output_key"],
        **(extra or {}),
        **kernel_fields(outcome),
    }


def sort_and_write_run(ctx, task: dict, buffer: bytes) -> t.Generator:
    """The staged reducers' tail: charge the sort, sort, write."""
    yield ctx.compute_bytes(len(buffer), task["sort_throughput"])
    outcome = kernels.sort_buffer(task["codec"], buffer)
    return (yield from write_run(ctx, task, outcome))


def kv_partition_key(prefix: str, mapper_id: int, reducer_id: int) -> str:
    """Cache/relay key of mapper ``mapper_id``'s segment for reducer
    ``reducer_id`` (one layout for both key-value substrates)."""
    return f"{prefix}/m{mapper_id:05d}.r{reducer_id:05d}"


def kv_shuffle_mapper(
    ctx, task: dict, prefix: str, open_publisher: t.Callable[[], t.Callable]
) -> t.Generator:
    """Staged mapper over a key-value substrate (cache or relay).

    ``open_publisher()`` binds the attempt-scoped client *after* the
    partitioning pass and returns its batched-write verb (``mset`` /
    ``mpush``): one value per reducer, published in one batch.
    """
    outcome = yield from partition_split(ctx, task, task["start"], task["end"])
    publish = open_publisher()
    mapper_id = task["mapper_id"]
    yield publish(
        [
            (kv_partition_key(prefix, mapper_id, reducer_id), segment)
            for reducer_id, segment in enumerate(outcome.segments())
        ]
    )
    return {
        "records": outcome.records,
        "bytes": len(outcome.combined),
        "partition_sizes": outcome.partition_sizes,
        **kernel_fields(outcome),
    }


def kv_shuffle_reducer(
    ctx, task: dict, prefix: str, fetch: t.Callable[[list[str]], t.Generator]
) -> t.Generator:
    """Staged reducer over a key-value substrate: ``fetch(keys)`` is the
    substrate's batched read (``mget`` + cleanup / ``mpull(consume=)``)
    of this reducer's segment from every mapper."""
    reducer_id = task["reducer_id"]
    keys = [
        kv_partition_key(prefix, mapper_id, reducer_id)
        for mapper_id in range(task["mappers"])
    ]
    segments = yield from fetch(keys)
    return (yield from sort_and_write_run(ctx, task, b"".join(segments)))


def fetch_segments(ctx, task: dict) -> t.Generator:
    """COS segment fan-in: range-GET ``task["segments"]`` in batches of
    ``fetch_parallelism`` and return them joined in segment order.

    ``segments`` entries are ``(key, start, end)`` into mapper outputs;
    ``start``/``end`` of ``None`` means a whole object, as produced by
    naive non-write-combined mappers.
    """
    segments = [
        (key, start, end)
        for key, start, end in task["segments"]
        if start is None or end > start
    ]
    parallelism = max(1, task["fetch_parallelism"])
    # Split the instance NIC across the concurrent streams so batching
    # hides request latency without inventing bandwidth.
    fetch_storage = ctx.storage
    if parallelism > 1 and ctx.storage.connection_bandwidth is not None:
        fetch_storage = ctx.storage.bounded(
            ctx.storage.connection_bandwidth / parallelism
        )
    bucket = task["out_bucket"]

    def request(key: str, seg_start, seg_end):
        if seg_start is None:
            return fetch_storage.get(bucket, key)
        return fetch_storage.get_range(bucket, key, seg_start, seg_end)

    chunks: list[bytes] = []
    for batch_start in range(0, len(segments), parallelism):
        batch = segments[batch_start : batch_start + parallelism]
        # Each GET is one request process already: wait on the batch
        # directly, with no process of our own per GET.
        chunks.extend((yield ctx.sim.all_of([request(*segment) for segment in batch])))
    return b"".join(chunks)


def cos_segments(
    write_combining: bool,
    map_tasks: list[dict],
    map_results: list[dict],
    reducer_id: int,
) -> list[tuple]:
    """Driver side of :func:`fetch_segments`: reducer ``reducer_id``'s
    ``(key, start, end)`` segment in every mapper output."""
    if write_combining:
        return [
            (task["out_key"], *result["offsets"][reducer_id])
            for task, result in zip(map_tasks, map_results)
        ]
    return [(result["partition_keys"][reducer_id], None, None) for result in map_results]


# ----------------------------------------------------------------------
# object-storage mapper / reducer
# ----------------------------------------------------------------------
def shuffle_mapper(ctx, task: dict) -> t.Generator:
    """Partition one record-aligned split into range buckets.

    Task fields: ``bucket, key, start, end, object_size, peek_bytes,
    boundaries, codec, out_bucket, out_key, partition_throughput,
    write_combining``.

    With write-combining (Primula's optimization) the mapper PUTs one
    combined object and returns the offset table ``offsets[r] =
    (seg_start, seg_end)`` of reducer ``r``'s segment inside it.
    Without it (the naive all-to-all the paper warns about) the mapper
    PUTs one object per partition — ``W²`` PUTs per map phase overall —
    and returns the per-partition key list instead.
    """
    outcome = yield from partition_split(ctx, task, task["start"], task["end"])
    if task.get("write_combining", True):
        # One object holding every partition segment — the vectorized
        # kernel's gathered buffer *is* this object (zero extra joins).
        yield ctx.storage.put(
            task["out_bucket"], task["out_key"], outcome.combined, dedup=True
        )
        layout = {"offsets": outcome.offsets}
    else:
        # Naive mode: one object per (mapper, partition) pair.
        partition_keys = []
        for reducer_id in range(len(outcome.offsets)):
            partition_key = f"{task['out_key']}.p{reducer_id:05d}"
            partition_keys.append(partition_key)
            yield ctx.storage.put(
                task["out_bucket"], partition_key, outcome.segment(reducer_id),
                dedup=True,
            )
        layout = {"partition_keys": partition_keys}
    return {
        **layout,
        "records": outcome.records,
        "partition_records": outcome.partition_records,
        "bytes": len(outcome.combined),
        "out_key": task["out_key"],
        **kernel_fields(outcome),
    }


def shuffle_reducer(ctx, task: dict) -> t.Generator:
    """Fetch, sort and write one output partition.

    Task fields: ``out_bucket, segments`` (see :func:`fetch_segments`),
    ``output_key, codec, sort_throughput, fetch_parallelism``.
    """
    buffer = yield from fetch_segments(ctx, task)
    return (yield from sort_and_write_run(ctx, task, buffer))
