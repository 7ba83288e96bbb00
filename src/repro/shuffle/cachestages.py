"""Worker-side stages of the cache-mediated shuffle.

Same three-phase layout as the object-storage shuffle
(:mod:`repro.shuffle.stages`), but the all-to-all traffic rides the
in-memory key-value store:

* sampling is unchanged (the input lives in object storage either way);
* :func:`cache_shuffle_mapper` partitions its split and MSETs one cache
  value per reducer — W values per mapper, pipelined per cache node;
* :func:`cache_shuffle_reducer` MGETs its W partitions in one batch,
  sorts, and writes the run to object storage (the encode stage reads
  runs from COS regardless of how the shuffle moved its bytes).

Task payloads carry the cache *cluster id*; workers resolve it through
their :meth:`~repro.cloud.faas.context.FunctionContext.kv` accessor.
"""

from __future__ import annotations

import typing as t

from repro.shuffle.stages import kv_shuffle_mapper, kv_shuffle_reducer


def cache_shuffle_mapper(ctx, task: dict) -> t.Generator:
    """Partition one record-aligned split into cache values.

    Task fields: ``bucket, key, start, end, object_size, peek_bytes,
    boundaries, codec, cluster_id, cache_prefix, mapper_id,
    partition_throughput``.
    """
    return (
        yield from kv_shuffle_mapper(
            ctx, task, task["cache_prefix"], lambda: ctx.kv(task["cluster_id"]).mset
        )
    )


def cache_shuffle_reducer(ctx, task: dict) -> t.Generator:
    """Fetch one partition from every mapper via the cache, sort, write.

    Task fields: ``cluster_id, cache_prefix, reducer_id, mappers,
    out_bucket, output_key, codec, sort_throughput, cleanup``.
    """
    client = ctx.kv(task["cluster_id"])

    def fetch(keys: list[str]) -> t.Generator:
        segments = yield client.mget(keys)
        if task.get("cleanup", False):
            for key in keys:
                yield client.delete(key)
        return segments

    return (yield from kv_shuffle_reducer(ctx, task, task["cache_prefix"], fetch))
