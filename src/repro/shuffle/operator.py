"""The high-level shuffle/sort operator (Primula reimplementation).

:class:`ShuffleSort` sorts one big object-storage object into ``W``
range-partitioned sorted runs whose concatenation (in partition order)
is globally sorted.  Where the intermediate data flows is delegated to
an :class:`~repro.shuffle.exchange.ExchangeBackend` — by default the
paper's object-storage substrate (no function-to-function
communication); the cache and VM-relay substrates plug into the same
orchestration (``ShuffleSort(executor, codec, backend=...)``, see
:mod:`repro.shuffle.exchange` and :mod:`repro.shuffle.relay`).

Phases (each an executor map job, sharing warm containers):

1. **sample** — a handful of samplers read small windows and pool record
   keys; the driver picks range boundaries;
2. **map** — ``W`` mappers read record-aligned splits, partition by
   range, and publish their partitions through the exchange substrate;
3. **reduce** — ``W`` reducers collect their range from every mapper,
   sort, and write one run each to object storage.

A *staged* backend runs the waves behind a barrier; a backend built
with ``stream=StreamConfig(...)`` runs them pipelined — the reduce wave
is submitted before the map results are awaited, and reducers consume
partitions through the substrate's readiness protocol while mappers are
still producing.  Everything else is one code path.

A sort runs at the worker count it is given.  Choosing that count —
Primula's "optimal number of functions on the fly" — is the selector's
job (:func:`~repro.shuffle.adaptive.choose_exchange_substrate`, which
the ``auto_sort`` stage runs before its sort).
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cas import sha256_hex
from repro.errors import ShuffleError
from repro.shuffle import kernels
from repro.shuffle.content import RunManifest, build_run_manifest
from repro.shuffle.exchange import ExchangeBackend, ObjectStoreExchange
from repro.shuffle.planner import ShuffleCostModel
from repro.shuffle.records import RecordCodec
from repro.shuffle.sampler import (
    choose_weighted_boundaries,
    estimate_partition_weights,
    partition_skew_of,
)
from repro.shuffle.stages import shuffle_sampler
from repro.sim import SimEvent

#: Peek window appended to splits for record alignment (bytes).
PEEK_BYTES = 64 * 1024
#: Samplers of the sampling wave (fewer when the sort has fewer workers).
SAMPLERS = 8
#: Bytes each sampler reads for boundary estimation.
SAMPLE_BYTES = 256 * 1024
#: Number of key samples kept per sampler.
SAMPLE_KEYS = 512
#: Sampling windows per sampler, spread across its split.  A single
#: head-of-split window is biased on locally-sorted inputs
#: (``sorted-runs``): the head of each split over-represents low keys,
#: skewing :func:`~repro.shuffle.sampler.choose_weighted_boundaries`.
#: Strided windows restore uniform coverage at the same byte budget.
SAMPLE_STRIDES = 4


@dataclasses.dataclass(frozen=True, slots=True)
class SortedRun:
    """One reducer output: a sorted range partition."""

    bucket: str
    key: str
    records: int
    size_bytes: int


@dataclasses.dataclass(frozen=True, slots=True)
class ShuffleResult:
    """Outcome of a shuffle/sort: ordered runs plus execution metadata."""

    runs: tuple[SortedRun, ...]
    workers: int
    boundaries: tuple[t.Any, ...]
    total_records: int
    duration_s: float


class ShuffleSort:
    """Sort a storage object with W functions over one exchange substrate.

    Parameters
    ----------
    executor:
        A :class:`~repro.executor.FunctionExecutor`.
    codec:
        Record format of the input object.
    cost:
        Cost-model constants for the default object-storage substrate;
        also control sampling and fetch batching.  Mutually exclusive
        with ``backend`` (a backend carries its own cost model).
    backend:
        The :class:`~repro.shuffle.exchange.ExchangeBackend` carrying
        the intermediate data; defaults to the paper's object-storage
        substrate.
    """

    def __init__(
        self,
        executor,
        codec: RecordCodec,
        cost: ShuffleCostModel | None = None,
        backend: ExchangeBackend | None = None,
    ):
        if cost is not None and backend is not None:
            raise ShuffleError(
                "pass either cost or backend, not both: a backend carries "
                "its own cost model and the cost argument would be ignored"
            )
        self.executor = executor
        self.sim = executor.sim
        self.codec = codec
        self.backend = backend if backend is not None else ObjectStoreExchange(cost)
        self.cost = self.backend.cost
        self.backend.bind_executor(executor)
        #: Uniform :class:`~repro.shuffle.exchange.ExchangeReport` of the
        #: last sort (``None`` until a sort completed).
        self.report = None
        #: Hash-chained :class:`~repro.shuffle.content.RunManifest` of
        #: the last sort (``None`` until a sort completed).
        self.run_manifest: RunManifest | None = None
        #: Sample-based per-partition logical-byte estimate of the last
        #: sort's load profile (set by the sampling pass; the skew
        #: signal behind load-aware fleet routing and the reports).
        self.predicted_partition_bytes: tuple[float, ...] = ()

    # ------------------------------------------------------------------
    def sort(
        self,
        bucket: str,
        key: str,
        out_bucket: str | None = None,
        out_prefix: str | None = None,
        *,
        workers: int,
    ) -> SimEvent:
        """Sort ``bucket/key`` with ``workers`` mappers and as many
        reducers; event → :class:`ShuffleResult`."""
        return self.sim.process(
            self._ended(
                self._sort(
                    bucket,
                    key,
                    out_bucket if out_bucket is not None else bucket,
                    out_prefix if out_prefix is not None else self._labels()[1],
                    workers,
                )
            ),
            name=f"{self._labels()[0]}.sort:{key}",
        ).completion

    def _ended(self, body: t.Generator) -> t.Generator:
        """Run one sort body, then end the backend's sort however it exits."""
        try:
            return (yield from body)
        finally:
            self.backend.end_sort()

    def _labels(self) -> tuple[str, str]:
        """(prefix of this operator's simulation process and job names,
        default output prefix of :meth:`sort`)."""
        return self.backend.labels[self.backend.mode]

    # ------------------------------------------------------------------
    # phases (OnlineShuffleSort reuses these around its own wave loop)
    # ------------------------------------------------------------------
    def _preflight(self, bucket: str, key: str, workers: int) -> t.Generator:
        """HEAD the input; check the substrate fit and the worker count."""
        meta = yield self.executor.storage.head(bucket, key)
        if meta.size == 0:
            raise ShuffleError(f"cannot shuffle empty object {bucket}/{key}")
        self.backend.validate(meta.logical_size)
        if workers < 1:
            raise ShuffleError(f"workers must be >= 1, got {workers}")
        return meta

    def _sample(
        self,
        bucket: str,
        key: str,
        real_size: int,
        logical_size: float,
        workers: int,
        span=None,
    ) -> t.Generator:
        """Run the sampler wave, pick boundaries, estimate partition load.

        Boundaries come from the duplicate-aware weighted mode
        (:func:`~repro.shuffle.sampler.choose_weighted_boundaries`), so
        heavy-duplicate and Zipf inputs degrade to "one hot key per
        reducer" instead of collapsing whole key neighbourhoods onto
        one.  The same pooled sample yields the per-partition
        predicted-bytes profile, handed to the backend
        (:meth:`~repro.shuffle.exchange.ExchangeBackend.on_boundaries`)
        before any exchange traffic — the fleet rebalances its shard
        routing on it.
        """
        sampler_count = max(1, min(SAMPLERS, workers))
        sample_splits = _split(real_size, sampler_count)
        window = _sample_window_bytes(real_size, sampler_count)
        sample_tasks = [
            {
                "bucket": bucket,
                "key": key,
                "start": start,
                "end": end,
                "object_size": real_size,
                "sample_bytes": window,
                "sample_keys": SAMPLE_KEYS,
                "sample_strides": SAMPLE_STRIDES,
                "codec": self.codec,
                "sampler_id": index,
            }
            for index, (start, end) in enumerate(sample_splits)
        ]
        wave_span = self.sim.tracer.span(
            "wave:sample", category="wave", parent=span, samplers=sampler_count
        )
        with wave_span:
            sample_futures = yield self.executor.map(
                shuffle_sampler, sample_tasks, span=wave_span
            )
            sample_results = yield self.executor.get_result(sample_futures)
        pooled_keys = [k for result in sample_results for k in result["keys"]]
        if not pooled_keys:
            raise ShuffleError(f"sampling found no records in {bucket}/{key}")
        boundaries = choose_weighted_boundaries(pooled_keys, workers)
        weights = estimate_partition_weights(pooled_keys, boundaries)
        self.predicted_partition_bytes = tuple(
            weight * logical_size for weight in weights
        )
        self.backend.on_boundaries(boundaries, self.predicted_partition_bytes)
        return boundaries

    def _map_tasks(
        self, bucket: str, key: str, real_size: int, boundaries: t.Sequence[t.Any],
        workers: int,
    ) -> list[dict]:
        return [
            self.backend.mapper_task(
                {
                    "bucket": bucket,
                    "key": key,
                    "start": start,
                    "end": end,
                    "object_size": real_size,
                    "peek_bytes": PEEK_BYTES,
                    "boundaries": boundaries,
                    "codec": self.codec,
                    "partition_throughput": self.cost.partition_throughput,
                },
                mapper_id,
            )
            for mapper_id, (start, end) in enumerate(_split(real_size, workers))
        ]

    def _collect_runs(
        self, map_results: list[dict], reduce_results: list[dict], out_bucket: str
    ) -> tuple[tuple[SortedRun, ...], int]:
        """Assemble the sorted-run artifact, checking record conservation."""
        runs = tuple(
            SortedRun(
                bucket=out_bucket,
                key=result["output_key"],
                records=result["records"],
                size_bytes=result["bytes"],
            )
            for result in reduce_results
        )
        total_records = sum(run.records for run in runs)
        mapped_records = sum(result["records"] for result in map_results)
        if total_records != mapped_records:
            raise ShuffleError(
                f"shuffle lost records: mapped {mapped_records}, "
                f"reduced {total_records}"
            )
        return runs, total_records

    def _stream_observations(
        self, map_ended_at: float, map_exec_start: float, reduce_results: list[dict]
    ) -> tuple[float, float, dict]:
        """What pipelined waves add to the report: ``(overlap_s, reducer
        buffer high watermark, summed backpressure extras)``.

        The overlap is measured from the workers' own execution windows
        (each stage stamps its body start) — not from submission time,
        which would claim overlap even when reducers queued behind the
        mappers on the account concurrency limit and never actually ran
        alongside them.
        """
        reduce_exec_start = min(result["started_at"] for result in reduce_results)
        overlap_s = max(
            0.0,
            min(map_ended_at, self.sim.now) - max(map_exec_start, reduce_exec_start),
        )
        high_watermark = max(
            (r["buffer_high_watermark_bytes"] for r in reduce_results), default=0.0
        )
        return overlap_s, high_watermark, {
            "buffer_backpressure_waits": sum(
                result["buffer_waits"] for result in reduce_results
            ),
            "buffer_wait_s": sum(result["buffer_wait_s"] for result in reduce_results),
        }

    def _build_manifest(
        self,
        bucket: str,
        key: str,
        meta: t.Any,
        workers: int,
        boundaries: t.Sequence[t.Any],
        runs: t.Sequence[SortedRun],
        chunks: t.Sequence[tuple[str, str, float]],
        substrate: str,
        mode: str,
    ) -> RunManifest:
        """Hash-chain this sort into a verifiable :class:`RunManifest`.

        Inputs (what was sorted) → decision (substrate/mode/workers/
        boundaries) → chunks (the content log of the exchange traffic
        under this sort's prefix) → outputs (the sorted runs, re-hashed
        from the bytes actually at rest).
        """
        store = self.executor.cloud.store
        inputs = {
            "bucket": bucket,
            "key": key,
            "etag": meta.etag,
            "logical_size": meta.logical_size,
        }
        decision = {
            "substrate": substrate,
            "mode": mode,
            "workers": workers,
            "boundaries": [_jsonable(boundary) for boundary in boundaries],
        }
        outputs = [
            {
                "bucket": run.bucket,
                "key": run.key,
                "sha256": sha256_hex(store.peek(run.bucket, run.key)),
                "logical": float(run.size_bytes),
            }
            for run in runs
        ]
        return build_run_manifest(
            inputs=inputs, decision=decision, chunks=chunks, outputs=outputs
        )

    # ------------------------------------------------------------------
    def _sort(
        self,
        bucket: str,
        key: str,
        out_bucket: str,
        out_prefix: str,
        workers: int,
    ) -> t.Generator:
        started_at = self.sim.now
        sort_span = self.sim.tracer.span(
            f"sort:{out_prefix}",
            category="sort",
            substrate=self.backend.name,
            mode=self.backend.mode,
        )
        with sort_span:
            self.backend.begin_sort(out_bucket, out_prefix, self.codec)
            meta = yield from self._preflight(bucket, key, workers)
            real_size = meta.size
            boundaries = yield from self._sample(
                bucket, key, real_size, meta.logical_size, workers,
                span=sort_span,
            )
            job = f"{self._labels()[0]}:{out_prefix}@{started_at:.3f}"
            streaming = self.backend.stream is not None
            map_tasks = self._map_tasks(bucket, key, real_size, boundaries, workers)

            def submit_reduce_wave(map_results: list[dict]) -> t.Generator:
                tasks = [
                    self.backend.reducer_task(reducer_id, map_tasks, map_results)
                    for reducer_id in range(workers)
                ]
                span = self.sim.tracer.span(
                    "wave:reduce", category="wave", parent=sort_span,
                    workers=workers, job=job,
                )
                try:
                    futures = yield self.executor.map(
                        self.backend.reducer_stage(), tasks, span=span
                    )
                except BaseException:
                    span.end("error")
                    raise
                return futures, span

            # Staged: map wave, barrier, reduce wave.  Streaming: both
            # waves in flight at once — the map job is submitted first so
            # its invocations enqueue ahead of the reducers on the account
            # concurrency limit (reducers idle at their rendezvous; mappers
            # must never starve behind them), and the wave spans overlap
            # on the trace exactly like the waves do.
            map_span = self.sim.tracer.span(
                "wave:map", category="wave", parent=sort_span,
                workers=workers, job=job,
            )
            reduce_span = None
            try:
                map_futures = yield self.executor.map(
                    self.backend.mapper_stage(), map_tasks, span=map_span
                )
                if streaming:
                    reduce_futures, reduce_span = yield from submit_reduce_wave([])
                map_results = yield self.executor.get_result(map_futures)
            except BaseException:
                map_span.end("error")
                if reduce_span is not None:
                    reduce_span.end("error")
                raise
            map_ended_at = self.sim.now
            map_span.end()
            self.backend.on_map_done(map_results)
            if not streaming:
                reduce_futures, reduce_span = yield from submit_reduce_wave(
                    map_results
                )
            with reduce_span:
                reduce_results = yield self.executor.get_result(reduce_futures)

            runs, total_records = self._collect_runs(
                map_results, reduce_results, out_bucket
            )
            self.run_manifest = self._build_manifest(
                bucket, key, meta, workers, boundaries, runs,
                chunks=self.backend.cas_entries(out_prefix),
                substrate=self.backend.name,
                mode=self.backend.mode,
            )
            overlap_s = buffer_high_watermark = 0.0
            extra = {
                "predicted_partition_skew": partition_skew_of(
                    self.predicted_partition_bytes
                )
            }
            if streaming:
                overlap_s, buffer_high_watermark, buffers = self._stream_observations(
                    map_ended_at,
                    min(result["started_at"] for result in map_results),
                    reduce_results,
                )
                extra.update(
                    buffers,
                    stream_chunks=sum(result["chunks"] for result in map_results),
                )
            extra.update(kernels.kernel_report_extras(map_results, reduce_results))
            self.report = self.backend.report(
                workers,
                None,
                self.sim.now - started_at,
                overlap_s=overlap_s,
                buffer_high_watermark_bytes=buffer_high_watermark,
                partition_skew=partition_skew_of([run.size_bytes for run in runs]),
                extra=extra,
            )
            return ShuffleResult(
                runs=runs,
                workers=workers,
                boundaries=tuple(boundaries),
                total_records=total_records,
                duration_s=self.sim.now - started_at,
            )


def _jsonable(value: t.Any) -> t.Any:
    """A JSON-safe, deterministic rendering of a boundary key.

    Range boundaries may be bytes (binary codecs); the manifest must be
    both hashable by :func:`repro.cas.content_hash` and serializable by
    ``RunManifest.to_json``, so non-JSON types collapse to their repr.
    """
    if isinstance(value, (int, float, str)) or value is None:
        return value
    return repr(value)


def _split(size: int, parts: int) -> list[tuple[int, int]]:
    """Cut ``[0, size)`` into ``parts`` near-equal contiguous ranges."""
    base, remainder = divmod(size, parts)
    ranges = []
    cursor = 0
    for index in range(parts):
        length = base + (1 if index < remainder else 0)
        ranges.append((cursor, cursor + length))
        cursor += length
    return ranges


def _sample_window_bytes(real_size: int, samplers: int) -> int:
    """Per-sampler read window, bounded by a fraction of the object.

    Primula reads a fixed window (:data:`SAMPLE_BYTES`, 256 KiB) per
    sampler.  On scaled-down experiment data the same absolute window
    would cover — and be charged as — a disproportionate slice of the
    (logical) object, so the window is additionally capped at ~5% of the
    object per sampler.  At full scale the cap is far above the
    configured window and this reduces to Primula's behaviour.
    """
    proportional_cap = max(4096, real_size // (samplers * 20))
    return max(1024, min(SAMPLE_BYTES, proportional_cap))
