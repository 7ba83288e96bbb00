"""OrderBy / top-k: the paper's other I/O-bound all-to-all stage.

The paper lists *OrderBy* next to GroupBy as the stages that bottleneck
serverless workflows.  :class:`ShuffleOrderBy` builds it on the same
three-phase range-partitioned shuffle as the sort operator, adding the
two features a ranking query needs:

* **arbitrary sort direction** — descending order wraps every key in a
  comparison-reversing shim, so the same samplers, boundary chooser and
  partitioner work unchanged;
* **limit pushdown (top-k)** — after the map phase the driver knows how
  many records each range partition holds, so a ``LIMIT k`` query only
  runs reducers for the leading partitions and truncates the last one.
  For small ``k`` that skips almost the entire reduce phase — the kind
  of saving that decides whether an interactive query is interactive.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from repro.errors import ShuffleError
from repro.shuffle import kernels
from repro.shuffle.operator import SortedRun, sample_and_map
from repro.shuffle.planner import ShuffleCostModel
from repro.shuffle.records import RecordCodec
from repro.shuffle.stages import cos_segments, shuffle_reducer
from repro.sim import SimEvent
from repro.storage import paths


@functools.total_ordering
class ReversedKey:
    """Comparison-reversing shim: bigger inner keys sort first.

    Picklable and hashable so it can ride sampler results and task
    payloads through the executor's storage data path.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: t.Any):
        self.inner = inner

    def __lt__(self, other: "ReversedKey") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReversedKey) and other.inner == self.inner

    def __hash__(self) -> int:
        return hash(("ReversedKey", self.inner))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReversedKey({self.inner!r})"

    # pickle support for __slots__
    def __getstate__(self):
        return self.inner

    def __setstate__(self, state):
        self.inner = state


class _DescendingCodec(RecordCodec):
    """Delegating codec whose keys sort in reverse of the inner codec."""

    def __init__(self, inner: RecordCodec):
        self.inner = inner

    def split(self, buffer: bytes) -> list[bytes]:
        return self.inner.split(buffer)

    def join(self, records: t.Iterable[bytes]) -> bytes:
        return self.inner.join(records)

    def key(self, record: bytes) -> ReversedKey:
        return ReversedKey(self.inner.key(record))

    def extract_split(self, base, tail, is_first, at_end, global_start):
        return self.inner.extract_split(base, tail, is_first, at_end, global_start)

    def sample_window(self, window, is_first, global_start):
        return self.inner.sample_window(window, is_first, global_start)

    def vector_layout(self, buffer: bytes):
        return self.inner.vector_layout(buffer)

    def vector_spec(self) -> kernels.KeySpec | None:
        inner_spec = self.inner.vector_spec()
        if inner_spec is None:
            return None
        # Order-reversed encoding: descending sorts ride the ascending
        # integer kernels unchanged.
        return kernels.ReversedKeySpec(inner_spec)

    def align_window(self, window, is_first, global_start):
        return self.inner.align_window(window, is_first, global_start)


@dataclasses.dataclass(frozen=True, slots=True)
class OrderByResult:
    """Outcome of an OrderBy: ranked runs plus pruning metadata."""

    #: Sorted runs in rank order; their concatenation is the answer.
    runs: tuple[SortedRun, ...]
    workers: int
    #: Records in the input object.
    input_records: int
    #: Records actually emitted (== input unless a limit pruned).
    emitted_records: int
    #: Reduce partitions skipped by limit pushdown.
    pruned_partitions: int
    duration_s: float

    @property
    def total_bytes(self) -> int:
        return sum(run.size_bytes for run in self.runs)


class ShuffleOrderBy:
    """Rank a storage object by an arbitrary key, optionally top-k only.

    Parameters
    ----------
    executor:
        A :class:`~repro.executor.FunctionExecutor`.
    codec:
        Record format; its :meth:`~repro.shuffle.records.RecordCodec.key`
        defines the ranking.
    descending:
        Rank from largest to smallest key.
    cost:
        Cost-model constants (sampling, write-combining, throughputs).
    """

    def __init__(
        self,
        executor,
        codec: RecordCodec,
        descending: bool = False,
        cost: ShuffleCostModel | None = None,
    ):
        self.executor = executor
        self.sim = executor.sim
        self.codec = _DescendingCodec(codec) if descending else codec
        self.descending = descending
        self.cost = cost if cost is not None else ShuffleCostModel()

    # ------------------------------------------------------------------
    def order(
        self,
        bucket: str,
        key: str,
        out_bucket: str | None = None,
        out_prefix: str = "orderby",
        workers: int = 8,
        samplers: int = 8,
        limit: int | None = None,
    ) -> SimEvent:
        """Rank ``bucket/key``; event → :class:`OrderByResult`."""
        if limit is not None and limit < 1:
            raise ShuffleError(f"limit must be >= 1, got {limit}")
        return self.sim.process(
            self._order(
                bucket,
                key,
                out_bucket if out_bucket is not None else bucket,
                out_prefix,
                workers,
                samplers,
                limit,
            ),
            name=f"orderby:{key}",
        ).completion

    def top_k(
        self,
        bucket: str,
        key: str,
        k: int,
        out_bucket: str | None = None,
        out_prefix: str = "topk",
        workers: int = 8,
        samplers: int = 8,
    ) -> SimEvent:
        """Convenience: the ``k`` first-ranked records only."""
        return self.order(
            bucket,
            key,
            out_bucket=out_bucket,
            out_prefix=out_prefix,
            workers=workers,
            samplers=samplers,
            limit=k,
        )

    # ------------------------------------------------------------------
    def _order(
        self,
        bucket: str,
        key: str,
        out_bucket: str,
        out_prefix: str,
        workers: int,
        samplers: int,
        limit: int | None,
    ) -> t.Generator:
        started_at = self.sim.now
        if workers < 1:
            raise ShuffleError(f"workers must be >= 1, got {workers}")
        meta = yield self.executor.storage.head_object(bucket, key)
        real_size = meta.size
        if real_size == 0:
            raise ShuffleError(f"cannot order empty object {bucket}/{key}")

        # --- sample and map ------------------------------------------------
        map_tasks, map_results = yield from sample_and_map(
            self.executor, self.codec, self.cost, bucket, key, real_size,
            workers, samplers, out_bucket, out_prefix, write_combining=True,
        )
        input_records = sum(result["records"] for result in map_results)

        # --- limit pushdown ------------------------------------------------
        # Records per rank partition, summed over mappers.
        partition_totals = [
            sum(result["partition_records"][partition] for result in map_results)
            for partition in range(workers)
        ]
        reduce_plan: list[tuple[int, int | None]] = []  # (partition, limit)
        if limit is None:
            reduce_plan = [(partition, None) for partition in range(workers)]
        else:
            remaining = limit
            for partition in range(workers):
                if remaining <= 0:
                    break
                count = partition_totals[partition]
                reduce_plan.append(
                    (partition, remaining if remaining < count else None)
                )
                remaining -= count
        pruned = workers - len(reduce_plan)

        # --- reduce --------------------------------------------------------
        reduce_tasks = [
            {
                "out_bucket": out_bucket,
                "segments": cos_segments(True, map_tasks, map_results, partition),
                "output_key": paths.shuffle_output_key(out_prefix, partition),
                "codec": self.codec,
                "sort_throughput": self.cost.sort_throughput,
                "fetch_parallelism": self.cost.fetch_parallelism,
                "record_limit": record_limit,
            }
            for partition, record_limit in reduce_plan
        ]
        reduce_futures = yield self.executor.map(shuffle_reducer, reduce_tasks)
        reduce_results = yield self.executor.get_result(reduce_futures)

        runs = tuple(
            SortedRun(
                bucket=out_bucket,
                key=result["output_key"],
                records=result["records"],
                size_bytes=result["bytes"],
            )
            for result in reduce_results
        )
        emitted = sum(run.records for run in runs)
        if limit is None and emitted != input_records:
            raise ShuffleError(
                f"orderby lost records: mapped {input_records}, "
                f"reduced {emitted}"
            )
        if limit is not None and emitted != min(limit, input_records):
            raise ShuffleError(
                f"top-k emitted {emitted} records, expected "
                f"{min(limit, input_records)}"
            )
        return OrderByResult(
            runs=runs,
            workers=workers,
            input_records=input_records,
            emitted_records=emitted,
            pruned_partitions=pruned,
            duration_s=self.sim.now - started_at,
        )
