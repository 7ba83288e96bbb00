"""Online shuffle sort: mid-stream substrate re-selection (OnlineTuner v2).

:class:`OnlineShuffleSort` turns the one-shot pre-flight decision of
:func:`~repro.shuffle.adaptive.choose_exchange_substrate` into a
**control loop running inside the shuffle**.  The input object is cut
into a fixed (mapper × chunk) grid up front; mappers then execute in
*waves* — wave ``k`` reads and publishes every mapper's chunk ``k`` —
and between waves the driver:

1. refits a profile copy from the waves' *observed* chunk publish rates
   (:func:`~repro.shuffle.adaptive.fit_stream_profiles` — the telemetry
   the pipeline produced anyway, no dedicated probe);
2. re-runs :func:`~repro.shuffle.adaptive.choose_exchange_substrate` on
   the **remaining** bytes, and — behind a hysteresis margin — switches
   the worker count, shard count, mode, or (at the chunk boundary) the
   exchange substrate itself for every future wave;
3. when the running substrate is the rebalancing relay fleet, re-routes
   future chunks of hot (mapper, reducer) cells at chunk grain
   (:func:`~repro.shuffle.relay.build_chunk_rebalance_assignments`
   installed as a :meth:`~repro.shuffle.relay.PartitionLoadRouter.with_chunk_epoch`).

Reducers are substrate-agnostic subscribers: a tiny **control plane**
on object storage (a grid record plus one immutable *route record* per
wave, published before that wave's mappers are submitted) tells every
reducer which substrate carries which wave, so a reducer simply follows
the route table chunk by chunk — chunks already published on an earlier
substrate keep their routes, the rendezvous invariant mid-switch.

Because each wave reads only its own input sub-range (chunked map-side
*input* reads), the pipeline fill is one chunk's read + publish instead
of the whole split read + the first chunk — the shape
``choose_exchange_substrate(stream_chunked_input=True)`` prices.

Byte parity: each reducer reassembles its partition in (mapper, chunk)
order — exactly the record order the staged mapper would have
partitioned in — then applies the same stable sort, so the sorted runs
are byte-identical to every static substrate's at the same boundaries.

The whole decision history lands in a
:class:`~repro.shuffle.adaptive.DecisionTimeline`
(:attr:`OnlineShuffleSort.timeline`); benchmark S12 runs the operator
and measures the payoff against every static decision under a mid-run
rate shift.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.errors import ShuffleError
from repro.shuffle.adaptive import (
    DecisionPoint,
    DecisionTimeline,
    StreamRateSample,
    SubstrateDecision,
    SubstrateEstimate,
    choose_exchange_substrate,
    fit_stream_profiles,
)
from repro.shuffle.exchange import ExchangeBackend, ExchangeReport, ObjectStoreExchange
from repro.shuffle.operator import PEEK_BYTES, ShuffleResult, ShuffleSort, _split
from repro.shuffle.planner import ShuffleCostModel
from repro.shuffle.records import RecordCodec
from repro.shuffle.relay import (
    PartitionLoadRouter,
    build_chunk_rebalance_assignments,
    build_rebalance_assignments,
)
from repro.shuffle import kernels
from repro.shuffle.sampler import partition_skew_of
from repro.shuffle.stages import read_split
from repro.shuffle.streaming import (
    StreamConfig,
    _make_port,
    poll_object,
    subscribe_and_sort,
)
from repro.shuffle.substrates import SUBSTRATES
from repro.sim import SimEvent
from repro.storage import paths
from repro.storage.serializer import deserialize, serialize


#: Hot-partition sensitivity: the fraction by which the hottest shard's
#: share of a wave's observed bytes (projected through the routing that
#: will govern the next chunks) must exceed its fair share before the
#: online sort re-routes at chunk grain.
REROUTE_THRESHOLD = 0.2


# ----------------------------------------------------------------------
# control-plane key layout (always on object storage)
# ----------------------------------------------------------------------
def online_grid_key(ctl_prefix: str) -> str:
    """COS object describing the fixed (mapper × chunk) grid."""
    return f"{ctl_prefix}/grid"


def online_route_key(ctl_prefix: str, wave: int) -> str:
    """COS object routing wave ``wave``'s chunks to their substrate."""
    return f"{ctl_prefix}/w{wave:05d}"


class _RouteTable:
    """Reducer-side cache of wave → stream port.

    Route records are immutable once written (the driver publishes wave
    ``k``'s record before submitting wave ``k``'s mappers), so each is
    read at most once per reducer; ports are shared across waves that
    route to the same substrate instance (``route_id``).
    """

    def __init__(self, ctx, bucket: str, ctl_prefix: str, poll_interval: float):
        self.ctx = ctx
        self.bucket = bucket
        self.ctl_prefix = ctl_prefix
        self.poll_interval = poll_interval
        self._descriptors: dict[int, dict] = {}
        self._ports: dict[str, t.Any] = {}

    def port(self, wave: int) -> t.Generator:
        descriptor = self._descriptors.get(wave)
        if descriptor is None:
            raw = yield from poll_object(
                self.ctx, self.bucket,
                online_route_key(self.ctl_prefix, wave), self.poll_interval,
            )
            descriptor = deserialize(raw)
            self._descriptors[wave] = descriptor
        route_id = descriptor["route_id"]
        port = self._ports.get(route_id)
        if port is None:
            port = _make_port(self.ctx, descriptor)
            self._ports[route_id] = port
        return port


# ----------------------------------------------------------------------
# worker stages
# ----------------------------------------------------------------------
def online_wave_mapper(ctx, task: dict) -> t.Generator:
    """Read, partition and publish one wave's chunk units.

    Task fields: ``units`` (list of ``{mapper_id, chunk, start, end}``
    input sub-ranges), ``bucket, key, object_size, peek_bytes,
    boundaries, codec, partition_throughput`` and the ``stream`` port
    descriptor of this wave's substrate.  Unlike the streaming mapper,
    the *input read itself* is chunked: each unit reads only its own
    sub-range before publishing, so the pipeline fill is one chunk's
    read + publish, not the whole split read.

    Returns per-wave telemetry the driver's control loop feeds back:
    summed ``read_s``/``publish_s``, the published logical bytes, and
    the per-(mapper, chunk) reducer-byte ``cells`` behind hot-partition
    rerouting.
    """
    started_at = ctx.sim.now
    codec: RecordCodec = task["codec"]
    boundaries = task["boundaries"]
    parts = len(boundaries) + 1
    port = _make_port(ctx, task["stream"])

    records_total = 0
    read_s = 0.0
    publish_s = 0.0
    published_logical = 0.0
    partition_bytes = [0.0] * parts
    cells: list[dict] = []
    kernel_kinds: set[str] = set()
    kernel_s = 0.0
    for unit in task["units"]:
        before = ctx.sim.now
        owned = yield from read_split(ctx, task, unit["start"], unit["end"])
        read_s += ctx.sim.now - before
        outcome = kernels.partition_buffer(codec, owned, boundaries)
        segments = outcome.segments()
        records_total += outcome.records
        kernel_kinds.add(outcome.kernel)
        kernel_s += outcome.elapsed_s
        yield ctx.compute_bytes(len(owned), task["partition_throughput"])
        cell_bytes = [len(segment) * ctx.logical_scale for segment in segments]
        before = ctx.sim.now
        yield from port.publish(unit["mapper_id"], unit["chunk"], segments)
        publish_s += ctx.sim.now - before
        published_logical += sum(cell_bytes)
        for reducer_id, logical in enumerate(cell_bytes):
            partition_bytes[reducer_id] += logical
        cells.append(
            {"mapper": unit["mapper_id"], "chunk": unit["chunk"],
             "bytes": cell_bytes}
        )
    return {
        "records": records_total,
        "units": len(task["units"]),
        "chunks": len(task["units"]),
        "read_s": read_s,
        "publish_s": publish_s,
        "published_logical": published_logical,
        "partition_bytes": partition_bytes,
        "cells": cells,
        "started_at": started_at,
        "kernel": kernels.kernel_label(kernel_kinds) or kernels.KERNEL_SCALAR,
        "kernel_records": records_total,
        "kernel_s": kernel_s,
    }


def online_stream_reducer(ctx, task: dict) -> t.Generator:
    """Follow the route table chunk by chunk; sort as chunks land.

    Task fields: ``reducer_id, bucket, ctl_prefix, poll_interval,
    buffer_bytes, out_bucket, output_key, codec, sort_throughput``.
    The grid record supplies the (mapper × chunk) shape; each chunk's
    substrate comes from that wave's route record, so the reducer keeps
    fetching seamlessly across mid-stream substrate switches (chunks
    published before a switch keep their old route).  Buffering,
    backpressure and the incremental sorter are the streaming
    reducer's (:func:`~repro.shuffle.streaming.subscribe_and_sort`);
    the reassembly order (mapper-major, then chunk) is the staged
    record order, so the sorted run is byte-identical.
    """
    started_at = ctx.sim.now
    reducer_id = task["reducer_id"]
    poll_interval = task["poll_interval"]
    raw = yield from poll_object(
        ctx, task["bucket"], online_grid_key(task["ctl_prefix"]), poll_interval
    )
    grid = deserialize(raw)
    routes = _RouteTable(ctx, task["bucket"], task["ctl_prefix"], poll_interval)

    def next_chunk(mapper_id: int, chunk_index: int) -> t.Generator:
        port = yield from routes.port(chunk_index)
        return (yield from port.fetch_chunk(mapper_id, reducer_id, chunk_index))

    return (
        yield from subscribe_and_sort(
            ctx,
            task,
            started_at=started_at,
            mappers=grid["mappers"],
            buffer_bytes=task["buffer_bytes"],
            next_chunk=next_chunk,
            chunk_counts=grid["chunks"],
            label="online",
        )
    )


# ----------------------------------------------------------------------
# driver-side substrate stints
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Stint:
    """One provisioned substrate serving a contiguous run of waves."""

    #: The substrate's streaming backend over ``provisioned`` — the
    #: stint's source of routing fields, billing rate and content log;
    #: its class releases ``provisioned``.
    backend: ExchangeBackend
    descriptor: dict
    provisioned: t.Any = None
    router: PartitionLoadRouter | None = None
    rate_usd_per_s: float = 0.0
    minimum_billed_s: float = 0.0
    started_at: float = 0.0
    ended_at: float | None = None
    peak_fill: float = 0.0
    #: Content log ``(key, sha256, logical)`` of the chunks this stint's
    #: substrate committed, captured just before it is torn down (a
    #: terminated relay/cluster takes its in-memory log with it).
    cas_entries: list[tuple[str, str, float]] = dataclasses.field(
        default_factory=list
    )
    #: Wire bytes this stint's substrate saved through content dedup
    #: (fresh instance per stint, so lifetime totals are per-stint).
    dedup_bytes: float = 0.0

    def billed_usd(self, now: float) -> float:
        end = self.ended_at if self.ended_at is not None else now
        if self.rate_usd_per_s <= 0:
            return 0.0
        return self.rate_usd_per_s * max(
            end - self.started_at, self.minimum_billed_s
        )

    def release(self, now: float) -> None:
        self.ended_at = now
        if self.provisioned is None:
            return
        extras = self.backend.extra_report()
        self.peak_fill = extras["peak_fill_fraction"]
        self.dedup_bytes = extras["dedup_bytes"]
        self.cas_entries = self.backend.cas_entries(self.descriptor["prefix"])
        self.backend.release(self.provisioned)
        self.provisioned = None


class OnlineShuffleSort(ShuffleSort):
    """Sort with mid-stream substrate re-selection (OnlineTuner v2).

    Parameters
    ----------
    executor, codec:
        As :class:`~repro.shuffle.operator.ShuffleSort`.
    stream:
        The chunk grain / reducer buffer / poll cadence
        (:class:`~repro.shuffle.streaming.StreamConfig`).
    cost:
        The workload constants, passed to every (re-)selection and to
        the worker stages of whichever substrate a stint runs on.
    time_value_usd_per_hour, substrates, modes:
        Forwarded to :func:`~repro.shuffle.adaptive.choose_exchange_substrate`
        at every decision point; the rest of its keywords keep their
        defaults (cache.r5.large nodes, auto-sized relays, fleets of up
        to :data:`~repro.shuffle.relayplanner.MAX_RELAY_SHARDS` shards,
        uniform partition skew).
    switch_margin:
        Hysteresis: a candidate configuration only displaces the running
        one when its score undercuts the running configuration's
        *refit* score by this fraction — re-provisioning has a cost the
        analytic score does not see, so marginal wins stay put.

    A chunk-grain hot-partition reroute fires when the hottest shard's
    share of a wave's observed bytes exceeds its fair share by
    :data:`REROUTE_THRESHOLD`.

    After :meth:`sort` completes, :attr:`timeline` holds the
    :class:`~repro.shuffle.adaptive.DecisionTimeline` and
    :attr:`report` the uniform exchange report (``substrate`` = the
    final configuration's, ``mode`` = ``"online"``).
    """

    def __init__(
        self,
        executor,
        codec: RecordCodec,
        stream: StreamConfig | None = None,
        cost: ShuffleCostModel | None = None,
        time_value_usd_per_hour: float = 1.0,
        substrates: t.Sequence[str] | None = None,
        modes: t.Sequence[str] = ("staged", "streaming"),
        switch_margin: float = 0.05,
    ):
        super().__init__(executor, codec, backend=ObjectStoreExchange(cost))
        if getattr(executor, "speculation", None) is not None:
            raise ShuffleError(
                "OnlineShuffleSort drives its own wave control loop and "
                "does not support speculative execution; disable the "
                "executor's speculation policy"
            )
        if switch_margin < 0:
            raise ShuffleError(
                f"switch_margin must be >= 0, got {switch_margin}"
            )
        self.stream = stream if stream is not None else StreamConfig()
        #: What every (re-)selection passes ``choose_exchange_substrate``.
        self._selector = {
            "time_value_usd_per_hour": time_value_usd_per_hour,
            "substrates": tuple(substrates) if substrates is not None else None,
            "modes": tuple(modes),
            "cost": self.cost,
        }
        self.switch_margin = switch_margin
        #: Decision history of the last sort.
        self.timeline = DecisionTimeline()
        #: Chunk-grain hot-partition reroutes of the last sort.
        self.chunk_reroutes = 0

    def _labels(self) -> tuple[str, str]:
        return "onlineshuffle", "online-shuffle"

    # ------------------------------------------------------------------
    def _decide(
        self,
        logical_bytes: float,
        profile,
        workers: int | None,
        max_workers: int = 256,
    ) -> SubstrateDecision:
        return choose_exchange_substrate(
            max(1.0, logical_bytes),
            profile,
            workers,
            max_workers=max_workers,
            stream_chunk_bytes=self.stream.chunk_bytes,
            stream_chunked_input=True,
            **self._selector,
        )

    def _provision_stint(
        self,
        estimate: SubstrateEstimate,
        out_bucket: str,
        out_prefix: str,
        epoch: int,
        base_router_table: t.Sequence[t.Sequence[int]] | None,
    ) -> _Stint:
        """Provision (warm) the substrate one estimate priced.

        Every stint gets a *fresh* substrate instance: an earlier
        stint's chunks stay resident on its relay/cache until the
        reducers drain them, so reusing the instance could overflow a
        fleet sized only for the remaining bytes.  The stint's
        ``route_id`` names the instance in the reducers' port cache.
        ``base_router_table`` (fleets of two or more shards only)
        pre-installs load-aware routing under ``out_prefix``, the
        namespace every stream key lives in (``out_prefix/stream/``).
        """
        backend_class = SUBSTRATES[estimate.substrate]
        provisioned = backend_class.provision(
            self.executor.cloud,
            0.0,  # the estimate carries explicit sizes; nothing to auto-size
            estimate.instance_type,
            max(1, estimate.shards),
        )
        backend = backend_class.make_backend(provisioned, self.cost, self.stream)
        backend.begin_sort(out_bucket, out_prefix, self.codec)
        stint = _Stint(
            backend=backend,
            descriptor={
                "prefix": f"{out_prefix}/stream",
                "chunk_bytes": self.stream.chunk_bytes,
                "buffer_bytes": self.stream.buffer_bytes,
                "poll_interval": self.stream.poll_interval_s,
                "route_id": f"{estimate.substrate}#{epoch}",
                "kind": backend.stream_kind,
                **backend.stream_route(),
            },
            provisioned=provisioned,
            rate_usd_per_s=backend.provisioned_rate_usd_per_s(),
            minimum_billed_s=backend.minimum_billed_s(),
            started_at=self.sim.now,
        )
        if base_router_table is not None:
            stint.router = PartitionLoadRouter(base_router_table)
            provisioned.set_router(stint.router, namespace=out_prefix)
        return stint

    def _load_routed(self, estimate: SubstrateEstimate) -> bool:
        """Whether a stint for ``estimate`` starts with a load-aware
        router (a rebalancing fleet of two or more shards)."""
        return (
            estimate.substrate == "sharded-relay"
            and self.cost.rebalance
            and estimate.shards >= 2
        )

    @staticmethod
    def _config_of(estimate: SubstrateEstimate) -> tuple:
        return (
            estimate.substrate,
            estimate.mode,
            estimate.workers,
            estimate.shards,
            estimate.instance_type,
        )

    @staticmethod
    def _group_units(units: list[dict], groups: int) -> list[list[dict]]:
        """Contiguous near-even grouping of units into map tasks."""
        groups = max(1, min(groups, len(units)))
        return [
            units[start:end]
            for start, end in _split(len(units), groups)
            if end > start
        ]

    # ------------------------------------------------------------------
    def _sort(
        self,
        bucket: str,
        key: str,
        out_bucket: str,
        out_prefix: str,
        pinned_workers: int | None,
        max_workers: int,
    ) -> t.Generator:
        """Span-owning shell around :meth:`_sort_online`.

        Owns the sort's root span, folds the
        :class:`~repro.shuffle.adaptive.DecisionTimeline` into it as
        span events once the sort finished (every decision point —
        including substrate switches and hot-partition reroutes —
        appears on the exported trace at its simulation time), and on
        failure closes whatever wave spans the aborted body left open.
        """
        started_at = self.sim.now
        sort_span = self.sim.tracer.span(
            f"sort:{out_prefix}", category="sort", substrate="online",
            mode="online",
        )
        with sort_span:
            try:
                result = yield from self._sort_online(
                    bucket, key, out_bucket, out_prefix, pinned_workers,
                    max_workers, sort_span,
                )
            except BaseException:
                if sort_span.recording:
                    for open_span in self.sim.tracer.open_spans():
                        if (
                            open_span.trace_id == sort_span.trace_id
                            and open_span.category == "wave"
                        ):
                            open_span.end("error")
                raise
            if sort_span.recording:
                for point in self.timeline.points:
                    chosen = point.decision.chosen
                    sort_span.event_at(
                        started_at + point.at_s,
                        f"decision:{point.trigger}",
                        wave=point.wave,
                        substrate=chosen.substrate,
                        mode=chosen.mode,
                        workers=chosen.workers,
                        switched=point.switched,
                        detail=point.detail,
                    )
            return result

    def _sort_online(
        self,
        bucket: str,
        key: str,
        out_bucket: str,
        out_prefix: str,
        pinned_workers: int | None,
        max_workers: int,
        sort_span,
    ) -> t.Generator:
        started_at = self.sim.now
        profile = self.executor.cloud.profile
        meta = yield from self._preflight(bucket, key)
        real_size = meta.size
        total_logical = meta.logical_size
        scale = total_logical / real_size if real_size else 1.0
        self.timeline = DecisionTimeline()
        self.chunk_reroutes = 0
        cos_dedup_baseline = self.executor.cloud.store.stats.dedup_bytes

        # --- initial selection (fixes the grid's reducer count R) -----
        decision = self._decide(
            total_logical, profile, pinned_workers, max_workers
        )
        current = decision.chosen
        reducers = pinned_workers if pinned_workers is not None else current.workers
        if reducers < 1:
            raise ShuffleError(f"workers must be >= 1, got {reducers}")
        self.timeline.append(
            DecisionPoint(
                wave=0, at_s=self.sim.now - started_at, trigger="initial",
                decision=decision, switched=False,
            )
        )

        boundaries = yield from self._sample(
            bucket, key, real_size, total_logical, reducers,
            span=sort_span,
        )

        # --- the fixed (mapper × chunk) grid ---------------------------
        chunk_real = max(1, int(self.stream.chunk_bytes / max(1e-12, scale)))
        # The full-split peek window would dwarf a scaled-down chunk
        # (and every chunk re-reads it): cap it near the chunk size,
        # but never below a record-safe floor.
        peek_bytes = min(PEEK_BYTES, max(4096, chunk_real // 8))
        mapper_ranges = _split(real_size, reducers)
        chunk_counts: list[int] = []
        units_by_wave: dict[int, list[dict]] = {}
        for mapper_id, (m_start, m_end) in enumerate(mapper_ranges):
            span = m_end - m_start
            count = max(1, math.ceil(span / chunk_real)) if span else 1
            chunk_counts.append(count)
            for chunk, (c_start, c_end) in enumerate(_split(span, count)):
                units_by_wave.setdefault(chunk, []).append(
                    {
                        "mapper_id": mapper_id,
                        "chunk": chunk,
                        "start": m_start + c_start,
                        "end": m_start + c_end,
                    }
                )
        total_waves = len(units_by_wave)

        # --- first stint + control plane -------------------------------
        epoch = 0
        base_table = None
        if self._load_routed(current):
            base_table = build_rebalance_assignments(
                self.predicted_partition_bytes, reducers, current.shards
            )
        stint = self._provision_stint(
            current, out_bucket, out_prefix, epoch, base_table
        )
        stints = [stint]
        ctl_prefix = f"{out_prefix}/ctl"
        grid_payload = serialize(
            {"mappers": reducers, "reducers": reducers, "chunks": chunk_counts}
        )
        yield self.executor.storage.put(
            out_bucket, online_grid_key(ctl_prefix), grid_payload,
            logical_size=len(grid_payload),
        )

        def publish_route(wave: int) -> SimEvent:
            payload = serialize(stint.descriptor)
            return self.executor.storage.put(
                out_bucket, online_route_key(ctl_prefix, wave), payload,
                logical_size=len(payload),
            )

        job = f"{self._labels()[0]}:{out_prefix}@{started_at:.3f}"
        # One span covers the whole chunked map phase: online waves are
        # slices of a single logical stage, not separate stages.
        map_span = self.sim.tracer.span(
            "wave:map", category="wave", parent=sort_span, waves=total_waves,
            job=job,
        )
        yield publish_route(0)

        # Wave 0's mappers are submitted before the reducers so they
        # enqueue ahead on the account concurrency limit (the reducers
        # park at their rendezvous; mappers must never starve).
        def wave_tasks(units: list[dict], workers: int) -> list[dict]:
            return [
                {
                    "units": group,
                    "bucket": bucket,
                    "key": key,
                    "object_size": real_size,
                    "peek_bytes": peek_bytes,
                    "boundaries": boundaries,
                    "codec": self.codec,
                    "partition_throughput": self.cost.partition_throughput,
                    "stream": dict(stint.descriptor),
                }
                for group in self._group_units(units, workers)
            ]

        map_futures = yield self.executor.map(
            online_wave_mapper, wave_tasks(units_by_wave[0], current.workers),
            span=map_span,
        )

        reduce_tasks = [
            {
                "reducer_id": reducer_id,
                "bucket": out_bucket,
                "ctl_prefix": ctl_prefix,
                "poll_interval": self.stream.poll_interval_s,
                "buffer_bytes": self.stream.buffer_bytes,
                "out_bucket": out_bucket,
                "output_key": paths.shuffle_output_key(out_prefix, reducer_id),
                "codec": self.codec,
                "sort_throughput": self.cost.sort_throughput,
            }
            for reducer_id in range(reducers)
        ]
        reduce_span = self.sim.tracer.span(
            "wave:reduce", category="wave", parent=sort_span, workers=reducers,
            job=job,
        )
        reduce_futures = yield self.executor.map(
            online_stream_reducer, reduce_tasks, span=reduce_span
        )

        # --- the wave control loop --------------------------------------
        samples: dict[str, StreamRateSample] = {}
        observed_cells = [[0.0] * reducers for _ in range(reducers)]
        last_reroute_table = None
        map_kernel_results: list[dict] = []
        totals = {
            "records": 0, "chunks": 0, "published_logical": 0.0,
            "exec_start": float("inf"),
        }

        def absorb(map_results: list[dict]) -> float:
            """Fold one map job's results into the run totals; returns
            the logical bytes it published."""
            map_kernel_results.extend(map_results)
            totals["records"] += sum(r["records"] for r in map_results)
            totals["chunks"] += sum(r["chunks"] for r in map_results)
            totals["exec_start"] = min(
                totals["exec_start"], min(r["started_at"] for r in map_results)
            )
            published = sum(r["published_logical"] for r in map_results)
            totals["published_logical"] += published
            return published

        wave = 0
        try:
            while True:
                map_results = yield self.executor.get_result(map_futures)
                wave_logical = absorb(map_results)
                wave_cells = [[0.0] * reducers for _ in range(reducers)]
                for result in map_results:
                    for cell in result["cells"]:
                        row = observed_cells[cell["mapper"]]
                        wave_row = wave_cells[cell["mapper"]]
                        for reducer_id, logical in enumerate(cell["bytes"]):
                            row[reducer_id] += logical
                            wave_row[reducer_id] += logical
                samples[current.substrate] = StreamRateSample(
                    substrate=current.substrate,
                    logical_bytes=wave_logical,
                    publish_s=sum(r["publish_s"] for r in map_results),
                    chunks=sum(r["chunks"] for r in map_results),
                    instance_type=current.instance_type,
                )

                wave += 1
                if wave >= total_waves:
                    break
                if current.mode == "staged":
                    # A staged winner wants no inter-wave control points:
                    # route and submit everything left in one batch.
                    for later in range(wave, total_waves):
                        yield publish_route(later)
                    remaining_units = [
                        unit
                        for later in range(wave, total_waves)
                        for unit in units_by_wave[later]
                    ]
                    map_futures = yield self.executor.map(
                        online_wave_mapper,
                        wave_tasks(remaining_units, current.workers),
                        span=map_span,
                    )
                    wave = total_waves
                    absorb((yield self.executor.get_result(map_futures)))
                    break

                # Refit from observed rates; re-select on what is left.
                remaining = max(1.0, total_logical - totals["published_logical"])
                fitted = fit_stream_profiles(profile, samples.values())
                decision = self._decide(
                    remaining, fitted, pinned_workers, max_workers
                )
                candidate = decision.chosen
                keep = next(
                    (
                        estimate
                        for estimate in decision.estimates
                        if estimate.feasible
                        and estimate.substrate == current.substrate
                        and estimate.mode == current.mode
                    ),
                    None,
                )
                switched = self._config_of(candidate) != self._config_of(current)
                if switched and keep is not None:
                    switched = candidate.score_usd < keep.score_usd * (
                        1.0 - self.switch_margin
                    )
                detail = ""
                if switched:
                    detail = (
                        f"{current.substrate}/{current.mode} "
                        f"W={current.workers} -> "
                        f"{candidate.substrate}/{candidate.mode} "
                        f"W={candidate.workers}"
                    )
                self.timeline.append(
                    DecisionPoint(
                        wave=wave, at_s=self.sim.now - started_at,
                        trigger="wave", decision=decision, switched=switched,
                        detail=detail,
                    )
                )
                if switched:
                    new_substrate = (
                        candidate.substrate != current.substrate
                        or candidate.shards != current.shards
                        or candidate.instance_type != current.instance_type
                    )
                    current = candidate
                    if new_substrate:
                        epoch += 1
                        base_table = None
                        if self._load_routed(current):
                            base_table = build_chunk_rebalance_assignments(
                                observed_cells, current.shards
                            )
                        stint = self._provision_stint(
                            current, out_bucket, out_prefix, epoch, base_table
                        )
                        stints.append(stint)
                        last_reroute_table = None
                elif stint.router is not None and stint.provisioned is not None:
                    # Same fleet, but a hot (mapper, reducer) cell may
                    # have emerged: project the wave's observed cells
                    # through the routing that will govern the next
                    # chunks and re-route at chunk grain when the
                    # hottest shard drifts well above its fair share.
                    # Installing at the next wave's chunk index is
                    # rendezvous-safe — no chunk >= wave exists yet.
                    shard_count = stint.provisioned.shard_count
                    wave_total = sum(sum(row) for row in wave_cells)
                    loads = [0.0] * shard_count
                    for mapper_id, row in enumerate(wave_cells):
                        for reducer_id, cell_bytes in enumerate(row):
                            if not cell_bytes:
                                continue
                            shard = stint.router.cell(
                                mapper_id, reducer_id, wave
                            )
                            if shard is None:
                                shard = mapper_id + reducer_id
                            if shard == PartitionLoadRouter.SPREAD:
                                share = cell_bytes / shard_count
                                for index in range(shard_count):
                                    loads[index] += share
                            else:
                                loads[shard % shard_count] += cell_bytes
                    imbalance = (
                        max(loads) * shard_count / wave_total
                        if wave_total > 0
                        else 1.0
                    )
                    if (
                        shard_count >= 2
                        and imbalance > 1.0 + REROUTE_THRESHOLD
                    ):
                        table = build_chunk_rebalance_assignments(
                            wave_cells, shard_count
                        )
                        if table != last_reroute_table:
                            stint.router = stint.router.with_chunk_epoch(
                                wave, table
                            )
                            stint.provisioned.set_router(
                                stint.router, namespace=out_prefix
                            )
                            last_reroute_table = table
                            self.chunk_reroutes += 1
                            self.timeline.append(
                                DecisionPoint(
                                    wave=wave,
                                    at_s=self.sim.now - started_at,
                                    trigger="hot-partition",
                                    decision=decision,
                                    switched=False,
                                    detail=(
                                        f"hot shard at {imbalance:.2f}x "
                                        "fair share -> chunk-grain "
                                        f"reroute across {shard_count} "
                                        "shards"
                                    ),
                                )
                            )

                yield publish_route(wave)
                map_futures = yield self.executor.map(
                    online_wave_mapper,
                    wave_tasks(units_by_wave[wave], current.workers),
                    span=map_span,
                )

            map_ended_at = self.sim.now
            map_span.end()
            reduce_results = yield self.executor.get_result(reduce_futures)
            reduce_span.end()
        finally:
            for s in stints:
                s.release(self.sim.now)

        runs, total_records = self._collect_runs(
            [{"records": totals["records"]}], reduce_results, out_bucket
        )
        overlap_s, buffer_high_watermark, buffers = self._stream_observations(
            map_ended_at, totals["exec_start"], reduce_results
        )
        provisioned_usd = sum(s.billed_usd(self.sim.now) for s in stints)
        final = self.timeline.final.decision.chosen
        store = self.executor.cloud.store
        dedup_bytes = (
            store.stats.dedup_bytes - cos_dedup_baseline
            + sum(s.dedup_bytes for s in stints)
        )
        # Stints own their substrate instances (terminated above, so their
        # content logs were captured at release); the COS stints' chunk
        # objects live in the shared store's log.
        self.run_manifest = self._build_manifest(
            bucket, key, meta, reducers, boundaries, runs,
            chunks=[
                *store.cas_entries(f"{out_prefix}/stream"),
                *(entry for s in stints for entry in s.cas_entries),
            ],
            substrate=final.substrate,
            mode="online",
        )
        self.report = ExchangeReport(
            substrate=final.substrate,
            workers=reducers,
            predicted_s=self.timeline.points[0].decision.chosen.predicted_s,
            actual_s=self.sim.now - started_at,
            provisioned_usd=provisioned_usd,
            overlap_s=overlap_s,
            buffer_high_watermark_bytes=buffer_high_watermark,
            partition_skew=partition_skew_of([run.size_bytes for run in runs]),
            extra={
                "mode": "online",
                "final_mode": final.mode,
                "substrate_switches": self.timeline.switches,
                "chunk_reroutes": self.chunk_reroutes,
                "decision_points": len(self.timeline),
                "stream_chunks": totals["chunks"],
                "stints": len(stints),
                "dedup_bytes": dedup_bytes,
                **buffers,
                "predicted_partition_skew": partition_skew_of(
                    self.predicted_partition_bytes
                ),
                "relay_peak_fill": max(
                    (s.peak_fill for s in stints), default=0.0
                ),
                **kernels.kernel_report_extras(
                    map_kernel_results, reduce_results
                ),
            },
        )
        return ShuffleResult(
            runs=runs,
            workers=reducers,
            planned=None,
            boundaries=tuple(boundaries),
            total_records=total_records,
            duration_s=self.sim.now - started_at,
        )
