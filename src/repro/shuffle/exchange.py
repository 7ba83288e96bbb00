"""The unified exchange-substrate interface of the shuffle operator.

The paper's headline comparison is *where the all-to-all happens*:
object storage, an in-memory cache cluster, or a VM relay.  Everything
else about the shuffle — sampling, range partitioning, the map/reduce
orchestration, the sorted-run artifact — is substrate-independent, so
the generic :class:`~repro.shuffle.operator.ShuffleSort` drives one
:class:`ExchangeBackend` and the substrates differ only in:

* **feasibility** (:meth:`ExchangeBackend.validate`) — provisioned
  substrates have finite memory; object storage does not;
* **pricing** (:meth:`ExchangeBackend.resolve_terms`) — the class's
  rows of the one analytic cost model, the
  :class:`~repro.shuffle.planner.ExchangeTerms` over which
  :func:`~repro.shuffle.adaptive.choose_exchange_substrate` picks the
  substrate, mode and worker count a sort then runs at;
* **worker stages and task payloads** — how a mapper publishes its
  partitions and how a reducer collects its range;
* **reporting** (:meth:`ExchangeBackend.report`) — every backend emits
  one uniform :class:`ExchangeReport` carrying the substrate decision
  inputs (predicted vs actual runtime, provisioned-infrastructure cost)
  plus substrate-specific extras (cache fill, relay backpressure, ...)
  reachable as plain attributes.

Fault handling and speculation are substrate-independent by design:
every worker talks to its substrate through clients bound to the
activation's *attempt id*
(:attr:`~repro.cloud.faas.context.FunctionContext.attempt_id`), so when
the platform kills an attempt — crash, timeout, or a lost speculative
race — the substrate reclaims that attempt's in-flight state and fences
the attempt out.  Object storage is idempotent by content (a retried
mapper overwrites the same keys); the cache and relay rely on the
attempt-scoped cancellation above.  Every substrate therefore supports
executor retries *and* speculative backup tasks.

Backends: :class:`ObjectStoreExchange` and :class:`CacheExchange`
(here), :class:`~repro.shuffle.relay.RelayExchange` and
:class:`~repro.shuffle.relay.ShardedRelayExchange`.  The execution mode
is a *field*, not a class: construct any backend with
``stream=StreamConfig(...)`` and the same substrate runs pipelined —
the reduce wave overlaps the map wave behind the substrate's
per-partition readiness protocol (:mod:`repro.shuffle.streaming`).
Each class is the whole definition of its substrate — its lifecycle
(``provision`` → ``make_backend`` → ``release``) and its rows of the
cost model (``terms``, ``configurations``) are class attributes and
classmethods — and :data:`repro.shuffle.substrates.SUBSTRATES` maps
the four by name.
"""

from __future__ import annotations

import abc
import dataclasses
import typing as t

from repro.cloud.memstore.service import MemStoreCluster
from repro.cloud.profiles import CloudProfile
from repro.errors import ShuffleError
from repro.obs.metrics import publish_exchange_report
from repro.shuffle.cacheplanner import cache_configurations
from repro.shuffle.cachestages import cache_shuffle_mapper, cache_shuffle_reducer
from repro.shuffle.planner import (
    ExchangeTerms,
    ShuffleCostModel,
    cache_terms,
    objectstore_terms,
)
from repro.shuffle.records import RecordCodec
from repro.shuffle.stages import cos_segments, shuffle_mapper, shuffle_reducer
from repro.shuffle.streaming import (
    StreamConfig,
    streaming_shuffle_mapper,
    streaming_shuffle_reducer,
)
from repro.storage import paths

@dataclasses.dataclass(frozen=True)
class ExchangeReport:
    """Uniform per-sort execution report, identical across substrates.

    The common fields are exactly the inputs of the adaptive substrate
    decision — what the planner predicted, what actually happened, and
    what the provisioned infrastructure cost over the sort — so sweeps
    and the workflow engine can compare substrates without
    per-substrate special cases.  Substrate-specific metadata lives in
    ``extra`` and is reachable as plain attributes
    (``report.backpressure_waits``) for ergonomic call sites.

    Every constructed report also publishes into the process-wide
    metrics registry (:mod:`repro.obs.metrics`), so the report is a
    per-sort *view* and the registry holds the cross-run aggregate —
    one series namespace (``repro_exchange_*``) whichever construction
    path built the report.  Construction asserts that no ``extra`` key
    shadows a common field: shadowing would make ``as_dict()`` and the
    attribute passthrough silently disagree.
    """

    substrate: str
    workers: int
    #: Selector-predicted sort time; ``None`` when the sort's caller
    #: passed no prediction (a :class:`ShuffleSort` runs at the worker
    #: count it is given; the online sort reports its first decision's).
    predicted_s: float | None
    #: Measured wall-clock of the sort.
    actual_s: float
    #: Provisioned-infrastructure dollars over ``actual_s`` — with the
    #: provider's minimum billed window applied, matching both what the
    #: cost meter actually charges and how ``choose_exchange_substrate``
    #: prices the same configuration; 0 for pay-as-you-go COS.
    provisioned_usd: float
    #: Wall-clock seconds the map and reduce waves ran concurrently — 0
    #: for a staged sort (the reduce wave starts after the map barrier),
    #: positive for the streaming execution mode.  Uniform so sweeps can
    #: report the streaming benefit without per-mode special cases.
    overlap_s: float = 0.0
    #: Peak logical bytes parked in reducer-side stream buffers (0 for
    #: staged sorts, which fetch everything in one batch).
    buffer_high_watermark_bytes: float = 0.0
    #: Max-over-mean reducer output bytes, measured on the sorted runs
    #: (1.0 is perfectly balanced).  Uniform across substrates — the
    #: same dataset and boundaries must report the same skew whichever
    #: substrate carried the exchange — so sweeps can contrast the
    #: predictor's straggler term with what actually happened.
    partition_skew: float = 1.0
    #: Substrate-specific metadata (fill fractions, request counters...).
    extra: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        shadowed = [key for key in self.extra if key in self.__dataclass_fields__]
        if shadowed:
            raise ValueError(
                f"exchange report extra keys shadow common fields: {shadowed}"
            )
        publish_exchange_report(self)

    def __getattr__(self, name: str) -> t.Any:
        # Convenience passthrough: substrate extras read like fields.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.__dict__["extra"][name]
        except KeyError:
            raise AttributeError(
                f"{self.substrate!r} exchange report has no field {name!r}"
            ) from None

    def as_dict(self) -> dict[str, t.Any]:
        """Common fields + extras, flattened (extras never shadow)."""
        out = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "extra"
        }
        for key, value in self.extra.items():
            out.setdefault(key, value)
        return out

    def describe(self) -> str:
        """Fixed-width field table — the uniform printer sweeps use.

        Common fields first (the substrate-decision inputs), extras
        after in insertion order, one ``name  value`` row each.
        """
        rows = list(self.as_dict().items())
        width = max(len(name) for name, _value in rows)
        lines = [f"exchange report ({self.substrate}):"]
        for name, value in rows:
            if isinstance(value, float):
                rendered = f"{value:.6g}"
            else:
                rendered = str(value)
            lines.append(f"  {name.ljust(width)}  {rendered}")
        return "\n".join(lines)


class ExchangeBackend(abc.ABC):
    """One intermediate-data substrate, as seen by the shuffle operator.

    The operator calls ``begin_sort`` → ``validate`` →
    ``mapper_task``\\* → ``on_map_done`` → ``reducer_task``\\* →
    ``report`` → ``end_sort`` over each sort (``end_sort`` however the
    sort ended); a backend may serve several sequential sorts (a reused
    operator), so per-sort bookkeeping (stat baselines, peaks) opens in
    ``validate`` and what the sort holds on a shared substrate is
    released in ``end_sort``.  ``cost`` is the workload's
    :class:`~repro.shuffle.planner.ShuffleCostModel`, the same type on
    every substrate.

    **Execution mode.**  ``stream`` is ``None`` for a *staged* sort (map
    barrier before the reduce wave) or a
    :class:`~repro.shuffle.streaming.StreamConfig` for a *streaming*
    one (pipelined waves).  Pricing, validation, feasibility, billing
    and the uniform report are the same object either way; a stream
    config only swaps the worker stages and task payloads.  A subclass
    supplies the staged half (``staged_stages``, ``_staged_mapper_task``,
    ``_staged_reducer_task``), its stream routing (``stream_kind``,
    ``stream_route``) and, when provisioned, its ``configuration``.
    """

    #: Substrate name as it appears in sweeps and reports.
    name: t.ClassVar[str]
    #: mode → (prefix of the operator's simulation process names,
    #: default output prefix of :meth:`ShuffleSort.sort`).  Data, not
    #: derived: both feed object keys and process names.
    labels: t.ClassVar[dict[str, tuple[str, str]]]
    #: The staged (mapper, reducer) sim-aware generator functions.
    staged_stages: t.ClassVar[tuple[t.Callable, t.Callable]]
    #: Worker-side stream port kind (see :mod:`repro.shuffle.streaming`).
    stream_kind: t.ClassVar[str]

    # -- the substrate as a driver provisions it -----------------------
    #: Whether the substrate rides provisioned infrastructure (what
    #: :meth:`provision` brings up; the backend's first argument).
    provisioned: t.ClassVar[bool] = False
    #: Boolean cost-model field a staged sort stage exposes as a stage
    #: param of the same name (reducer-side deletion), if any.
    stage_flag: t.ClassVar[str | None] = None
    #: Stage param naming the flavour, and its default.
    flavour_param: t.ClassVar[tuple[str, t.Any] | None] = None
    #: Stage param naming the count, and its default (none: one).
    count_param: t.ClassVar[tuple[str, int] | None] = None
    #: Fleets terminate unconditionally: per-shard termination is
    #: idempotent, and a partially-down fleet must still stop the
    #: surviving shards' clocks.  Single resources only while running.
    terminate_if_down: t.ClassVar[bool] = False
    #: ``(artifact key, report field)`` pairs a staged sort stage adds.
    artifact_extras: t.ClassVar[tuple[tuple[str, str], ...]] = ()

    # -- the substrate in the cost model -------------------------------
    #: ``(profile, cost, flavour, count) -> ExchangeTerms``, a builder
    #: of :mod:`repro.shuffle.planner`; ``flavour`` is the catalog
    #: entry, or ``None`` (its NIC then does not bind; no price).
    terms: t.ClassVar[t.Callable[..., ExchangeTerms]]
    #: ``(logical_bytes, profile, *, flavour=<flavour_param default>)``
    #: → the candidate ``(flavour name, count)`` configurations the
    #: selector prices at that flavour (``None``: the class sizes it),
    #: smallest first, or a string saying why none holds the data.
    configurations: t.ClassVar[t.Callable[..., list[tuple[str, int]] | str]]
    #: What error messages call a flavour and a count of this substrate.
    flavour_kind: t.ClassVar[str] = ""
    count_kind: t.ClassVar[str] = "count"

    cost: ShuffleCostModel
    stream: StreamConfig | None = None
    #: Output namespace and record format of the sort in progress,
    #: bound by :meth:`begin_sort` (``None`` before the first sort).
    out_bucket: str | None = None
    out_prefix: str | None = None
    codec: RecordCodec | None = None

    @property
    def mode(self) -> str:
        """``"staged"`` or ``"streaming"``."""
        return "staged" if self.stream is None else "streaming"

    @staticmethod
    def catalog(profile: CloudProfile) -> dict | None:
        """The profile catalog the substrate's flavours are named in
        (``None``: pay-as-you-go, nothing provisioned)."""
        return None

    @classmethod
    def resolve_terms(
        cls,
        profile: CloudProfile,
        cost: ShuffleCostModel | None = None,
        flavour: str | None = None,
        count: int = 1,
    ) -> ExchangeTerms:
        """This substrate's :class:`~repro.shuffle.planner.ExchangeTerms`
        on ``profile`` at ``flavour`` (a name in :meth:`catalog`) ×
        ``count`` (nodes / shards: N instances aggregate N NICs and N
        request loops; each worker stays bounded by its own connection).
        """
        if count < 1:
            raise ShuffleError(f"{cls.count_kind} must be >= 1, got {count}")
        entry = None
        catalog = cls.catalog(profile) if flavour else None
        if catalog is not None:
            if flavour not in catalog:
                raise ShuffleError(
                    f"unknown {cls.flavour_kind} {flavour!r}; available: {sorted(catalog)}"
                )
            entry = catalog[flavour]
        return cls.terms(profile, cost if cost is not None else ShuffleCostModel(), entry, count)

    # -- lifecycle of the provisioned resource -------------------------
    @classmethod
    def size_to_fit(
        cls, logical_bytes: float, profile: CloudProfile, flavour: t.Any = None, count: int = 0
    ) -> tuple[t.Any, int]:
        """The ``(flavour, count)`` :meth:`provision` brings up: pins as
        given; a count below 1 sized to the first (smallest) of
        :attr:`configurations` for the flavour, a falsy flavour taken as
        the :attr:`flavour_param` default (a pinned count keeps at least
        the sized count); one without a count param.  Infeasible:
        ShuffleError.
        """
        if cls.count_param is None:
            count = 1
        if flavour and count >= 1:
            return flavour, count
        if not flavour and cls.flavour_param:
            flavour = cls.flavour_param[1]
        sized = cls.configurations(logical_bytes, profile, flavour=flavour)
        if isinstance(sized, str):
            raise ShuffleError(sized)
        sized_flavour, sized_count = sized[0]
        return sized_flavour, max(count, sized_count)

    @staticmethod
    def bring_up(cloud, flavour: t.Any, count: int, cold: bool) -> t.Any:
        """The running resource, off the clock — or, when ``cold``, an
        event yielding it once booted (provisioned substrates only)."""
        raise NotImplementedError

    @classmethod
    def provision(
        cls,
        cloud,
        logical_bytes: float,
        flavour: t.Any = None,
        count: int = 0,
        cold: bool = False,
    ) -> t.Any:
        """Size (where asked to) and bring up this substrate's resource.

        Returns ``None`` for pay-as-you-go object storage, the running
        resource when warm, and — when ``cold`` — an event the caller
        yields for it, paying creation/boot on the simulated clock.
        Billing starts now either way; pair with :meth:`release`.
        """
        if not cls.provisioned:
            return None
        flavour, count = cls.size_to_fit(logical_bytes, cloud.profile, flavour, count)
        return cls.bring_up(cloud, flavour, count, cold)

    @classmethod
    def release(cls, provisioned: t.Any) -> None:
        """Stop a provisioned resource's billing clocks (idempotent)."""
        if provisioned is None:
            return
        if cls.terminate_if_down or provisioned.state == "running":
            provisioned.terminate()

    @classmethod
    def make_backend(
        cls,
        provisioned: t.Any,
        cost: ShuffleCostModel,
        stream: StreamConfig | None = None,
    ) -> "ExchangeBackend":
        """A backend over ``provisioned`` (``None`` for object
        storage); ``stream`` selects the streaming mode."""
        if not cls.provisioned:
            return cls(cost=cost, stream=stream)
        return cls(provisioned, cost=cost, stream=stream)

    def bind_executor(self, executor: t.Any) -> None:
        """Hook at operator construction, giving the backend a handle on
        the driving executor (and through it the simulated cloud).  The
        object-storage substrate uses it to read the store's dedup
        counters into its report; the default is a no-op."""

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        """Content-address log of this sort's exchange chunks under
        ``prefix`` — ``(key, sha256, logical_bytes)`` triples, one per
        dedup-eligible commit — feeding the verifiable
        :class:`~repro.shuffle.content.RunManifest`.  Backends without a
        content log contribute an empty chunk section (the manifest
        chain still covers inputs, decisions and outputs)."""
        return []

    def begin_sort(self, out_bucket: str, out_prefix: str, codec: RecordCodec) -> None:
        """Bind the backend to one sort — called first, before
        ``validate``, once the operator has resolved the output
        namespace.  The payload builders below read it, and backends
        that scope shared-substrate state per exchange (the sharded
        fleet's router table) key it by ``out_prefix``."""
        self.out_bucket, self.out_prefix, self.codec = out_bucket, out_prefix, codec

    def validate(self, logical_size: float) -> None:
        """Raise :class:`~repro.errors.ShuffleError` when the shuffle
        cannot fit this substrate; no-op by default."""

    def end_sort(self) -> None:
        """Release what the sort holds on a shared substrate (the relay's
        peak epoch, the fleet's router) once it finished, failed or was
        cancelled — also when the substrate was torn down under it, so
        this must not raise; no-op by default."""

    # -- pricing -------------------------------------------------------
    @property
    def configuration(self) -> tuple[str | None, int]:
        """``(flavour name, count)`` of the provisioned resource behind
        this backend — what resolves its terms in the cost model."""
        return None, 1

    # -- worker stages and task payloads -------------------------------
    def mapper_stage(self) -> t.Callable:
        """The sim-aware generator function run by every mapper."""
        return self.staged_stages[0] if self.stream is None else streaming_shuffle_mapper

    def reducer_stage(self) -> t.Callable:
        """The sim-aware generator function run by every reducer."""
        return self.staged_stages[1] if self.stream is None else streaming_shuffle_reducer

    @abc.abstractmethod
    def _staged_mapper_task(self, base: dict, mapper_id: int) -> dict:
        """Complete one staged mapper payload from the neutral base."""

    @abc.abstractmethod
    def _staged_reducer_task(
        self, reducer_id: int, map_tasks: list[dict], map_results: list[dict]
    ) -> dict:
        """Build one staged reducer payload from the map results."""

    @abc.abstractmethod
    def stream_route(self) -> dict:
        """Substrate routing fields of the stream descriptor."""

    def stream_descriptor(self) -> dict:
        """What a streaming worker needs to open its stream port."""
        stream = t.cast(StreamConfig, self.stream)
        return {
            "kind": self.stream_kind,
            "prefix": f"{self.out_prefix}/stream",
            "chunk_bytes": stream.chunk_bytes,
            "buffer_bytes": stream.buffer_bytes,
            "poll_interval": stream.poll_interval_s,
            **self.stream_route(),
        }

    def _output_key(self, reducer_id: int) -> str:
        return paths.shuffle_output_key(self.out_prefix, reducer_id)

    def mapper_task(self, base: dict, mapper_id: int) -> dict:
        """Complete one mapper payload from the substrate-neutral base."""
        if self.stream is None:
            return self._staged_mapper_task(base, mapper_id)
        base.update(mapper_id=mapper_id, stream=self.stream_descriptor())
        return base

    def reducer_task(
        self, reducer_id: int, map_tasks: list[dict], map_results: list[dict]
    ) -> dict:
        """Build one reducer payload (one per mapper in ``map_tasks``).
        A streaming reducer launches before any map result exists and
        ignores ``map_results``."""
        if self.stream is None:
            return self._staged_reducer_task(reducer_id, map_tasks, map_results)
        return {
            "reducer_id": reducer_id,
            "mappers": len(map_tasks),
            "out_bucket": self.out_bucket,
            "output_key": self._output_key(reducer_id),
            "codec": self.codec,
            "sort_throughput": self.cost.sort_throughput,
            "stream": self.stream_descriptor(),
        }

    def on_boundaries(
        self, boundaries: t.Sequence[t.Any], predicted_partition_bytes: t.Sequence[float]
    ) -> None:
        """Hook after boundary selection, before any exchange traffic.

        ``predicted_partition_bytes`` is the sample-based load estimate
        per partition (logical bytes).  The sharded relay fleet uses it
        to install load-aware shard routing; the default is a no-op.
        """

    def on_map_done(self, map_results: list[dict]) -> None:
        """Hook between the map and reduce waves (e.g. record peak fill)."""

    def provisioned_rate_usd_per_s(self) -> float:
        """Dollars per second of provisioned infrastructure (0 for COS)."""
        return 0.0

    def minimum_billed_s(self) -> float:
        """The provider's minimum billed window for this substrate's
        provisioned infrastructure (0 for pay-as-you-go)."""
        return 0.0

    def extra_report(self) -> dict[str, t.Any]:
        """Substrate-specific additions to the uniform report."""
        return {}

    def report(
        self,
        workers: int,
        predicted_s: float | None,
        duration_s: float,
        overlap_s: float = 0.0,
        buffer_high_watermark_bytes: float = 0.0,
        partition_skew: float = 1.0,
        extra: dict[str, t.Any] | None = None,
    ) -> ExchangeReport:
        """The uniform per-sort report; backends customize via the
        hooks above rather than overriding this.  The operator passes
        the wave-overlap, buffer and partition-skew observations it
        alone can measure (overlap/buffers are zero for staged sorts);
        ``extra`` adds operator-side metadata on top of
        :meth:`extra_report` (operator keys win)."""
        billed_s = max(duration_s, self.minimum_billed_s())
        merged: dict[str, t.Any] = {"mode": self.mode}
        merged.update(self.extra_report())
        if extra:
            merged.update(extra)
        return ExchangeReport(
            substrate=self.name,
            workers=workers,
            predicted_s=predicted_s,
            actual_s=duration_s,
            provisioned_usd=self.provisioned_rate_usd_per_s() * billed_s,
            overlap_s=overlap_s,
            buffer_high_watermark_bytes=buffer_high_watermark_bytes,
            partition_skew=partition_skew,
            extra=merged,
        )


class ObjectStoreExchange(ExchangeBackend):
    """The paper's serverless default: all-to-all through object storage.

    Staged, mappers write (write-combined) partition objects and
    reducers range-GET their segments — pay-as-you-go requests, no
    provisioned capacity, but per-request latency and the account ops/s
    ceiling at high worker counts.  Streaming, mappers PUT per-chunk
    combined objects plus immutable manifests and reducers poll for
    them (with backoff).
    """

    name = "objectstore"
    labels = {
        "staged": ("shuffle", "shuffle-out"),
        "streaming": ("streamshuffle", "streaming-shuffle"),
    }
    staged_stages = (shuffle_mapper, shuffle_reducer)
    stream_kind = "objectstore"
    terms = staticmethod(objectstore_terms)

    @staticmethod
    def configurations(
        logical_bytes: float,
        profile: CloudProfile,
        *,
        flavour: str | None = None,
    ) -> list[tuple[str, int]]:
        """Nothing to size: the one pay-as-you-go configuration."""
        return [("", 1)]

    def __init__(
        self, cost: ShuffleCostModel | None = None, stream: StreamConfig | None = None
    ):
        self.cost = cost if cost is not None else ShuffleCostModel()
        self.stream = stream
        self._store = None
        self._dedup_baseline = (0, 0.0)

    def bind_executor(self, executor: t.Any) -> None:
        self._store = executor.cloud.store

    def validate(self, logical_size: float) -> None:
        # Per-sort bookkeeping: dedup counters are reported as deltas
        # over the sort, so a reused operator doesn't double-count.
        if self._store is not None:
            self._dedup_baseline = (
                self._store.stats.dedup_ops,
                self._store.stats.dedup_bytes,
            )

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        if self._store is None:
            return []
        return self._store.cas_entries(prefix)

    def extra_report(self) -> dict[str, t.Any]:
        if self._store is None:
            return {}
        base_ops, base_bytes = self._dedup_baseline
        return {
            "dedup_ops": self._store.stats.dedup_ops - base_ops,
            "dedup_bytes": self._store.stats.dedup_bytes - base_bytes,
        }

    def _staged_mapper_task(self, base: dict, mapper_id: int) -> dict:
        base.update(
            out_bucket=self.out_bucket,
            out_key=paths.shuffle_map_output_key(self.out_prefix, mapper_id),
            write_combining=self.cost.write_combining,
        )
        return base

    def _staged_reducer_task(
        self, reducer_id: int, map_tasks: list[dict], map_results: list[dict]
    ) -> dict:
        return {
            "out_bucket": self.out_bucket,
            "segments": cos_segments(
                self.cost.write_combining, map_tasks, map_results, reducer_id
            ),
            "output_key": self._output_key(reducer_id),
            "codec": self.codec,
            "sort_throughput": self.cost.sort_throughput,
            "fetch_parallelism": self.cost.fetch_parallelism,
        }

    def stream_route(self) -> dict:
        return {"bucket": self.out_bucket}


class CacheExchange(ExchangeBackend):
    """Exchange partitions through a provisioned in-memory cache cluster.

    ``cluster`` must be *running*; its lifecycle (provision/terminate)
    belongs to the caller — whether it is billed per run or amortized
    always-on is an experiment decision, not an operator one.  Staged,
    mappers MSET one value per reducer and reducers MGET their range;
    streaming, reducers park on the owning node's set notification.
    """

    name = "cache"
    labels = {
        "staged": ("cacheshuffle", "cache-shuffle"),
        "streaming": ("streamcacheshuffle", "streaming-cache-shuffle"),
    }
    staged_stages = (cache_shuffle_mapper, cache_shuffle_reducer)
    stream_kind = "cache"
    provisioned = True
    stage_flag = "cleanup"
    flavour_param = ("node_type", "cache.r5.large")
    count_param = ("nodes", 0)
    artifact_extras = (
        ("cache_nodes", "nodes"),
        ("cache_node_type", "node_type"),
        ("cache_peak_fill", "peak_fill_fraction"),
    )
    terms = staticmethod(cache_terms)
    configurations = staticmethod(cache_configurations)
    flavour_kind = "cache node type"
    count_kind = "nodes"

    @staticmethod
    def catalog(profile: CloudProfile) -> dict:
        return profile.memstore.catalog

    @staticmethod
    def bring_up(cloud, node_type: str, nodes: int, cold: bool) -> t.Any:
        if cold:
            return cloud.cache.provision(node_type, nodes)
        return cloud.cache.provision_ready(node_type, nodes)

    def __init__(
        self,
        cluster: MemStoreCluster,
        cost: ShuffleCostModel | None = None,
        stream: StreamConfig | None = None,
    ):
        self.cluster = cluster
        self.cost = cost if cost is not None else ShuffleCostModel()
        self.stream = stream
        self._peak_fill = 0.0
        self._stats_baseline: dict[str, float] = {}

    def validate(self, logical_size: float) -> None:
        self.cluster.ensure_running()
        if logical_size > self.cluster.capacity_bytes:
            raise ShuffleError(
                f"shuffle data ({logical_size:.0f} logical bytes) exceeds "
                f"cluster capacity ({self.cluster.capacity_bytes:.0f}); "
                "provision more or larger cache nodes"
            )
        # The cluster may be reused across sorts (its lifecycle belongs
        # to the caller); report per-sort deltas, not lifetime totals.
        self._stats_baseline = self.cluster.stats_totals()

    @property
    def configuration(self) -> tuple[str, int]:
        return self.cluster.node_type.name, len(self.cluster.nodes)

    def _staged_mapper_task(self, base: dict, mapper_id: int) -> dict:
        base.update(
            cluster_id=self.cluster.cluster_id,
            cache_prefix=self.out_prefix,
            mapper_id=mapper_id,
        )
        return base

    def _staged_reducer_task(
        self, reducer_id: int, map_tasks: list[dict], map_results: list[dict]
    ) -> dict:
        return {
            "cluster_id": self.cluster.cluster_id,
            "cache_prefix": self.out_prefix,
            "reducer_id": reducer_id,
            "mappers": len(map_tasks),
            "out_bucket": self.out_bucket,
            "output_key": self._output_key(reducer_id),
            "codec": self.codec,
            "sort_throughput": self.cost.sort_throughput,
            "cleanup": self.cost.cleanup,
        }

    def stream_route(self) -> dict:
        return {"cluster_id": self.cluster.cluster_id}

    def on_map_done(self, map_results: list[dict]) -> None:
        self._peak_fill = max(node.fill_fraction for node in self.cluster.nodes)

    def provisioned_rate_usd_per_s(self) -> float:
        return len(self.cluster.nodes) * self.cluster.node_type.per_second_usd

    def minimum_billed_s(self) -> float:
        return self.cluster.service.profile.minimum_billed_s

    def extra_report(self) -> dict:
        totals = self.cluster.stats_totals()
        baseline = self._stats_baseline

        def since(name: str) -> float:
            return totals[name] - baseline.get(name, 0)

        return {
            "cluster_id": self.cluster.cluster_id,
            "nodes": len(self.cluster.nodes),
            "node_type": self.cluster.node_type.name,
            "peak_fill_fraction": self._peak_fill,
            "cache_sets": int(since("sets")),
            "cache_gets": int(since("gets")),
            "dedup_hits": int(since("dedup_hits")),
            "dedup_restores": int(since("dedup_restores")),
            "dedup_bytes": since("dedup_bytes"),
        }

    def cas_entries(self, prefix: str) -> list[tuple[str, str, float]]:
        return self.cluster.cas_entries(prefix)
