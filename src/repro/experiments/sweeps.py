"""The experiment sweeps (S1-S13; indexed in the README's "Experiments").

These are the ablations the paper's argument rests on but does not plot
in the two-page demo: the worker-count U-curve behind "the appropriate
number of functions", data-size scaling, storage-throughput and
cold-start sensitivity, the codec-vs-gzip ratio, the function-memory
trade-off, the write-combining I/O ablation, and the three-way
data-exchange comparison against the in-memory cache alternative.

Every sweep is ``sweep_x(config, ...) -> rows`` and is one row of
:data:`repro.experiments.EXPERIMENTS`; its parameter defaults are the
axes of its committed ``benchmarks/results`` table, and what no caller
varies is a module constant beside the sweep.  Every sort a sweep runs
goes through :func:`sort_run`.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from repro.cas import output_digest
from repro.cloud.environment import Cloud
from repro.core.calibration import ExperimentConfig
from repro.core.experiment import run_pipeline, stage_input
from repro.core.pipelines import PURE_SERVERLESS, VM_SUPPORTED
from repro.executor.executor import FunctionExecutor
from repro.executor.speculation import SpeculationPolicy
from repro.methcomp.codec import compression_ratio, gzip_ratio
from repro.methcomp.datagen import MethylomeGenerator
from repro.methcomp.pipeline import bed_record_codec
from repro.obs.metrics import nearest_rank
from repro.obs.slo import SloGate
from repro.shuffle.operator import ShuffleSort
from repro.shuffle.planner import plan_shuffle, predict_shuffle_time
from repro.shuffle.adaptive import EXCHANGE_SUBSTRATES
from repro.errors import ShuffleError
from repro.shuffle.relayplanner import required_relay_fleet
from repro.shuffle.streaming import StreamConfig
from repro.shuffle.substrates import SUBSTRATES, exchange_terms
from repro.sim import Simulator

#: Where every sweep stages its dataset.
BUCKET = "pipeline"
INPUT_KEY = "input/methylome.bed"


def _fresh_cloud(config: ExperimentConfig, profile=None) -> Cloud:
    """A fresh region on ``profile`` (default the config's own)."""
    return Cloud(
        Simulator(seed=config.seed),
        profile if profile is not None else config.make_profile(),
    )


def _check_strategies(strategies: t.Iterable[str]) -> None:
    """Fail fast (before any region is built) on an unknown substrate."""
    for strategy in strategies:
        if strategy not in SUBSTRATES:
            raise ValueError(
                f"unknown exchange strategy {strategy!r}; expected a "
                f"subset of {EXCHANGE_SUBSTRATES}"
            )


@dataclasses.dataclass(frozen=True)
class SortRun:
    """What one :func:`sort_run` left behind, its substrate released."""

    cloud: Cloud
    executor: FunctionExecutor
    #: The operator that ran; ``operator.report`` is its uniform
    #: :class:`~repro.shuffle.exchange.ExchangeReport`.
    operator: t.Any
    #: The released resource (``None`` on object storage); its counters
    #: outlive termination.
    provisioned: t.Any
    duration_s: float
    #: Metered dollars from before provisioning to after release.
    cost_usd: float
    #: Reservation bytes the substrate still held once the sort had
    #: settled (0 where it tracks none).
    residual_bytes: float
    #: Full sha256 of the sorted runs (:func:`~repro.cas.output_digest`);
    #: the tables print its first 16 characters.
    digest: str

    @property
    def report(self):
        return self.operator.report


def exchange_operator(
    executor: FunctionExecutor,
    config: ExperimentConfig,
    strategy: str,
    cost=None,
    stream: StreamConfig | None = None,
) -> tuple[ShuffleSort, t.Any]:
    """A shuffle operator over one substrate, and the provisioned
    resource under it (``None`` on object storage; the caller releases
    it through the substrate's backend class).

    The substrate's class comes off :data:`~repro.shuffle.substrates.SUBSTRATES`
    by name, provisioned warm at the size ``config`` asks for
    (:meth:`~repro.core.calibration.ExperimentConfig.exchange_resource`), in
    either execution mode (``stream``); ``cost`` defaults to the
    workload's cost model.  :func:`sort_run` is this plus the region
    around it and the single sort on it; the S16 dedup bench takes the
    operator alone to sort twice on one region.
    """
    _check_strategies([strategy])
    backend_class = SUBSTRATES[strategy]
    provisioned = backend_class.provision(
        executor.cloud, config.logical_bytes, *config.exchange_resource(strategy)
    )
    cost = cost if cost is not None else config.workload.shuffle_cost_model()
    backend = backend_class.make_backend(provisioned, cost, stream)
    return ShuffleSort(executor, bed_record_codec(), backend=backend), provisioned


def sort_run(
    config: ExperimentConfig,
    strategy: str | t.Callable,
    workers: int,
    *,
    stream: StreamConfig | None = None,
    cost=None,
    profile=None,
    before: t.Callable[[Cloud], t.Any] | None = None,
    **executor_kwargs,
) -> SortRun:
    """Sort ``config``'s dataset once, on a fresh region, over one substrate.

    The one way a sweep runs a sort: a fresh region (on ``profile``,
    default the config's own) with the dataset staged and a function
    executor on it (``executor_kwargs``: retries, speculation); the
    :func:`exchange_operator` of the named substrate (``cost``,
    ``stream``); the sort driven to completion at ``workers``; the
    substrate released; and what the run left behind.
    ``before(cloud)`` runs inside the driver process ahead of the sort
    (fault injection, a mid-run profile shift).  An operator that is
    not in ``SUBSTRATES`` (the online selector) is passed as a factory
    ``strategy(executor, cost)`` in place of the name, and provisions
    for itself.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cloud = _fresh_cloud(config, profile)
    stage_input(cloud, config, BUCKET, INPUT_KEY)
    executor = FunctionExecutor(
        cloud,
        runtime_memory_mb=config.function_memory_mb,
        bucket=BUCKET,
        **executor_kwargs,
    )
    marker = cloud.meter.snapshot()
    cost = cost if cost is not None else config.workload.shuffle_cost_model()
    provisioned = None
    if callable(strategy):
        operator = strategy(executor, cost)
    else:
        operator, provisioned = exchange_operator(
            executor, config, strategy, cost, stream
        )

    def driver():
        if before is not None:
            before(cloud)
        return (yield operator.sort(BUCKET, INPUT_KEY, workers=workers))

    result = cloud.sim.run_process(driver())
    residual = 0.0
    if hasattr(provisioned, "residual_reservation_bytes"):  # the relays
        residual = provisioned.residual_reservation_bytes()
        provisioned.check_memory_accounting()
    if provisioned is not None:
        SUBSTRATES[strategy].release(provisioned)
    return SortRun(
        cloud=cloud,
        executor=executor,
        operator=operator,
        provisioned=provisioned,
        duration_s=result.duration_s,
        cost_usd=cloud.meter.since(marker).total_usd,
        residual_bytes=residual,
        digest=output_digest(cloud, result, full=True),
    )


# ----------------------------------------------------------------------
# S1: shuffle worker-count sweep (the "appropriate number of functions")
# ----------------------------------------------------------------------
def sweep_workers(
    config: ExperimentConfig | None = None,
    worker_counts: t.Sequence[int] = (2, 4, 8, 16, 32, 64),
) -> list[dict]:
    """Simulated sort latency vs worker count, with the planner's curve."""
    config = config if config is not None else ExperimentConfig()
    plan = plan_shuffle(
        config.logical_bytes,
        config.make_profile(),
        config.workload.shuffle_cost_model(),
        candidates=list(worker_counts),
    )
    rows = []
    for workers in worker_counts:
        run = sort_run(config, "objectstore", workers)
        rows.append(
            {
                "workers": workers,
                "sort_latency_s": run.duration_s,
                "planner_predicted_s": plan.point(workers).total_s,
                "planner_optimum": plan.workers,
            }
        )
    return rows


# ----------------------------------------------------------------------
# S2: data-size scaling
# ----------------------------------------------------------------------
def sweep_size(
    config: ExperimentConfig | None = None,
    sizes_gb: t.Sequence[float] = (0.5, 1.0, 2.0, 3.5, 7.0),
) -> list[dict]:
    """End-to-end latency of both configurations vs input size."""
    base = config if config is not None else ExperimentConfig()
    rows = []
    for size_gb in sizes_gb:
        cfg = dataclasses.replace(base, size_gb=size_gb)
        serverless = run_pipeline(cfg, PURE_SERVERLESS)
        vm = run_pipeline(cfg, VM_SUPPORTED)
        rows.append(
            {
                "size_gb": size_gb,
                "serverless_latency_s": serverless.latency_s,
                "vm_latency_s": vm.latency_s,
                "serverless_cost_usd": serverless.cost_usd,
                "vm_cost_usd": vm.cost_usd,
                "speedup": vm.latency_s / serverless.latency_s,
            }
        )
    return rows


# ----------------------------------------------------------------------
# S3: object-store ops/s sensitivity
# ----------------------------------------------------------------------
def sweep_storage_ops(
    config: ExperimentConfig | None = None,
    ops_rates: t.Sequence[float] = (100, 250, 500, 1000, 3000, 8000),
    workers: int = 32,
) -> list[dict]:
    """Sort latency vs the store's request-rate ceiling.

    Runs the *naive* all-to-all layout (no write-combining: W²
    PUTs + W² GETs), which is the configuration the paper's warning
    about "a few thousand operations/s" applies to.  With Primula's
    write-combining the same shuffle is nearly insensitive to the
    ceiling — that contrast is experiment S7 (:func:`sweep_io_ablation`).
    """
    base = config if config is not None else ExperimentConfig()
    rows = []
    for ops in ops_rates:
        profile = base.make_profile()
        profile.objectstore.ops_per_second = float(ops)
        profile.objectstore.ops_burst = float(ops)
        cost = base.workload.shuffle_cost_model()
        cost.write_combining = False
        run = sort_run(base, "objectstore", workers, cost=cost, profile=profile)
        rows.append(
            {
                "ops_per_second": ops,
                "workers": workers,
                "write_combining": cost.write_combining,
                "sort_latency_s": run.duration_s,
                "slowdowns": run.cloud.store.stats.slowdowns,
                "requests": run.cloud.store.stats.total_requests,
            }
        )
    return rows


# ----------------------------------------------------------------------
# S7: write-combining I/O ablation (Primula's optimization)
# ----------------------------------------------------------------------
def sweep_io_ablation(
    config: ExperimentConfig | None = None,
    worker_counts: t.Sequence[int] = (8, 16, 32, 64),
) -> list[dict]:
    """Shuffle latency and request counts with and without write-combining."""
    base = config if config is not None else ExperimentConfig()
    rows = []
    for workers in worker_counts:
        for write_combining in (True, False):
            cost = base.workload.shuffle_cost_model()
            cost.write_combining = write_combining
            run = sort_run(base, "objectstore", workers, cost=cost)
            rows.append(
                {
                    "workers": workers,
                    "write_combining": write_combining,
                    "sort_latency_s": run.duration_s,
                    "storage_puts": run.cloud.store.stats.puts,
                    "storage_gets": run.cloud.store.stats.gets,
                }
            )
    return rows


# ----------------------------------------------------------------------
# S8: data-exchange strategy comparison (COS vs cache vs relay vs fleet)
# ----------------------------------------------------------------------
def sweep_exchange(
    config: ExperimentConfig | None = None,
    worker_counts: t.Sequence[int] = (4, 8, 16, 32, 64),
    strategies: t.Sequence[str] = EXCHANGE_SUBSTRATES,
) -> list[dict]:
    """Sort latency/cost of the four exchange substrates vs worker count.

    The contrast the models predict: the object-storage shuffle
    deteriorates at high worker counts (its W² range-GETs hit per-request
    latency and the account ops/s ceiling) while the cache's and the VM
    relays' batched sub-millisecond requests keep them nearly flat — at
    the price of provisioned node/instance-hours the COS rows never pay;
    past the worker count that saturates one instance NIC, the sharded
    fleet pulls away from the single relay.  Every row also carries a
    digest of the concatenated sorted runs so callers can assert the
    substrates produced identical artifacts, plus the substrate's
    uniform report fields (provisioned infrastructure dollars) and the
    rendered :meth:`~repro.shuffle.exchange.ExchangeReport.describe`
    table (``_report`` — private: ``format_table`` drops ``_`` keys).

    The sweep gates itself before returning
    (:class:`~repro.obs.slo.SloGate`): per worker count, every
    substrate's output digest must match (byte parity).
    """
    base = config if config is not None else ExperimentConfig()
    _check_strategies(strategies)
    gate = SloGate("s8-exchange")
    rows = []
    for workers in worker_counts:
        group = []
        for strategy in strategies:
            run = sort_run(base, strategy, workers)
            group.append(
                {
                    "workers": workers,
                    "strategy": strategy,
                    "sort_latency_s": run.duration_s,
                    "sort_cost_usd": run.cost_usd,
                    "provisioned_usd": run.report.provisioned_usd,
                    "storage_requests": run.cloud.store.stats.total_requests,
                    "output_digest": run.digest[:16],
                    "_report": run.report.describe(),
                }
            )
        gate.equal(
            f"byte-parity@{workers}w",
            *[row["output_digest"] for row in group],
        )
        rows += group
    gate.assert_ok()
    return rows


def sweep_relay_shards(
    config: ExperimentConfig | None = None,
    shard_counts: t.Sequence[int] = (1, 2, 4),
    workers: int = 64,
) -> list[dict]:
    """S8b: shard-count sweep at one (NIC-saturating) worker count.

    At high W the aggregate demand of the workers' NICs exceeds one
    relay instance's line rate; every added shard contributes another
    instance NIC (and another billing clock).  The first row is an
    object-storage baseline at the same worker count so callers can
    assert byte parity across every fleet size.
    """
    base = config if config is not None else ExperimentConfig()
    for shards in shard_counts:
        if shards < 1:
            raise ValueError(f"shard counts must be >= 1, got {shards}")
    rows = []
    for strategy, shards in [("objectstore", 0)] + [
        ("sharded-relay", shards) for shards in shard_counts
    ]:
        run = sort_run(
            dataclasses.replace(base, relay_shards=max(1, shards)), strategy, workers
        )
        rows.append(
            {
                "strategy": strategy,
                "shards": shards,
                "workers": workers,
                "sort_latency_s": run.duration_s,
                "sort_cost_usd": run.cost_usd,
                "provisioned_usd": run.report.provisioned_usd,
                "backpressure_waits": (
                    run.report.backpressure_waits if strategy == "sharded-relay" else 0
                ),
                "residual_bytes": run.residual_bytes,
                "output_digest": run.digest[:16],
            }
        )
    return rows


def sweep_streaming(
    config: ExperimentConfig | None = None,
    strategies: t.Sequence[str] = ("objectstore", "cache", "relay"),
    workers: int = 16,
    chunk_mb: float = 32.0,
    buffer_mb: float = 256.0,
    bounded_buffer_mb: float = 4.0,
) -> list[dict]:
    """S10: staged vs streaming execution per exchange substrate.

    For each substrate the sweep runs the same seeded sort three ways —
    staged (the wave barrier), streaming with an ample reducer buffer,
    and streaming with the buffer bounded *below* what the map wave can
    deliver (``bounded_buffer_mb``), which forces the reducers to exert
    backpressure.  Every row carries the output digest (byte parity
    across all nine runs is the point: only *when* bytes move changes,
    never the bytes), the measured map/reduce wall-clock overlap, the
    reducer-buffer high watermark and the summed backpressure waits.
    """
    base = config if config is not None else ExperimentConfig()
    _check_strategies(strategies)
    rows = []

    def run_one(strategy: str, mode: str, buffer_cap_mb: float) -> dict:
        stream = None
        if mode != "staged":
            stream = StreamConfig(
                chunk_bytes=chunk_mb * (1 << 20),
                buffer_bytes=buffer_cap_mb * (1 << 20)
                if buffer_cap_mb > 0 else None,
            )
        run = sort_run(base, strategy, workers, stream=stream)
        report = run.report
        return {
            "strategy": strategy,
            "mode": mode,
            "buffer_mb": buffer_cap_mb if mode != "staged" else 0.0,
            "workers": workers,
            "sort_latency_s": run.duration_s,
            "overlap_s": report.overlap_s,
            "backpressure_waits": report.extra.get(
                "buffer_backpressure_waits", 0
            ),
            "buffer_hwm_mb": report.buffer_high_watermark_bytes / (1 << 20),
            "sort_cost_usd": run.cost_usd,
            "provisioned_usd": report.provisioned_usd,
            "residual_bytes": run.residual_bytes,
            "output_digest": run.digest[:16],
        }

    for strategy in strategies:
        rows.append(run_one(strategy, "staged", 0.0))
        rows.append(run_one(strategy, "streaming", buffer_mb))
        rows.append(run_one(strategy, "streaming-bounded", bounded_buffer_mb))
    return rows


#: S11's regime — the *fleet side* is the exchange bottleneck — takes
#: small-NIC shards under workers whose NICs are raised to this.
SKEW_RELAY_INSTANCE_TYPE = "bx2-2x8"
SKEW_WORKER_NIC_BPS = 150e6


def sweep_skew(
    config: ExperimentConfig | None = None,
    distributions: t.Sequence[str] = ("uniform", "zipf"),
    workers: int = 12,
    shards: int = 2,
    zipf_s: float = 2.0,
    distinct_keys: int = 4,
) -> list[dict]:
    """S11: skew-aware shuffle — CRC vs load-aware fleet routing.

    For each key distribution the sweep sorts the *same* seeded dataset
    three ways: an object-storage baseline, the sharded relay fleet
    with naive CRC-32 key routing (``rebalance=False``), and the fleet
    with load-aware routing (the default — planned partition bytes
    spread over the shards with a deterministic LPT assignment).  The
    fleet uses small-NIC shards and the workers' NICs are raised via a
    profile mutator so the *fleet side* is the exchange bottleneck —
    the regime where routing imbalance costs wall clock.

    Every row carries the output digest (routing moves bytes between
    shards, never changes the artifact), the measured
    ``partition_skew`` (max/mean reducer bytes — identical across rows
    of one distribution), the post-map ``hot_shard_share`` (the
    fraction of exchange bytes the hottest shard absorbed: ~1/shards
    when balanced, well above it when CRC routing piles a Zipf
    workload onto one shard), residual reservations (asserted zero by
    the bench) and the skew-aware planner's prediction at the measured
    skew, so the bench can check predicted-vs-actual tracking.
    """
    from repro.shuffle.skew import KEY_DISTRIBUTIONS

    base = config if config is not None else ExperimentConfig()
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    for distribution in distributions:
        if distribution not in KEY_DISTRIBUTIONS:
            raise ValueError(
                f"unknown key distribution {distribution!r}; expected a "
                f"subset of {KEY_DISTRIBUTIONS}"
            )

    def fat_workers(profile) -> None:
        profile.faas.instance_bandwidth = SKEW_WORKER_NIC_BPS

    rows = []
    for distribution in distributions:
        cfg = dataclasses.replace(
            base,
            key_distribution=distribution,
            zipf_s=zipf_s,
            skew_distinct_keys=distinct_keys,
            profile_mutator=fat_workers,
            relay_instance_type=SKEW_RELAY_INSTANCE_TYPE,
            relay_shards=shards,
        )

        def run_one(strategy: str, routing: str) -> dict:
            cost = cfg.workload.shuffle_cost_model()
            cost.rebalance = routing != "crc"
            run = sort_run(cfg, strategy, workers, cost=cost)
            report = run.report
            on_fleet = strategy == "sharded-relay"
            predicted_s = float("nan")
            if on_fleet:
                # The skew-aware model, evaluated at the *measured*
                # partition skew — what a planner that trusts its
                # sampling pass would have predicted for this run.
                predicted_s = predict_shuffle_time(
                    cfg.logical_bytes,
                    workers,
                    run.cloud.profile,
                    cost,
                    skew=report.partition_skew,
                    terms=exchange_terms(
                        "sharded-relay", run.cloud.profile, cost,
                        SKEW_RELAY_INSTANCE_TYPE, shards,
                    ),
                ).total_s
            return {
                "distribution": distribution,
                "strategy": strategy,
                "routing": routing,
                "workers": workers,
                "shards": shards if on_fleet else 0,
                "sort_latency_s": run.duration_s,
                "predicted_s": predicted_s,
                "partition_skew": report.partition_skew,
                "predicted_skew": report.predicted_partition_skew,
                "hot_shard_share": report.hot_shard_share if on_fleet else 0.0,
                "sort_cost_usd": run.cost_usd,
                "residual_bytes": run.residual_bytes,
                "output_digest": run.digest[:16],
            }

        rows.append(run_one("objectstore", "-"))
        rows.append(run_one("sharded-relay", "crc"))
        rows.append(run_one("sharded-relay", "rebalanced"))
    return rows


# ----------------------------------------------------------------------
# S9: fault injection and straggler mitigation
# ----------------------------------------------------------------------
#: S9c/S9d sort on every substrate at this worker count.
FAULT_WORKERS = 16
FAULT_CRASH_RATES = (0.0, 0.1, 0.25)
FAULT_RETRIES = 6
#: S9b/S9d: the backup policy, and the heavy-tailed cold starts
#: (lognormal) that give it stragglers to chase.
SPECULATION = SpeculationPolicy(quantile=0.7, latency_multiplier=1.3)
HEAVY_TAIL_COLD_START_MEAN_S = 1.5
HEAVY_TAIL_COLD_START_SIGMA = 1.4


def _heavy_tailed_profile(config: ExperimentConfig):
    profile = config.make_profile()
    profile.faas.cold_start.mean = HEAVY_TAIL_COLD_START_MEAN_S
    profile.faas.cold_start.sigma = HEAVY_TAIL_COLD_START_SIGMA
    return profile


def sweep_exchange_faults(config: ExperimentConfig | None = None) -> list[dict]:
    """S9c: crash-injected shuffle on every exchange substrate.

    Attempt-scoped cancellation makes crash-retry safe on the stateful
    substrates too: a killed mapper's in-flight transfers are aborted
    and its reservations reclaimed, so the retried attempt never races
    an orphaned predecessor.  Every row carries the artifact digest —
    the sweep itself gates byte parity with the crash-free run — and
    the relay rows additionally report residual reservations, gated
    zero.
    """
    base = config if config is not None else ExperimentConfig()
    gate = SloGate("s9c-exchange-faults")
    rows = []
    for rate in FAULT_CRASH_RATES:

        def inject(cloud: Cloud, rate=rate) -> None:
            cloud.faas.crash_probability = rate

        for strategy in EXCHANGE_SUBSTRATES:
            run = sort_run(
                base, strategy, FAULT_WORKERS, before=inject, retries=FAULT_RETRIES
            )
            reclaimed = 0.0
            if strategy in ("relay", "sharded-relay"):
                gate.zero(f"residual:{strategy}@{rate}", run.residual_bytes)
                reclaimed = run.provisioned.stats.reclaimed_bytes
            rows.append(
                {
                    "strategy": strategy,
                    "crash_probability": rate,
                    "sort_latency_s": run.duration_s,
                    "crashes": run.cloud.faas.stats.crashes,
                    "invocations": run.cloud.faas.stats.invocations,
                    "reclaimed_bytes": reclaimed,
                    "residual_bytes": run.residual_bytes,
                    "output_digest": run.digest[:16],
                }
            )
    # Self-healing must be lossless on every substrate.
    gate.equal("byte-parity", *[row["output_digest"] for row in rows])
    gate.assert_ok()
    return rows


def sweep_exchange_speculation(config: ExperimentConfig | None = None) -> list[dict]:
    """S9d: straggler mitigation per exchange substrate.

    The speculator cancels losing attempts through the platform, so
    backup tasks are safe on the provisioned substrates too: identical
    digests with speculation on, cancelled losers billed only up to the
    kill (``cancelled_gb_s`` is the leftover cost of losing attempts).
    """
    base = config if config is not None else ExperimentConfig()
    rows = []
    digests = []
    for strategy in EXCHANGE_SUBSTRATES:
        for label, speculation in (("off", None), ("on", SPECULATION)):
            run = sort_run(
                base,
                strategy,
                FAULT_WORKERS,
                profile=_heavy_tailed_profile(base),
                speculation=speculation,
            )
            digests.append(run.digest)
            rows.append(
                {
                    "strategy": strategy,
                    "speculation": label,
                    "sort_latency_s": run.duration_s,
                    "backup_tasks": run.executor.speculative_launches,
                    "cancelled_attempts": run.cloud.faas.stats.cancellations,
                    "cancelled_gb_s": sum(
                        line.gb_seconds
                        for line in run.cloud.faas.billing_log
                        if line.outcome == "cancelled"
                    ),
                    "invocations": run.cloud.faas.stats.invocations,
                }
            )
    # Speculation must never change the artifact, on any substrate.
    gate = SloGate("s9d-exchange-speculation")
    gate.equal("byte-parity", *digests)
    gate.assert_ok()
    return rows


def sweep_fault_rate(
    config: ExperimentConfig | None = None,
    crash_rates: t.Sequence[float] = (0.0, 0.05, 0.15, 0.3),
    calls: int = 32,
    call_cpu_s: float = 10.0,
) -> list[dict]:
    """Map-job latency/cost overhead as invocation crashes are injected.

    The executor re-invokes crashed calls (Lithops-style); the rows show
    what that self-healing costs in wall clock and dollars.
    """
    base = config if config is not None else ExperimentConfig()
    gate = SloGate("s9a-fault-rate")
    rows = []
    for rate in crash_rates:
        cloud = _fresh_cloud(base)
        cloud.faas.crash_probability = rate
        cloud.faas.crash_latest_s = call_cpu_s
        executor = FunctionExecutor(
            cloud, runtime_memory_mb=base.function_memory_mb
        )

        # The executor pickles ``cpu_model`` and the store charges the
        # bytes.  cloudpickle ships a lambda by value, its absolute
        # ``co_filename`` included, so a lambda here made simulated time
        # depend on where the repository is checked out; a partial of a
        # module-level function pickles by reference (as in
        # sweep_speculation).
        def driver():
            futures = yield executor.map(
                _identity, list(range(calls)),
                cpu_model=functools.partial(_fixed_cpu_s, call_cpu_s),
            )
            return (yield executor.get_result(futures))

        results = cloud.sim.run_process(driver())
        # Self-healing must be lossless.
        gate.equal(f"lossless@{rate}", results, list(range(calls)))
        rows.append(
            {
                "crash_probability": rate,
                "latency_s": cloud.sim.now,
                "cost_usd": cloud.meter.total_usd,
                "crashes": cloud.faas.stats.crashes,
                "invocations": cloud.faas.stats.invocations,
            }
        )
    gate.assert_ok()
    return rows


def sweep_speculation(
    config: ExperimentConfig | None = None,
    calls: int = 48,
    call_cpu_s: float = 5.0,
) -> list[dict]:
    """Straggler-mitigation ablation under heavy-tailed cold starts."""
    base = config if config is not None else ExperimentConfig()
    rows = []
    for label, policy in (("off", None), ("on", SPECULATION)):
        cloud = _fresh_cloud(base, _heavy_tailed_profile(base))
        executor = FunctionExecutor(
            cloud, runtime_memory_mb=base.function_memory_mb, speculation=policy
        )

        def driver():
            futures = yield executor.map(
                _identity, list(range(calls)),
                cpu_model=functools.partial(_fixed_cpu_s, call_cpu_s),
            )
            return (yield executor.get_result(futures))

        cloud.sim.run_process(driver())
        rows.append(
            {
                "speculation": label,
                "latency_s": cloud.sim.now,
                "cost_usd": cloud.meter.total_usd,
                "backup_tasks": executor.speculative_launches,
                "invocations": cloud.faas.stats.invocations,
            }
        )
    return rows


def _identity(x):
    """Module-level map payload (needs to be picklable by name)."""
    return x


def _fixed_cpu_s(cpu_s: float, _data) -> float:
    """``cpu_model`` billing every call ``cpu_s``; bound with
    ``functools.partial`` so it, too, pickles by name."""
    return cpu_s


# ----------------------------------------------------------------------
# S10: online tuner vs static calibration vs oracle
# ----------------------------------------------------------------------
def _tuner_scenarios() -> dict[str, t.Callable | None]:
    def slow_nic(profile):
        profile.faas.instance_bandwidth = 8e6

    def high_latency(profile):
        profile.objectstore.read_latency.mean = 0.15
        profile.objectstore.write_latency.mean = 0.25

    return {"calibrated": None, "slow-nic": slow_nic, "high-latency": high_latency}


def sweep_tuner(
    config: ExperimentConfig | None = None,
    worker_candidates: t.Sequence[int] = (4, 8, 16, 32, 64, 128),
    scenarios: dict[str, t.Callable | None] | None = None,
) -> list[dict]:
    """Primula's on-the-fly tuning vs a stale static calibration.

    For each region scenario the sweep measures the real sort latency at
    every candidate worker count (the *oracle* curve), then compares the
    picks of (a) the static planner running on the *unperturbed*
    calibration — what a planner calibrated last month would do — and
    (b) the online tuner that probes the live region first.  Regret is
    the measured latency of a pick over the oracle's best; the tuner's
    regret additionally pays its probe time.
    """
    from repro.shuffle.adaptive import OnlineTuner

    base = config if config is not None else ExperimentConfig()
    scenarios = scenarios if scenarios is not None else _tuner_scenarios()
    cost = base.workload.shuffle_cost_model()
    rows = []
    for name, mutate in scenarios.items():
        cfg = dataclasses.replace(base, profile_mutator=mutate)

        measured = {
            workers: sort_run(cfg, "objectstore", workers, cost=cost).duration_s
            for workers in worker_candidates
        }
        oracle_pick = min(measured, key=measured.get)

        static_pick = plan_shuffle(
            base.logical_bytes,
            base.make_profile(),  # stale calibration: no perturbation
            cost,
            candidates=worker_candidates,
        ).workers

        probe_cloud = _fresh_cloud(cfg)
        stage_input(probe_cloud, cfg, BUCKET, INPUT_KEY)
        tuner = OnlineTuner(
            FunctionExecutor(
                probe_cloud, runtime_memory_mb=cfg.function_memory_mb,
                bucket=BUCKET,
            )
        )

        def tune_driver():
            return (
                yield tuner.tune(
                    BUCKET, base.logical_bytes, cost,
                    candidates=worker_candidates,
                )
            )

        report, tuned_plan = probe_cloud.sim.run_process(tune_driver())
        tuned_pick = tuned_plan.workers

        best = measured[oracle_pick]
        rows.append(
            {
                "scenario": name,
                "oracle_pick": oracle_pick,
                "static_pick": static_pick,
                "tuned_pick": tuned_pick,
                "oracle_latency_s": best,
                "static_latency_s": measured[static_pick],
                "tuned_latency_s": measured[tuned_pick] + report.duration_s,
                "static_regret": measured[static_pick] / best,
                "tuned_regret": (measured[tuned_pick] + report.duration_s) / best,
                "probe_s": report.duration_s,
            }
        )
    return rows


# ----------------------------------------------------------------------
# S12: online mid-stream re-selection vs every static decision
# ----------------------------------------------------------------------
#: S12: every run pinned at this worker count, streaming in chunks of
#: this many logical MB, scored at this many dollars per latency-hour.
ONLINE_WORKERS = 8
ONLINE_CHUNK_MB = 32.0
ONLINE_TIME_VALUE_USD_PER_HOUR = 1.0
#: The launch-time COS brownout (request latencies, per-connection
#: bandwidth) and the simulated second it clears at.
BROWNOUT_LATENCY_S = 0.45
BROWNOUT_CONNECTION_BPS = 2e6
BROWNOUT_CLEARS_AT_S = 60.0
#: Score improvement the online operator asks for before it switches.
ONLINE_SWITCH_MARGIN = 0.05


def sweep_online(config: ExperimentConfig | None = None) -> list[dict]:
    """S12: mid-stream re-selection against the static decision grid.

    The adversarial scenario no pre-flight decision can win: a
    ``late-hot`` dataset (uniform head, hot key only in the stream's
    tail — invisible to sampling) *plus* an object-storage **brownout**
    (connection throttling + latency inflation) in effect at launch
    that clears mid-run, after every static operator has already
    committed its whole-split input reads at brownout bandwidth.  The
    online operator's chunked map-side reads ride the brownout out one
    chunk at a time, its initial decision avoids routing the exchange
    through the throttled store, and the first post-recovery refit
    switches it onto the store once that is the cheapest substrate
    again.  The sweep sorts the same seeded dataset nine ways — the
    online operator (free to re-decide between waves) and all eight
    static (substrate × mode) decisions pinned at the same worker count
    on identical clouds with the identical brownout + recovery — and
    scores each run the way the planner does: ``latency × time-value +
    provisioned infrastructure dollars``.

    Every row carries the output digest (re-selection moves bytes,
    never changes them: byte parity across all nine runs), the score,
    and for the online row the decision-timeline summary
    (``_timeline`` — a list of lines, popped by table formatters), the
    switch count and the chunk-reroute count.  A final ``reroute`` row
    restricts the online operator to the sharded fleet so the late hot
    key must be absorbed by chunk-grain rerouting; its
    ``peak_fill`` column (hottest shard's peak fill fraction of
    ``relay_usable_bytes``) is asserted ``<= 1`` by the bench.
    """
    from repro.shuffle.online import OnlineShuffleSort

    base = config if config is not None else ExperimentConfig()
    workers = ONLINE_WORKERS
    healthy = base.make_profile().objectstore

    def brownout(profile) -> None:
        """Launch-time COS brownout: throttled connections, fat latency."""
        if base.profile_mutator is not None:
            base.profile_mutator(profile)
        profile.objectstore.read_latency.mean = BROWNOUT_LATENCY_S
        profile.objectstore.write_latency.mean = BROWNOUT_LATENCY_S
        profile.objectstore.per_connection_bandwidth = BROWNOUT_CONNECTION_BPS

    def small_relays(profile) -> None:
        """Brownout plus relay VMs shrunk so the fleet must shard.

        At this sweep's dataset size one stock relay VM swallows the
        whole exchange, leaving nothing for chunk-grain rerouting to
        balance; 1 GB instances force a multi-shard fleet.
        """
        brownout(profile)
        profile.vm.catalog = {
            name: dataclasses.replace(
                spec, memory_gb=min(spec.memory_gb, 1.0)
            )
            for name, spec in profile.vm.catalog.items()
        }

    cfg = dataclasses.replace(
        base, key_distribution="late-hot", profile_mutator=brownout
    )
    time_value = ONLINE_TIME_VALUE_USD_PER_HOUR
    reroute_cfg = dataclasses.replace(cfg, profile_mutator=small_relays)

    def shift(cloud: Cloud) -> None:
        """Mid-run recovery: the COS brownout clears at ``BROWNOUT_CLEARS_AT_S``."""

        def proc():
            yield cloud.sim.timeout(BROWNOUT_CLEARS_AT_S)
            store = cloud.profile.objectstore
            store.read_latency.mean = healthy.read_latency.mean
            store.write_latency.mean = healthy.write_latency.mean
            store.per_connection_bandwidth = healthy.per_connection_bandwidth

        cloud.sim.process(proc(), name="s12.shift")

    stream = StreamConfig(chunk_bytes=ONLINE_CHUNK_MB * (1 << 20))

    def run_row(scenario: str, strategy: str, mode: str) -> dict:
        row_cfg = reroute_cfg if scenario == "reroute" else cfg

        def online_operator(executor, cost):
            return OnlineShuffleSort(
                executor,
                bed_record_codec(),
                stream=stream,
                cost=cost,
                time_value_usd_per_hour=time_value,
                substrates=(
                    ("sharded-relay",) if scenario == "reroute" else None
                ),
                modes=(
                    ("streaming",) if scenario == "reroute"
                    else ("staged", "streaming")
                ),
                switch_margin=ONLINE_SWITCH_MARGIN,
            )

        run = sort_run(
            row_cfg,
            online_operator if strategy == "online" else strategy,
            workers,
            stream=stream if mode == "streaming" else None,
            before=shift,
        )
        report = run.report
        score = (
            run.duration_s * time_value / 3600.0 + report.provisioned_usd
        )
        row = {
            "scenario": scenario,
            "strategy": strategy,
            "mode": mode,
            "workers": workers,
            "sort_latency_s": run.duration_s,
            "provisioned_usd": report.provisioned_usd,
            "score_usd": score,
            "switches": 0,
            "reroutes": 0,
            "peak_fill": 0.0,
            "output_digest": run.digest[:16],
        }
        if strategy == "online":
            row["switches"] = run.operator.timeline.switches
            row["reroutes"] = run.operator.chunk_reroutes
            row["peak_fill"] = report.extra.get("relay_peak_fill", 0.0)
            row["_timeline"] = [
                point.describe() for point in run.operator.timeline
            ]
        return row

    rows = [run_row("shift", "online", "online")]
    for strategy in EXCHANGE_SUBSTRATES:
        for mode in ("staged", "streaming"):
            rows.append(run_row("shift", strategy, mode))
    rows.append(run_row("reroute", "online", "online"))
    return rows


# ----------------------------------------------------------------------
# S4: startup-time sensitivity
# ----------------------------------------------------------------------
def sweep_startup(
    config: ExperimentConfig | None = None,
    cold_multipliers: t.Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    boot_times: t.Sequence[float] = (30.0, 60.0, 99.0, 180.0),
) -> list[dict]:
    """Latency sensitivity to function cold starts and VM boot time."""
    base = config if config is not None else ExperimentConfig()

    def scale_cold(multiplier: float):
        def mutate(profile) -> None:
            profile.faas.cold_start.mean *= multiplier

        return mutate

    def set_boot(boot: float):
        def mutate(profile) -> None:
            profile.vm.boot.mean = boot

        return mutate

    knobs = [
        ("cold_start_x", value, scale_cold(value), PURE_SERVERLESS)
        for value in cold_multipliers
    ] + [("vm_boot_s", value, set_boot(value), VM_SUPPORTED) for value in boot_times]
    rows = []
    for knob, value, mutate, variant in knobs:
        run = run_pipeline(dataclasses.replace(base, profile_mutator=mutate), variant)
        rows.append(
            {
                "knob": knob,
                "value": value,
                "latency_s": run.latency_s,
                "variant": variant,
            }
        )
    return rows


# ----------------------------------------------------------------------
# S5: codec ratio vs gzip
# ----------------------------------------------------------------------
def sweep_codec(
    config: ExperimentConfig | None = None,
    record_counts: t.Sequence[int] = (10_000, 50_000, 150_000),
) -> list[dict]:
    """METHCOMP-vs-gzip compression ratios on synthetic methylomes
    (of ``config`` only the seed matters: nothing is simulated)."""
    from repro.methcomp.bed import serialize_records

    seed = (config if config is not None else ExperimentConfig()).seed
    rows = []
    for count in record_counts:
        corpus = serialize_records(MethylomeGenerator(seed=seed).records(count))
        ours = compression_ratio(corpus)
        gz = gzip_ratio(corpus)
        rows.append(
            {
                "records": count,
                "raw_mb": len(corpus) / (1 << 20),
                "methcomp_ratio": ours,
                "gzip_ratio": gz,
                "methcomp_vs_gzip": ours / gz,
            }
        )
    return rows


# ----------------------------------------------------------------------
# S6: function-memory sweep
# ----------------------------------------------------------------------
def sweep_memory(
    config: ExperimentConfig | None = None,
    memory_sizes: t.Sequence[int] = (512, 1024, 2048, 4096),
) -> list[dict]:
    """Serverless pipeline latency/cost vs function memory size.

    Memory buys CPU share (below the full-share point) but costs
    linearly in GB-seconds — the classic serverless sizing trade-off.
    """
    base = config if config is not None else ExperimentConfig()
    rows = []
    for memory_mb in memory_sizes:
        cfg = dataclasses.replace(base, function_memory_mb=memory_mb)
        run = run_pipeline(cfg, PURE_SERVERLESS)
        rows.append(
            {
                "memory_mb": memory_mb,
                "latency_s": run.latency_s,
                "cost_usd": run.cost_usd,
            }
        )
    return rows

# ----------------------------------------------------------------------
# S13: multi-tenant exchange service vs provision-per-job
# ----------------------------------------------------------------------
#: Open-loop arrival schedule: (arrival_s, tenant, size fraction of the
#: config dataset).  Three full-size jobs burst in the first seconds
#: (demand the autoscaler must grow for), then two small tail jobs keep
#: the service busy after the burst drains (demand it must shrink for).
SERVICE_ARRIVALS: tuple[tuple[float, str, float], ...] = (
    (0.0, "alice", 1.0),
    (2.0, "bob", 1.0),
    (4.0, "carol", 1.0),
    (150.0, "bob", 0.4),
    (180.0, "carol", 0.4),
)


def _p95(values: t.Sequence[float]) -> float:
    return nearest_rank(values, 0.95) if values else 0.0


#: Every S13 job sorts at this worker count; the service may grow its
#: fleet to this many shards, and so may a per-job fleet.
SERVICE_WORKERS = 8
SERVICE_MAX_SHARDS = 4


def sweep_service(config: ExperimentConfig | None = None) -> list[dict]:
    """S13: one shared autoscaled exchange service vs a fleet per job.

    The same open-loop arrival schedule — several tenants submitting
    sort jobs at fixed times — is served two ways on identical clouds:

    * ``service`` — one :class:`~repro.service.ExchangeService`: shared
      admission queue with per-tenant token buckets, tenant-scoped
      fencing, and a relay fleet resized from observed demand (a new
      warm generation per resize, the old one draining its jobs);
    * ``per-job`` — the deployment shape every earlier experiment used:
      each arrival cold-provisions its own right-sized fleet, sorts,
      and terminates it, paying a full VM boot and a private fleet's
      instance-seconds per job.

    Per-job rows (``kind="job"``) carry queue/boot wait, submit-to-done
    latency and the output digest; ``kind="total"`` rows carry the
    strategy's p95 latency, its dollar totals and the service's scale
    event counts; ``kind="tenant"`` rows expose the service's
    per-tenant attribution (functions exactly, fleet by byte-seconds)
    whose sum a claim of the row holds to the fleet total.
    """
    from repro.service import ExchangeService

    base = config if config is not None else ExperimentConfig()
    profile = base.make_profile()
    # The flavour that holds one full-size job in a single shard; the
    # service scales shard count, the baseline right-sizes per job.
    instance_type, _ = required_relay_fleet(
        base.logical_bytes, profile, max_shards=1
    )

    jobs = [
        {
            "job": f"j{index + 1}",
            "tenant": tenant,
            "arrival_s": arrival_s,
            "key": f"input/j{index + 1}.bed",
            "config": dataclasses.replace(
                base,
                size_gb=base.size_gb * fraction,
                seed=base.seed + index + 1,
            ),
        }
        for index, (arrival_s, tenant, fraction) in enumerate(SERVICE_ARRIVALS)
    ]

    def stage_all(cloud: Cloud) -> None:
        for job in jobs:
            stage_input(cloud, job["config"], BUCKET, job["key"])

    rows: list[dict] = []

    def blank_row(**overrides) -> dict:
        row = {
            "strategy": "",
            "kind": "job",
            "job": "",
            "tenant": "",
            "arrival_s": 0.0,
            "wait_s": 0.0,
            "latency_s": 0.0,
            "p95_latency_s": 0.0,
            "faas_usd": 0.0,
            "fleet_usd": 0.0,
            "total_usd": 0.0,
            "scale_ups": 0,
            "scale_downs": 0,
            "output_digest": "",
        }
        row.update(overrides)
        return row

    # -- shared service ------------------------------------------------
    cloud = _fresh_cloud(base)
    stage_all(cloud)
    service = ExchangeService(
        cloud,
        bed_record_codec(),
        instance_type=instance_type,
        max_shards=SERVICE_MAX_SHARDS,
        memory_mb=base.function_memory_mb,
        cost=base.workload.shuffle_cost_model(),
    )

    def service_driver():
        service.start()
        handles = []
        now = 0.0
        for job in jobs:
            if job["arrival_s"] > now:
                yield cloud.sim.timeout(job["arrival_s"] - now)
                now = job["arrival_s"]
            handles.append(
                service.submit(
                    job["tenant"],
                    BUCKET,
                    job["key"],
                    job["config"].logical_bytes,
                    workers=SERVICE_WORKERS,
                )
            )
        yield service.drain()
        service.shutdown()
        return handles

    handles = cloud.sim.run_process(service_driver())
    for job, handle in zip(jobs, handles):
        if handle.state != "done":
            raise ShuffleError(
                f"service starved job {handle.job_id} "
                f"({handle.tenant}): state={handle.state!r}"
            )
        rows.append(blank_row(
            strategy="service",
            job=job["job"],
            tenant=job["tenant"],
            arrival_s=job["arrival_s"],
            wait_s=handle.queue_wait_s,
            latency_s=handle.latency_s,
            output_digest=handle.output_digest,
        ))
    costs = service.tenant_costs()
    for tenant in sorted(costs):
        rows.append(blank_row(
            strategy="service", kind="tenant", tenant=tenant, **costs[tenant]
        ))
    fleet_usd = service.fleet_cost_usd()
    faas_usd = sum(entry["faas_usd"] for entry in costs.values())
    rows.append(blank_row(
        strategy="service",
        kind="total",
        p95_latency_s=_p95([handle.latency_s for handle in handles]),
        faas_usd=faas_usd,
        fleet_usd=fleet_usd,
        total_usd=faas_usd + fleet_usd,
        scale_ups=sum(
            1 for event in service.scale_events if event["direction"] == "up"
        ),
        scale_downs=sum(
            1 for event in service.scale_events if event["direction"] == "down"
        ),
    ))

    # -- provision-per-job baseline ------------------------------------
    # Jobs overlap on one region and boot their fleets on the clock, so
    # they take the substrate's class directly, not a sort_run each.
    substrate = SUBSTRATES["sharded-relay"]
    cloud = _fresh_cloud(base)
    stage_all(cloud)
    outcomes: dict[str, dict] = {}

    def one_job(job: dict):
        yield cloud.sim.timeout(job["arrival_s"])
        fleet_type, shards = required_relay_fleet(
            job["config"].logical_bytes,
            cloud.profile,
            instance_type_name=instance_type,
            max_shards=SERVICE_MAX_SHARDS,
        )
        fleet = yield substrate.provision(
            cloud, job["config"].logical_bytes, fleet_type, shards, cold=True
        )
        boot_done = cloud.sim.now
        executor = FunctionExecutor(
            cloud,
            runtime_memory_mb=base.function_memory_mb,
            bucket=BUCKET,
            billing_tags={"tenant": job["tenant"], "job": job["job"]},
        )
        cost = dataclasses.replace(
            base.workload.shuffle_cost_model(), consume=True
        )
        operator = ShuffleSort(
            executor, bed_record_codec(), backend=substrate.make_backend(fleet, cost)
        )
        result = yield operator.sort(
            BUCKET, job["key"], out_prefix=job["job"], workers=SERVICE_WORKERS
        )
        substrate.release(fleet)
        outcomes[job["job"]] = {
            "wait_s": boot_done - job["arrival_s"],
            "latency_s": cloud.sim.now - job["arrival_s"],
            "output_digest": output_digest(cloud, result),
        }

    def perjob_driver():
        procs = [
            cloud.sim.process(one_job(job), name=f"perjob.{job['job']}")
            for job in jobs
        ]
        yield cloud.sim.all_of([proc.completion for proc in procs])

    cloud.sim.run_process(perjob_driver())
    for job in jobs:
        rows.append(blank_row(
            strategy="per-job",
            job=job["job"],
            tenant=job["tenant"],
            arrival_s=job["arrival_s"],
            **outcomes[job["job"]],
        ))
    perjob_faas = sum(
        line.usd for line in cloud.meter.filtered(service="faas")
    )
    # This cloud runs the per-job fleets and nothing else on a VM.
    perjob_fleet = sum(line.usd for line in cloud.meter.filtered(service="vm"))
    rows.append(blank_row(
        strategy="per-job",
        kind="total",
        p95_latency_s=_p95(
            [outcomes[job["job"]]["latency_s"] for job in jobs]
        ),
        faas_usd=perjob_faas,
        fleet_usd=perjob_fleet,
        total_usd=perjob_faas + perjob_fleet,
    ))
    return rows
