"""Online (probe-based) shuffle tuning — Primula's "on the fly" planner.

The analytic planner in :mod:`repro.shuffle.planner` is only as good as
its calibration constants.  Primula's practical contribution is picking
the worker count *at runtime*: before a shuffle, it measures what the
substrate actually delivers and plans on those numbers instead of
yesterday's.

:class:`OnlineTuner` reproduces that loop:

1. **probe** — one ordinary cloud function performs a handful of small
   PUT/GETs (request latency), one large PUT/GET (effective per-
   connection bandwidth, instance NIC included) and reports its own
   startup delay;
2. **fit** — the measurements replace the corresponding constants in a
   copy of the region profile (the ops/s ceiling is not probeable
   without flooding the store, so it stays a prior — as in Primula,
   which reacts to throttling during execution instead);
3. **plan** — the standard analytic planner runs on the fitted profile.

Benchmark S10a measures the payoff: when the region misbehaves (slow
NICs, inflated latency), the statically calibrated planner picks a poor
worker count while the tuner stays near the oracle.

Version 2 extends the tuner from a pre-flight probe into a
**mid-pipeline control loop**: the online sort
(:class:`repro.shuffle.online.OnlineShuffleSort`) feeds *observed*
chunk publish rates back through :func:`fit_stream_profiles` after
every streaming wave and re-runs :func:`choose_exchange_substrate` on
the remaining bytes, producing a :class:`DecisionTimeline` instead of a
single up-front decision.  Benchmark S12 measures that payoff against
every static decision under a mid-run rate shift.

What this module owns is the *decisions* made on top of the one cost
model: the probe and the two profile refits, the substrate selector —
which walks :data:`~repro.shuffle.substrates.SUBSTRATES` and knows no
substrate by name — and the fleet autoscaling policy.  The timing model
and its per-substrate term builders live in :mod:`repro.shuffle.planner`;
capacity sizing in :mod:`repro.shuffle.cacheplanner` and
:mod:`repro.shuffle.relayplanner`; each backend class names its own.
"""

from __future__ import annotations

import copy
import dataclasses
import statistics
import typing as t

from repro.cloud.profiles import CloudProfile, LatencyModel
from repro.errors import ShuffleError
from repro.shuffle.planner import (
    ShuffleCostModel,
    ShufflePlan,
    best_point,
    plan_shuffle,
    streaming_curve,
)
from repro.shuffle.relayplanner import (
    fleet_shards_for,
    relay_usable_bytes,
    resolve_relay_instance,
)
from repro.shuffle.substrates import SUBSTRATES, substrate_class
from repro.sim import SimEvent


@dataclasses.dataclass(frozen=True, slots=True)
class ProbeReport:
    """What one probe invocation measured (virtual seconds / bytes-per-s)."""

    read_latency_s: float
    write_latency_s: float
    connection_bandwidth_bps: float
    startup_s: float
    duration_s: float
    requests: int

    def describe(self) -> str:
        return (
            f"probe: read {self.read_latency_s * 1000:.1f} ms, write "
            f"{self.write_latency_s * 1000:.1f} ms, "
            f"{self.connection_bandwidth_bps / 1e6:.1f} MB/s, startup "
            f"{self.startup_s:.2f} s ({self.requests} requests in "
            f"{self.duration_s:.2f} s)"
        )


def probe_worker(ctx, task: dict) -> t.Generator:
    """Measure the storage substrate from inside a function instance.

    Task fields: ``bucket, prefix, requests, small_bytes, large_bytes``.
    Returns raw samples; the driver aggregates (medians are robust to a
    single slow request, which is the norm, not the exception).
    """
    started_at = ctx.sim.now
    bucket = task["bucket"]
    prefix = task["prefix"]
    requests = task["requests"]
    # Small objects carry logical_size=real so latency probes stay
    # latency-dominated even on scaled-down experiment clouds.
    small = b"\x5a" * task["small_bytes"]
    write_samples = []
    for index in range(requests):
        before = ctx.sim.now
        yield ctx.storage.put(
            bucket, f"{prefix}/lat{index}", small, logical_size=len(small)
        )
        write_samples.append(ctx.sim.now - before)
    read_samples = []
    for index in range(requests):
        before = ctx.sim.now
        yield ctx.storage.get(bucket, f"{prefix}/lat{index}")
        read_samples.append(ctx.sim.now - before)

    large = bytes(task["large_bytes"])
    before = ctx.sim.now
    yield ctx.storage.put(bucket, f"{prefix}/bw", large)
    write_duration = ctx.sim.now - before
    before = ctx.sim.now
    yield ctx.storage.get(bucket, f"{prefix}/bw")
    read_duration = ctx.sim.now - before

    for index in range(requests):
        yield ctx.storage.delete(bucket, f"{prefix}/lat{index}")
    yield ctx.storage.delete(bucket, f"{prefix}/bw")

    return {
        "started_at": started_at,
        "write_samples": write_samples,
        "read_samples": read_samples,
        "large_logical": len(large) * ctx.logical_scale,
        "large_write_s": write_duration,
        "large_read_s": read_duration,
    }


#: Latency samples per direction one probe takes (small PUTs, then GETs).
PROBE_REQUESTS = 6
#: Real bytes of each latency-probe object.
PROBE_SMALL_BYTES = 1024
#: Logical MB of the bandwidth-probe object.
PROBE_LARGE_MB = 16.0


class OnlineTuner:
    """Probe the substrate, fit the profile, plan the shuffle.

    One probe is :data:`PROBE_REQUESTS` small PUT/GET pairs of
    :data:`PROBE_SMALL_BYTES` each and one :data:`PROBE_LARGE_MB` PUT/GET.
    """

    def __init__(self, executor):
        self.executor = executor
        self.sim = executor.sim

    # ------------------------------------------------------------------
    def probe(self, bucket: str, prefix: str = "primula-probe") -> SimEvent:
        """Run one probe invocation; event → :class:`ProbeReport`."""
        return self.sim.process(
            self._probe(bucket, prefix), name="tuner.probe"
        ).completion

    def _probe(self, bucket: str, prefix: str) -> t.Generator:
        started = self.sim.now
        scale = self.executor.cloud.logical_scale
        # The probe's large object is a *logical* size: the measurement
        # must exercise the same logical transfer a real probe would.
        large_real = max(1, int(PROBE_LARGE_MB * (1 << 20) / scale))
        task = {
            "bucket": bucket,
            "prefix": prefix,
            "requests": PROBE_REQUESTS,
            "small_bytes": PROBE_SMALL_BYTES,
            "large_bytes": large_real,
        }
        future = yield self.executor.call_async(probe_worker, task)
        raw = yield self.executor.get_result(future)

        read_latency = statistics.median(raw["read_samples"])
        write_latency = statistics.median(raw["write_samples"])
        transfer_write = max(1e-9, raw["large_write_s"] - write_latency)
        transfer_read = max(1e-9, raw["large_read_s"] - read_latency)
        bandwidth = raw["large_logical"] / max(transfer_write, transfer_read)
        return ProbeReport(
            read_latency_s=read_latency,
            write_latency_s=write_latency,
            connection_bandwidth_bps=bandwidth,
            startup_s=raw["started_at"] - started,
            duration_s=self.sim.now - started,
            requests=2 * PROBE_REQUESTS + 2,
        )

    # ------------------------------------------------------------------
    def fitted_profile(self, report: ProbeReport):
        """A copy of the region profile with measured constants swapped in."""
        return fit_profile(self.executor.cloud.profile, report)

    def plan(
        self,
        logical_bytes: float,
        report: ProbeReport,
        cost: ShuffleCostModel | None = None,
        max_workers: int = 256,
        candidates: t.Sequence[int] | None = None,
    ) -> ShufflePlan:
        """Plan the shuffle on the probed (fitted) profile."""
        return plan_shuffle(
            logical_bytes,
            self.fitted_profile(report),
            cost,
            max_workers=max_workers,
            candidates=candidates,
        )

    def tune(
        self,
        bucket: str,
        logical_bytes: float,
        cost: ShuffleCostModel | None = None,
        max_workers: int = 256,
        candidates: t.Sequence[int] | None = None,
    ) -> SimEvent:
        """Probe then plan in one step; event → ``(report, plan)``."""
        return self.sim.process(
            self._tune(bucket, logical_bytes, cost, max_workers, candidates),
            name="tuner.tune",
        ).completion

    def _tune(
        self,
        bucket: str,
        logical_bytes: float,
        cost: ShuffleCostModel | None,
        max_workers: int,
        candidates: t.Sequence[int] | None,
    ) -> t.Generator:
        report = yield self.probe(bucket)
        plan = self.plan(
            logical_bytes, report, cost, max_workers=max_workers,
            candidates=candidates,
        )
        return report, plan


def fit_profile(profile: CloudProfile, report: ProbeReport) -> CloudProfile:
    """A copy of ``profile`` with the probe's measurements swapped in."""
    fitted = copy.deepcopy(profile)
    fitted.objectstore.read_latency = LatencyModel(report.read_latency_s, 0.0)
    fitted.objectstore.write_latency = LatencyModel(report.write_latency_s, 0.0)
    fitted.faas.instance_bandwidth = report.connection_bandwidth_bps
    # Startup lands in one term that is constant in W; fold the whole
    # measured delay into the cold start for honest predictions.
    fitted.faas.invoke_overhead = LatencyModel(0.0, 0.0)
    fitted.faas.cold_start = LatencyModel(max(0.0, report.startup_s), 0.0)
    return fitted


# ----------------------------------------------------------------------
# adaptive exchange-substrate selection
# ----------------------------------------------------------------------
#: Substrate names in tie-breaking order (the order of
#: :data:`~repro.shuffle.substrates.SUBSTRATES`).
EXCHANGE_SUBSTRATES = tuple(SUBSTRATES)

#: Execution modes in tie-breaking order (the staged barrier is the
#: simpler machine; streaming must *win* to be chosen).
EXCHANGE_MODES = ("staged", "streaming")


@dataclasses.dataclass(frozen=True, slots=True)
class SubstrateEstimate:
    """One substrate's predicted execution, priced."""

    substrate: str
    workers: int
    predicted_s: float
    provisioned_usd: float
    score_usd: float
    feasible: bool
    detail: str = ""
    #: Relay-family configuration (1 everywhere else).
    shards: int = 1
    #: Provisioned flavour backing the estimate ("" for objectstore).
    instance_type: str = ""
    #: Execution mode this estimate prices ("staged" or "streaming").
    mode: str = "staged"


@dataclasses.dataclass(frozen=True, slots=True)
class SubstrateDecision:
    """Outcome of :func:`choose_exchange_substrate`."""

    chosen: SubstrateEstimate
    estimates: tuple[SubstrateEstimate, ...]

    @property
    def substrate(self) -> str:
        return self.chosen.substrate

    def describe(self) -> str:
        lines = []
        for estimate in self.estimates:
            marker = "->" if estimate is self.chosen else "  "
            if not estimate.feasible:
                lines.append(f"{marker} {estimate.substrate:<13} infeasible"
                             f" ({estimate.detail})")
                continue
            config = ""
            if estimate.instance_type:
                config = f" [{estimate.shards}x{estimate.instance_type}]"
            if estimate.mode != "staged":
                config += f" [{estimate.mode}]"
            lines.append(
                f"{marker} {estimate.substrate:<13} W={estimate.workers:<4d}"
                f" {estimate.predicted_s:8.2f} s"
                f"  +${estimate.provisioned_usd:.4f} infra"
                f"  score ${estimate.score_usd:.4f}{config}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# OnlineTuner v2: mid-stream telemetry refit and the decision timeline
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class StreamRateSample:
    """Observed publish telemetry of one streaming wave on one substrate.

    Aggregated by the online sort from its wave mappers:
    ``publish_s`` is the summed per-connection seconds spent inside
    ``port.publish`` (which *includes* substrate admission and
    backpressure waits — the `_StreamBuffer`/relay-side wait telemetry
    folded straight into the observed rate), ``chunks`` the number of
    publishes it covers, ``logical_bytes`` what they carried.
    ``backpressure_waits`` carries the substrate's own wait counter for
    the timeline detail.
    """

    substrate: str
    logical_bytes: float
    publish_s: float
    chunks: int
    backpressure_waits: int = 0
    #: Relay-family flavour behind the sample ("" elsewhere) — its NIC
    #: bounds the expected transfer time the refit subtracts.
    instance_type: str = ""

    @property
    def per_chunk_s(self) -> float:
        return self.publish_s / max(1, self.chunks)

    @property
    def chunk_logical_bytes(self) -> float:
        return self.logical_bytes / max(1, self.chunks)


def fit_stream_profiles(
    profile: CloudProfile, samples: t.Iterable[StreamRateSample]
) -> CloudProfile:
    """A profile copy refit from observed mid-stream publish rates.

    The streaming twin of :func:`fit_profile`: instead of a dedicated
    probe invocation, the measurements are the chunk publishes the
    pipeline performed *anyway*.  For each substrate's latest sample the
    observed per-chunk, per-connection seconds are split into the
    expected transfer time at the calibrated bandwidth and a residual;
    the residual is attributed to the substrate's readiness-protocol
    latency knobs (the terms' ``readiness`` — the same two round trips
    its ``chunk_overhead_s`` charges), **never revising a
    knob below its calibrated prior** — the refit reacts to observed
    degradation monotonically and deterministically, so the decision
    timeline of a seeded run is reproducible.
    """
    fitted = copy.deepcopy(profile)
    for sample in samples:
        if sample.chunks < 1 or sample.logical_bytes <= 0:
            continue
        backend_class = substrate_class(sample.substrate)
        # A flavour the catalog does not know bounds nothing: the
        # function's own NIC is then the connection.
        catalog = backend_class.catalog(fitted)
        flavour = catalog.get(sample.instance_type) if catalog is not None else None
        terms = backend_class.terms(fitted, ShuffleCostModel(), flavour, 1)
        transfer = sample.chunk_logical_bytes / terms.conn_bw
        # Two round trips per chunk, one on each readiness knob.
        residual = max(0.0, sample.per_chunk_s - transfer) / 2.0
        for section, knob in terms.readiness:
            setattr(
                section,
                knob,
                LatencyModel(max(getattr(section, knob).mean, residual), 0.0),
            )
    return fitted


@dataclasses.dataclass(frozen=True, slots=True)
class DecisionPoint:
    """One entry of a :class:`DecisionTimeline`.

    ``trigger`` is ``"initial"`` (the pre-flight selection), ``"wave"``
    (a between-chunks re-selection from refit telemetry) or
    ``"hot-partition"`` (a chunk-grain reroute of the relay fleet).
    ``switched`` marks the points where the running configuration
    actually changed.
    """

    wave: int
    at_s: float
    trigger: str
    decision: SubstrateDecision
    switched: bool
    detail: str = ""

    def describe(self) -> str:
        head = f"wave {self.wave} @ {self.at_s:.2f}s [{self.trigger}]"
        if self.switched:
            head += " SWITCH"
        if self.detail:
            head += f" — {self.detail}"
        return head + "\n" + self.decision.describe()


class DecisionTimeline:
    """Ordered record of every (re-)selection of one online sort.

    What the engine records instead of a single
    :class:`SubstrateDecision`: the initial selection, every
    between-chunks re-selection, and every mid-stream hot-partition
    reroute, in wave order.
    """

    def __init__(self) -> None:
        self.points: list[DecisionPoint] = []

    def append(self, point: DecisionPoint) -> None:
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> t.Iterator[DecisionPoint]:
        return iter(self.points)

    @property
    def switches(self) -> int:
        """Number of points that changed the running configuration."""
        return sum(1 for point in self.points if point.switched)

    @property
    def final(self) -> DecisionPoint:
        if not self.points:
            raise ShuffleError("empty decision timeline")
        return self.points[-1]

    def describe(self) -> str:
        return "\n\n".join(point.describe() for point in self.points)


def choose_exchange_substrate(
    logical_bytes: float,
    profile: CloudProfile,
    workers: int | None = None,
    *,
    cache_node_type: str = "cache.r5.large",
    time_value_usd_per_hour: float = 1.0,
    max_workers: int = 256,
    substrates: t.Sequence[str] | None = None,
    modes: t.Sequence[str] = ("staged",),
    stream_chunk_bytes: float = 32 * (1 << 20),
    stream_chunked_input: bool = False,
    cost: ShuffleCostModel | None = None,
) -> SubstrateDecision:
    """Pick the exchange substrate for one shuffle, analytically.

    Prices every candidate substrate of
    :data:`~repro.shuffle.substrates.SUBSTRATES` — each class's
    ``configurations`` and ``terms`` — on ``profile`` (pass
    :func:`fit_profile` of an :class:`OnlineTuner` report to plan on
    what was measured, Primula's loop) and minimizes a single monetized
    score::

        score = predicted_s * time_value_usd_per_hour / 3600
              + provisioned_infrastructure_usd

    ``workers=None`` lets each substrate plan its own optimal count
    (they genuinely differ: the cache and relays tolerate far more
    functions than object storage); a pinned count compares them all at
    that count, the shape of benchmark S8.  ``substrates`` restricts
    the candidates (default: all of :data:`SUBSTRATES`).

    ``modes`` makes the *execution mode* a decision variable alongside
    the substrate: with ``("staged", "streaming")`` every substrate is
    additionally priced in the pipelined streaming mode
    (:func:`~repro.shuffle.planner.predict_streaming_shuffle_time` over
    ``stream_chunk_bytes``-sized chunks, charged the substrate's per-chunk
    readiness overhead), and the winner may be e.g.
    "relay, streaming".  With ``workers=None`` each mode picks its own
    optimal worker count from the same curve.  Exact ties break staged
    before streaming (the simpler machine).  ``stream_chunked_input``
    prices streaming candidates with chunked map-side *input* reads —
    the online sort's execution shape, where the split read joins the
    pipeline instead of serialising before it.

    The provisioned term is what object storage never pays: cache
    node-seconds (for a cluster of ``cache_node_type`` nodes sized by
    :func:`~repro.shuffle.cacheplanner.required_cache_nodes`), relay
    VM-seconds + boot volume (instance sized by
    :func:`~repro.shuffle.relayplanner.required_relay_instance`), or —
    for the sharded relay — N of those: the selector prices every shard
    count up to :data:`~repro.shuffle.relayplanner.MAX_RELAY_SHARDS` and
    keeps the best-scoring fleet, which is how aggregate NIC bandwidth
    is traded against N× provisioned cost.  Each is billed over the
    predicted duration with the provider's minimum billed window — the
    always-on economics the paper credits object storage for avoiding.
    Substrates assume warm (pre-provisioned) infrastructure, as the
    experiments do.  A substrate whose capacity cannot hold the shuffle
    is reported infeasible and never chosen; if *every* candidate is
    infeasible this raises :class:`~repro.errors.ShuffleError`.

    Exact score ties break toward the earlier entry of
    :data:`SUBSTRATES` — the simpler infrastructure wins when the money
    says they are equal.

    ``time_value_usd_per_hour=0`` degenerates to pure cost minimization
    (object storage always wins); large values buy latency with
    provisioned hardware.

    ``cost`` supplies the workload-side constants every candidate is
    priced with (default: the library-default cost model).  Callers
    that will *execute* the chosen sort with calibrated workload
    parameters — the ``auto_sort`` stage does — must pass the same
    model here, or the decision is priced for a different workload than
    the one that runs.
    """
    if logical_bytes <= 0:
        raise ShuffleError(f"logical_bytes must be positive, got {logical_bytes}")
    if time_value_usd_per_hour < 0:
        raise ShuffleError(
            f"time_value_usd_per_hour must be >= 0, got {time_value_usd_per_hour}"
        )
    wanted = tuple(substrates) if substrates is not None else tuple(SUBSTRATES)
    for name in wanted:
        if name not in SUBSTRATES:
            raise ShuffleError(
                f"unknown exchange substrate {name!r}; expected a subset "
                f"of {tuple(SUBSTRATES)}"
            )
    if not wanted:
        raise ShuffleError("empty candidate substrate set")
    wanted_modes = tuple(modes)
    for mode in wanted_modes:
        if mode not in EXCHANGE_MODES:
            raise ShuffleError(
                f"unknown execution mode {mode!r}; expected a subset of "
                f"{EXCHANGE_MODES}"
            )
    if not wanted_modes:
        raise ShuffleError("empty candidate mode set")
    time_value_per_s = time_value_usd_per_hour / 3600.0

    cost = cost if cost is not None else ShuffleCostModel()
    candidates = None if workers is None else [workers]

    # substrate -> configurations (or why none) -> staged curve each ->
    # per mode, the best-scoring configuration's best point.  Only the
    # sharded fleet has more than one configuration (its shard counts);
    # walking SUBSTRATES in order keeps the estimates in the canonical
    # tie-breaking order.
    estimates: list[SubstrateEstimate] = []
    for substrate, backend_class in SUBSTRATES.items():
        if substrate not in wanted:
            continue
        # The cache's node type is the one flavour the selector pins.
        configurations = backend_class.configurations(
            logical_bytes, profile,
            flavour=cache_node_type if substrate == "cache" else None,
        )
        if isinstance(configurations, str):
            estimates.append(
                SubstrateEstimate(
                    substrate=substrate, workers=0, predicted_s=float("inf"),
                    provisioned_usd=float("inf"), score_usd=float("inf"),
                    feasible=False, detail=configurations,
                )
            )
            continue
        priced = []
        for flavour, count in configurations:
            terms = backend_class.resolve_terms(profile, cost, flavour, count)
            staged = plan_shuffle(
                logical_bytes, profile, cost, max_workers=max_workers,
                candidates=candidates, terms=terms,
            ).curve
            priced.append((flavour, count, terms, staged))
        for mode in EXCHANGE_MODES:
            if mode not in wanted_modes:
                continue
            options = []
            for flavour, count, terms, staged in priced:
                point = best_point(
                    staged
                    if mode == "staged"
                    else streaming_curve(
                        staged, logical_bytes, stream_chunk_bytes, terms,
                        chunked_input=stream_chunked_input,
                    )
                )
                infra = terms.infra_usd(point.total_s)
                options.append(
                    SubstrateEstimate(
                        substrate=substrate,
                        workers=point.workers,
                        predicted_s=point.total_s,
                        provisioned_usd=infra,
                        score_usd=point.total_s * time_value_per_s + infra,
                        feasible=True,
                        shards=count,
                        instance_type=flavour,
                        mode=mode,
                    )
                )
            estimates.append(
                min(options, key=lambda estimate: (estimate.score_usd, estimate.shards))
            )

    feasible = [estimate for estimate in estimates if estimate.feasible]
    if not feasible:
        details = "; ".join(
            f"{estimate.substrate}: {estimate.detail}" for estimate in estimates
        )
        raise ShuffleError(
            f"no feasible exchange substrate among {wanted} for "
            f"{logical_bytes:.0f} logical bytes — {details}"
        )
    # min() keeps the first of equals: exact score ties break toward the
    # earlier substrate, then the earlier mode.
    chosen = min(feasible, key=lambda estimate: estimate.score_usd)
    return SubstrateDecision(chosen=chosen, estimates=tuple(estimates))


# ----------------------------------------------------------------------
# Fleet autoscaling policy (the multi-tenant ExchangeService's brain)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class FleetScaleDecision:
    """One autoscaling verdict for a shared relay fleet.

    Attributes
    ----------
    instance_type:
        Relay VM flavour of the target fleet (the policy keeps the
        flavour pinned; shard count is the scaling axis).
    shards:
        Target shard count.
    direction:
        ``"up"`` or ``"down"`` relative to the current fleet.
    reason:
        Human-readable one-liner for the service's scale-event log.
    """

    instance_type: str
    shards: int
    direction: str
    reason: str


#: Scale-down hysteresis of :func:`plan_fleet_scale`: a fleet only
#: shrinks when demand inflated by this fraction still fits fewer shards.
SCALE_DOWN_MARGIN = 0.5


def plan_fleet_scale(
    demand_bytes: float,
    profile: CloudProfile,
    current_shards: int,
    instance_type_name: str,
    *,
    max_shards: int = 8,
) -> FleetScaleDecision | None:
    """Decide whether a shared relay fleet should change shard count.

    ``demand_bytes`` is the observed load — the sum of logical exchange
    bytes of every running *and queued* job (the service's queue depth
    expressed in the unit the sizing model understands).  The target is
    the shard count :func:`~repro.shuffle.relayplanner.fleet_shards_for`
    sizes for that demand, clamped to
    ``[1, max_shards]``.

    Scaling **up** happens as soon as the target exceeds the current
    count — an undersized fleet backpressures every tenant.  Scaling
    **down** is hysteretic: the fleet only shrinks when demand inflated
    by :data:`SCALE_DOWN_MARGIN` *still* fits the smaller count, so a
    sawtooth arrival pattern near a sizing boundary does not thrash the
    fleet through provision/terminate cycles (each of which strands a
    generation's minimum billed seconds).

    Returns ``None`` when the fleet should stay as it is.
    """
    if current_shards < 1:
        raise ShuffleError(f"current_shards must be >= 1, got {current_shards}")
    if max_shards < 1:
        raise ShuffleError(f"max_shards must be >= 1, got {max_shards}")

    usable = relay_usable_bytes(
        profile, resolve_relay_instance(profile, instance_type_name)
    )

    def shards_for(load: float) -> int:
        if load <= 0:
            return 1
        # Clamped, not refused: a backlog beyond the largest fleet
        # targets max_shards and the queue absorbs the rest.
        shards = fleet_shards_for(load, usable)
        return max(1, min(max_shards, shards))

    target = shards_for(demand_bytes)
    if target > current_shards:
        return FleetScaleDecision(
            instance_type=instance_type_name,
            shards=target,
            direction="up",
            reason=(
                f"demand {demand_bytes:.0f}B needs {target} shards "
                f"(have {current_shards})"
            ),
        )
    if target < current_shards:
        # Hysteresis: only shrink if padded demand still fits the target.
        padded = shards_for(demand_bytes * (1.0 + SCALE_DOWN_MARGIN))
        if padded < current_shards:
            return FleetScaleDecision(
                instance_type=instance_type_name,
                shards=padded,
                direction="down",
                reason=(
                    f"demand {demand_bytes:.0f}B (+{SCALE_DOWN_MARGIN:.0%} "
                    f"margin) fits {padded} shards (have {current_shards})"
                ),
            )
    return None
