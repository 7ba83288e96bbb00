"""Analytic planner: the optimal number of shuffle functions.

This is the heart of the Primula reimplementation and of the paper's
thesis: "object storage performs well **when the appropriate number of
functions is used** in I/O-bound stages".

The planner models end-to-end shuffle time as a function of the worker
count ``W`` (we use ``W`` mappers and ``W`` reducers, Primula's default
square layout) and picks the minimizing ``W``:

* **too few functions** — each worker moves ``S/W`` bytes through its
  own NIC: bandwidth-starved, compute-starved;
* **too many functions** — the all-to-all phase issues ``W²`` requests:
  per-request latency and the substrate's ops/s ceiling dominate, plus
  every extra worker pays a cold start.

There is **one model**.  The paper's comparison varies one thing —
where the all-to-all happens — and so does this module: the input
split read, both CPU passes, the sorted-run write and the driver are
the same arithmetic whatever carries the exchange, and the exchange
itself (``map write``, ``reduce fetch``) is the same two formulas over
an :class:`ExchangeTerms` row.  This module holds the three row
builders (:func:`objectstore_terms`, :func:`cache_terms`,
:func:`relay_terms`); each backend class of
:data:`repro.shuffle.substrates.SUBSTRATES` names its builder as
``terms``, and :func:`repro.shuffle.substrates.exchange_terms` resolves
one for a configuration (flavour × count) on a profile.

The model's terms (per phase, seconds; ``b`` = a function's connection
to object storage, ``A`` = its aggregate pipe, and ``c``, ``G``,
``L_w(W)``, ``L_f(W)``, ``Q_w``, ``Q_f`` the row's connection and
aggregate bandwidth, batched write/fetch latency and request ceilings):

==============  =====================================================
startup         invoke overhead + cold start (parallel across workers)
map read        ``max(S / (W·b), S / A)`` + one GET latency
partition CPU   ``(S/W) / partition_throughput``
map write       ``max(L_w(W) + max(S/(W·c), S/G), W²/Q_w)``
reduce fetch    ``max(L_f(W) + max(skew·S/(W·c), S/G), W²/Q_f)``
sort CPU        ``skew · (S/W) / sort_throughput``
reduce write    ``max(skew·S/(W·b), S/A)`` + one PUT latency
driver          ``3·W·(L_w + L_r)`` — the orchestrator uploads one
                payload and fetches one result per call, serially, for
                each of the three phases (Lithops driver behaviour)
==============  =====================================================

The planned curve is itself an experiment artifact: benchmark S1 sweeps
the *simulated* shuffle over ``W`` and checks it reproduces this
U-shape with a compatible minimizer.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.cloud.profiles import CloudProfile
from repro.errors import ShuffleError


@dataclasses.dataclass(slots=True)
class ShuffleCostModel:
    """Workload-side constants of the shuffle, whatever substrate runs it."""

    #: Full-core throughput of the partitioning pass (bytes/s).
    partition_throughput: float = 180e6
    #: Full-core throughput of the reduce-side sort (bytes/s).
    sort_throughput: float = 90e6
    #: Concurrent range-GETs per reducer (latency hiding; object storage
    #: only — cache and relay reducers fetch their range in one batch).
    fetch_parallelism: int = 4
    #: Primula's write-combining I/O optimization: each mapper writes one
    #: combined object (W PUTs per map phase) instead of one object per
    #: partition (W² PUTs).  Disable to measure the naive all-to-all the
    #: paper warns about.  Object storage only.
    write_combining: bool = True
    #: Cache only: delete partitions from the cache after the reduce
    #: reads them.
    cleanup: bool = False
    #: Relays only: reducers delete their partitions after writing their
    #: sorted run, freeing relay memory as the reduce wave drains.
    #: Crash-safe: worker-attempt consuming pulls take *read-leases* that
    #: only remove entries when the activation commits — a reducer that
    #: dies mid-consume has its leases reinstated, so the retry finds
    #: every partition intact (see
    #: :meth:`~repro.cloud.vm.relay.PartitionRelay.commit_attempt`).
    #: Off by default (mirroring ``cleanup``); long-lived shared fleets
    #: opt in so memory self-reclaims between jobs instead of waiting
    #: for terminate.
    consume: bool = False
    #: Relay fleets only: route shards by planned partition bytes
    #: instead of raw CRC (``ShardedRelayExchange``): the sampling
    #: pass's load profile is balanced across shard NICs/memory with a
    #: deterministic LPT assignment.  Disable to measure the naive hash
    #: routing S11 contrasts it with.
    rebalance: bool = True


@dataclasses.dataclass(frozen=True, slots=True)
class ExchangeTerms:
    """Where the all-to-all happens, as the numbers the model reads.

    One substrate at one configuration (flavour × count) on one
    profile, as its backend class's ``terms`` builds it.
    """

    #: Bytes/s one worker's connection to the substrate sustains.
    conn_bw: float
    #: Bytes/s the substrate moves in total (every byte crosses it once
    #: per wave).
    aggregate_bw: float
    #: Request latency of one mapper publishing its ``W`` partitions.
    write_latency: t.Callable[[int], float]
    #: Request latency of one reducer collecting its ``W`` segments.
    fetch_latency: t.Callable[[int], float]
    #: Requests/s ceiling under the map wave's ``W²`` writes
    #: (``math.inf``: none — the wave issues ``W`` requests).
    write_ops_per_s: float
    #: Requests/s ceiling under the reduce wave's ``W²`` reads.
    fetch_ops_per_s: float
    #: ``(profile section, latency knob)`` pairs one streamed chunk's
    #: readiness protocol pays a round trip on — what the streaming
    #: mode pays per chunk that staging never does
    #: (:attr:`chunk_overhead_s`), and the knobs a mid-stream refit
    #: attributes observed slowness to.
    readiness: tuple[tuple[t.Any, str], ...]
    #: Provisioned-infrastructure dollars over a predicted duration,
    #: with the provider's minimum billed window (0 for pay-as-you-go).
    infra_usd: t.Callable[[float], float]

    @property
    def chunk_overhead_s(self) -> float:
        """Per-chunk request overhead of the readiness protocol: one
        manifest PUT + one discovery GET on object storage, one
        notification read + one extra write round trip on the cache, two
        relay round trips on the relay family.  Multiplied by the chunk
        count in :func:`predict_streaming_shuffle_time`, this is the
        term that keeps infinitely fine chunking from winning."""
        return sum(getattr(section, knob).mean for section, knob in self.readiness)


def objectstore_terms(profile, cost, _flavour, _count) -> ExchangeTerms:
    """Pay-as-you-go: one combined PUT per mapper, K-way batched
    range-GETs per reducer under the account's ops/s ceiling, one
    manifest PUT + one discovery GET per streamed chunk."""
    store = profile.objectstore
    return ExchangeTerms(
        conn_bw=min(profile.faas.instance_bandwidth, store.per_connection_bandwidth),
        aggregate_bw=store.aggregate_bandwidth,
        write_latency=lambda workers: store.write_latency.mean,
        fetch_latency=lambda workers: (
            -(-workers // max(1, cost.fetch_parallelism)) * store.read_latency.mean
        ),
        write_ops_per_s=math.inf,
        fetch_ops_per_s=store.ops_per_second,
        readiness=((store, "write_latency"), (store, "read_latency")),
        infra_usd=lambda predicted_s: 0.0,
    )


def cache_terms(profile, _cost, node_type, nodes) -> ExchangeTerms:
    """Sub-millisecond *batched* requests — a mapper's MSET and a
    reducer's MGET pay one latency per node touched, not per key — a
    per-node ops/s ceiling ~30x the object-storage account's, and the
    cluster's aggregate NIC as the (early) bandwidth ceiling.  One
    notification read + one extra write round trip per streamed chunk;
    node-seconds over the duration."""
    cache = profile.memstore
    nic = math.inf if node_type is None else node_type.nic_bandwidth

    def infra_usd(predicted_s: float) -> float:
        billed = max(predicted_s, cache.minimum_billed_s)
        return nodes * node_type.per_second_usd * billed

    return ExchangeTerms(
        conn_bw=min(profile.faas.instance_bandwidth, cache.per_connection_bandwidth),
        aggregate_bw=nodes * nic,
        write_latency=lambda workers: min(workers, nodes) * cache.write_latency.mean,
        fetch_latency=lambda workers: min(workers, nodes) * cache.read_latency.mean,
        write_ops_per_s=nodes * cache.ops_per_node,
        fetch_ops_per_s=nodes * cache.ops_per_node,
        readiness=((cache, "write_latency"), (cache, "read_latency")),
        infra_usd=infra_usd,
    )


def relay_terms(profile, _cost, instance_type, shards) -> ExchangeTerms:
    """One in-VPC round trip per batch whatever the shard count (a
    mapper's MPUSH and a reducer's MPULL fan their per-shard sub-batches
    out in parallel), ``shards`` independent request loops, and the
    fleet's aggregate NIC crossed once per wave — the scale-up ceiling
    of one instance line rate at ``shards=1``, which is the whole point
    of sharding.  Two relay round trips per streamed chunk;
    instance-seconds + boot volume, times the fleet."""
    vm = profile.vm
    nic = math.inf if instance_type is None else instance_type.nic_bandwidth
    request = vm.relay_request_latency.mean

    def infra_usd(predicted_s: float) -> float:
        billed = max(predicted_s, vm.minimum_billed_s)
        per_instance = billed * instance_type.per_second_usd + (
            vm.boot_volume_gb * (billed / 3600.0) * vm.volume_gb_hour_usd
        )
        return shards * per_instance

    return ExchangeTerms(
        conn_bw=min(profile.faas.instance_bandwidth, nic),
        aggregate_bw=nic * shards,
        write_latency=lambda workers: request,
        fetch_latency=lambda workers: request,
        write_ops_per_s=shards * vm.relay_ops_per_second,
        fetch_ops_per_s=shards * vm.relay_ops_per_second,
        readiness=((vm, "relay_request_latency"), (vm, "relay_request_latency")),
        infra_usd=infra_usd,
    )


@dataclasses.dataclass(frozen=True, slots=True)
class PlanPoint:
    """Predicted shuffle timing at one worker count."""

    workers: int
    total_s: float
    breakdown: dict[str, float]


@dataclasses.dataclass(frozen=True, slots=True)
class ShufflePlan:
    """Planner output: chosen worker count plus the full predicted curve."""

    workers: int
    predicted_s: float
    curve: tuple[PlanPoint, ...]

    def point(self, workers: int) -> PlanPoint:
        for candidate in self.curve:
            if candidate.workers == workers:
                return candidate
        raise ShuffleError(f"no plan point for {workers} workers")


def predict_shuffle_time(
    logical_bytes: float,
    workers: int,
    profile: CloudProfile,
    cost: ShuffleCostModel,
    skew: float | None = None,
    terms: ExchangeTerms | None = None,
) -> PlanPoint:
    """Evaluate the analytic model at one worker count.

    ``terms`` says where the all-to-all happens (default: object
    storage, the paper's serverless configuration).  The input split
    read and the final sorted-run write go through object storage on
    every substrate — a cache or relay only holds the all-to-all
    traffic.

    ``skew`` is the expected max-over-mean partition bytes (default
    1.0: balanced keys).  Input splits stay byte-even under any key
    distribution, so the map side is unaffected; the reduce side is
    paced by the straggler owning the hottest partition, whose fetch
    transfer, sort CPU and output write scale by ``skew``.  The
    substrate's aggregate term stays aggregate: load-aware rebalancing
    (the ``ShardedRelayExchange`` default) spreads the hot partition's
    segments across shard NICs.
    """
    if workers < 1:
        raise ShuffleError(f"workers must be >= 1, got {workers}")
    skew = 1.0 if skew is None else skew
    if skew < 1.0:
        raise ShuffleError(f"skew must be >= 1 (max/mean), got {skew}")
    if terms is None:
        terms = objectstore_terms(profile, cost, None, 1)
    size = float(logical_bytes)
    store = profile.objectstore
    faas = profile.faas
    instance_bw = min(faas.instance_bandwidth, store.per_connection_bandwidth)
    per_worker = size / workers
    straggler = per_worker * skew

    startup = faas.invoke_overhead.mean + faas.cold_start.mean
    map_read = (
        max(per_worker / instance_bw, size / store.aggregate_bandwidth)
        + store.read_latency.mean
    )
    partition_cpu = per_worker / cost.partition_throughput

    requests = workers * workers
    map_write = max(
        terms.write_latency(workers)
        + max(per_worker / terms.conn_bw, size / terms.aggregate_bw),
        requests / terms.write_ops_per_s,
    )
    reduce_fetch = max(
        terms.fetch_latency(workers)
        + max(straggler / terms.conn_bw, size / terms.aggregate_bw),
        requests / terms.fetch_ops_per_s,
    )

    sort_cpu = straggler / cost.sort_throughput
    reduce_write = (
        max(straggler / instance_bw, size / store.aggregate_bandwidth)
        + store.write_latency.mean
    )
    driver = 3.0 * workers * (store.write_latency.mean + store.read_latency.mean)

    # Key order is summation order: it pins total_s to the last bit.
    breakdown = {
        "startup": startup,
        "map_read": map_read,
        "partition_cpu": partition_cpu,
        "map_write": map_write,
        "reduce_fetch": reduce_fetch,
        "sort_cpu": sort_cpu,
        "reduce_write": reduce_write,
        "driver": driver,
    }
    return PlanPoint(workers, sum(breakdown.values()), breakdown)


def predict_streaming_shuffle_time(
    staged: PlanPoint,
    chunks: int,
    per_chunk_overhead_s: float = 0.0,
    chunked_input: bool = False,
) -> PlanPoint:
    """Overlap-aware completion time of the pipelined map→reduce exchange.

    Transforms a *staged* prediction (any substrate's) into the
    streaming execution mode's: the producer side of the exchange
    (partitioning + publishing) and the consumer side (fetching +
    sorting) run as a two-stage pipeline over ``chunks`` chunks per
    mapper, so the critical path is the slower side plus one chunk's
    worth of the faster side (the pipeline fill/drain), instead of
    their sum::

        pipelined = max(P, C) + min(P, C) / chunks
        P = partition_cpu + map_write
        C = reduce_fetch + sort_cpu

    ``per_chunk_overhead_s`` charges what staging never pays: the extra
    per-chunk requests of the readiness protocol (manifest PUT/poll on
    object storage, notification reads on cache/relay), linear in the
    chunk count — which is why infinitely fine chunking does not win.
    Input read, output write, startup and driver terms are unchanged;
    with ``chunks == 1`` and zero overhead this degenerates to the
    staged total.

    ``chunked_input`` models the online sort's chunked map-side *input*
    reads: the mapper range-GETs each chunk's sub-range just before
    partitioning it, so the whole-split read joins the producer side of
    the pipeline (``P = map_read + partition_cpu + map_write``) instead
    of serialising before it — pipeline fill drops below ``map_read +
    first chunk``.
    """
    if chunks < 1:
        raise ShuffleError(f"chunks must be >= 1, got {chunks}")
    if per_chunk_overhead_s < 0:
        raise ShuffleError(
            f"per_chunk_overhead_s must be >= 0, got {per_chunk_overhead_s}"
        )
    b = staged.breakdown
    producer = b["partition_cpu"] + b["map_write"]
    serial_read = b["map_read"]
    if chunked_input:
        producer += serial_read
        serial_read = 0.0
    consumer = b["reduce_fetch"] + b["sort_cpu"]
    breakdown = {
        "startup": b["startup"],
        "map_read": serial_read,
        "pipelined_exchange": max(producer, consumer)
        + min(producer, consumer) / chunks,
        "chunk_overhead": chunks * per_chunk_overhead_s,
        "reduce_write": b["reduce_write"],
        "driver": b["driver"],
    }
    return PlanPoint(staged.workers, sum(breakdown.values()), breakdown)


def streaming_chunk_count(
    logical_bytes: float, workers: int, chunk_bytes: float
) -> int:
    """Chunks per mapper at one worker count (the pipelining grain)."""
    if chunk_bytes <= 0:
        raise ShuffleError(f"chunk_bytes must be positive, got {chunk_bytes}")
    return max(1, math.ceil((logical_bytes / max(1, workers)) / chunk_bytes))


def streaming_curve(
    staged: t.Iterable[PlanPoint],
    logical_bytes: float,
    chunk_bytes: float,
    terms: ExchangeTerms,
    chunked_input: bool = False,
) -> tuple[PlanPoint, ...]:
    """A staged curve, point by point, in the streaming execution mode:
    ``chunk_bytes``-sized chunks, charged the substrate's per-chunk
    readiness overhead."""
    overhead = terms.chunk_overhead_s
    return tuple(
        predict_streaming_shuffle_time(
            point,
            streaming_chunk_count(logical_bytes, point.workers, chunk_bytes),
            overhead,
            chunked_input=chunked_input,
        )
        for point in staged
    )


def best_point(curve: t.Iterable[PlanPoint]) -> PlanPoint:
    """The fastest point of a curve (fewest workers on an exact tie)."""
    return min(curve, key=lambda point: (point.total_s, point.workers))


def plan_shuffle(
    logical_bytes: float,
    profile: CloudProfile,
    cost: ShuffleCostModel | None = None,
    max_workers: int = 256,
    candidates: t.Sequence[int] | None = None,
    skew: float | None = None,
    terms: ExchangeTerms | None = None,
) -> ShufflePlan:
    """Pick the worker count minimizing predicted shuffle time.

    ``candidates`` defaults to every integer in ``[1, max_workers]``;
    pass an explicit sequence (e.g. powers of two) to restrict the
    search the way Primula's on-the-fly heuristic does.  ``skew``
    prices the straggler reducer and ``terms`` names the substrate
    configuration (see :func:`predict_shuffle_time`).
    """
    if logical_bytes <= 0:
        raise ShuffleError(f"logical_bytes must be positive, got {logical_bytes}")
    cost = cost if cost is not None else ShuffleCostModel()
    pool = list(candidates) if candidates is not None else list(range(1, max_workers + 1))
    if not pool:
        raise ShuffleError("empty candidate worker set")
    if terms is None:
        terms = objectstore_terms(profile, cost, None, 1)
    curve = tuple(
        predict_shuffle_time(logical_bytes, workers, profile, cost, skew, terms)
        for workers in sorted(set(pool))
    )
    best = best_point(curve)
    return ShufflePlan(workers=best.workers, predicted_s=best.total_s, curve=curve)
