"""Stage-kind implementations for the METHCOMP pipelines.

These are the building blocks the declarative workflows (and the
Table 1 experiment) compose:

==================  ====================================================
``dataset_ref``        point at the input object, staged in the
                       workflow bucket before the DAG runs
                       (:func:`repro.core.experiment.stage_input`)
``shuffle_sort``       sort with serverless functions exchanging through
``cache_sort``         object storage (Primula — configuration **B**),
``relay_sort``         an in-memory cache cluster (**C**), a relay on a
``sharded_relay_sort`` provisioned VM (**D**) or a sharded relay fleet
                       (**E**): four names for one body,
                       :func:`_exchange_sort`, over one backend class
                       each of ``SUBSTRATES`` (experiments S8/S8b)
``streaming_sort``     the same body in the *streaming* execution mode
                       on the substrate its ``substrate`` param names:
                       the reduce wave launches concurrently with the
                       map wave (experiment S10)
``auto_sort``          adaptive sort: picks the substrate at
                       DAG-execution time with
                       ``choose_exchange_substrate`` and runs the same
                       staged body on the winner, recording the decision
                       in the stage report
``vm_sort``            sort inside a provisioned VM — configuration **A**
``methcomp_encode``    embarrassingly parallel METHCOMP compression of
                       the sorted runs with cloud functions
``methcomp_verify``    decompress and check record conservation
==================  ====================================================

Every sort kind produces the same artifact shape (a list of sorted runs
in partition order), so the encode stage is substrate-agnostic —
exactly the property the paper's comparison relies on.  A stage reads
only the params some pipeline variant, sweep or workload sets; the
values it does not take as params are constants (below, and
:data:`~repro.shuffle.operator.SAMPLERS`).
"""

from __future__ import annotations

import functools
import typing as t

from repro.core.calibration import WorkloadParams
from repro.errors import WorkflowError
from repro.executor.executor import FunctionExecutor
from repro.methcomp.pipeline import bed_record_codec, decode_worker, encode_worker
from repro.shuffle import kernels
from repro.shuffle.adaptive import choose_exchange_substrate
from repro.shuffle.content import (
    LineageCache,
    lineage_cache_for,
    lineage_outputs_present,
)
from repro.shuffle.operator import ShuffleResult, ShuffleSort
from repro.shuffle.streaming import StreamConfig
from repro.shuffle.substrates import SUBSTRATES
from repro.storage import paths
from repro.workflows.engine import StageContext, register_stage_kind, registered_kinds

#: Engine-level cache of function executors, one per memory size, so
#: consecutive stages share warm containers (Lithops runtime reuse).
_EXECUTOR_CACHE_ATTR = "_repro_executor_cache"

#: ``streaming_sort``'s chunk grain and reducer buffer bound (logical
#: bytes) and its manifest poll cadence.  Floats on purpose: every
#: mapper and reducer task carries them pickled in its stream
#: descriptor, and the store bills the pickled bytes.
STREAM_CHUNK_BYTES = 32.0 * (1 << 20)
STREAM_BUFFER_BYTES = 256.0 * (1 << 20)
STREAM_POLL_INTERVAL_S = 0.2
#: ``vm_sort``'s range-GET granularity, a *logical* size: scaled-down
#: runs still spread the download over the same number of connections.
VM_DOWNLOAD_CHUNK_BYTES = 32 * (1 << 20)


def _workload(context: StageContext) -> WorkloadParams:
    """Workload params attached to the engine (or library defaults)."""
    workload = getattr(context.engine, "workload", None)
    return workload if workload is not None else WorkloadParams()


def _function_executor(context: StageContext, memory_mb: int) -> FunctionExecutor:
    cache = getattr(context.engine, _EXECUTOR_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(context.engine, _EXECUTOR_CACHE_ATTR, cache)
    if memory_mb not in cache:
        cache[memory_mb] = FunctionExecutor(
            context.cloud,
            runtime_memory_mb=memory_mb,
            bucket=context.bucket,
        )
    return cache[memory_mb]


def _single_input(inputs: dict[str, t.Any], stage: str) -> t.Any:
    if len(inputs) != 1:
        raise WorkflowError(
            f"stage {stage!r} expects exactly one upstream stage, "
            f"got {sorted(inputs)}"
        )
    return next(iter(inputs.values()))


# ----------------------------------------------------------------------
# dataset stage
# ----------------------------------------------------------------------
def dataset_ref(context: StageContext, inputs: dict) -> t.Generator:
    """Reference an existing object in the workflow bucket (pre-staged
    input data).

    Params: ``key``.
    """
    key = context.param("key", required=True)
    meta = yield context.cloud.store.head(context.bucket, key)
    return {
        "bucket": context.bucket,
        "key": key,
        "real_bytes": meta.size,
        "logical_bytes": meta.logical_size,
    }


# ----------------------------------------------------------------------
# sort stages: one body over the substrate classes
# ----------------------------------------------------------------------
#: ``(artifact key, report field)`` pairs a streaming sort's artifact
#: carries after the uniform ones (a staged one: its class's extras).
_STREAM_ARTIFACT = tuple(
    (name, name)
    for name in (
        "overlap_s",
        "buffer_high_watermark_bytes",
        "buffer_backpressure_waits",
        "stream_chunks",
    )
)


def _sort_fields(result: ShuffleResult) -> dict:
    """The artifact fields every function-driven sort starts with."""
    return {
        "runs": [
            {
                "bucket": run.bucket,
                "key": run.key,
                "records": run.records,
                "bytes": run.size_bytes,
            }
            for run in result.runs
        ],
        "workers": result.workers,
        "records": result.total_records,
        "duration_s": result.duration_s,
    }


def _exchange_sort(
    context: StageContext,
    inputs: dict,
    substrate: str,
    mode: str,
    overrides: dict | None = None,
) -> t.Generator:
    """Sort with serverless functions over one exchange substrate.

    The single body behind ``shuffle_sort`` / ``cache_sort`` /
    ``relay_sort`` / ``sharded_relay_sort`` (``mode="staged"`` on their
    backend class of :data:`~repro.shuffle.substrates.SUBSTRATES`) and
    ``streaming_sort`` (``mode="streaming"`` on the class its
    ``substrate`` param names): provision the class's resource, build
    its backend, run :class:`~repro.shuffle.operator.ShuffleSort`,
    release.
    A provisioned substrate lives exactly as long as the stage; its
    node/instance-seconds are billed into the stage's cost either way.

    Params, all kinds: ``workers`` (required: the sort runs at the
    count it is given) and ``memory_mb``.
    Provisioned substrates: ``provisioning`` (``"warm"``
    pre-provisioned, or ``"cold"`` — creation/boot on the clock) and
    the class's sizing params — cache ``node_type`` (default
    cache.r5.large) and ``nodes`` (0 = size the cluster to fit); relay
    ``instance_type`` (omit to auto-size the smallest flavour that holds
    the data); sharded relay ``instance_type`` and ``shards`` (default
    2; 0 auto-sizes the fleet).  Staged only: the class's reducer-side
    deletion flag — cache ``cleanup``, relays ``consume`` (default
    False; the resource is terminated at stage end either way).
    Streaming runs at :data:`STREAM_CHUNK_BYTES` chunks, a
    :data:`STREAM_BUFFER_BYTES` reducer buffer and
    :data:`STREAM_POLL_INTERVAL_S` manifest polls.

    ``overrides`` shadow stage params — ``auto_sort`` injects the
    configuration its decision priced without touching the stage's own.

    The artifact carries the run list and the uniform report fields,
    then the class's ``artifact_extras`` (staged) or the streaming
    observables (measured map/reduce ``overlap_s``, the reducer
    buffers' high watermark, summed backpressure waits, chunk count).
    """
    upstream = _single_input(inputs, context.spec.name)
    if substrate not in SUBSTRATES:
        raise WorkflowError(
            f"stage {context.spec.name!r}: unknown substrate {substrate!r}; "
            f"expected one of {sorted(SUBSTRATES)}"
        )
    backend_class = SUBSTRATES[substrate]
    overrides = overrides or {}

    def param(name: str, default: t.Any = None) -> t.Any:
        return overrides.get(name, context.param(name, default))

    workers = param("workers")
    if workers is None:
        raise WorkflowError(
            f"stage {context.spec.name!r} requires parameter 'workers'"
        )
    executor = _function_executor(context, int(param("memory_mb", 2048)))
    cost = _workload(context).shuffle_cost_model()
    stream = None
    if mode == "streaming":
        stream = StreamConfig(
            STREAM_CHUNK_BYTES, STREAM_BUFFER_BYTES, STREAM_POLL_INTERVAL_S
        )
    elif backend_class.stage_flag is not None:
        flag = backend_class.stage_flag
        setattr(cost, flag, bool(param(flag, False)))
    provisioning = param("provisioning", "warm")
    if provisioning not in ("warm", "cold"):
        raise WorkflowError(
            f"stage {context.spec.name!r}: provisioning must be 'warm' or "
            f"'cold', got {provisioning!r}"
        )
    cold = provisioning == "cold"
    flavour_param, count_param = backend_class.flavour_param, backend_class.count_param
    provisioned = backend_class.provision(
        context.cloud,
        upstream["logical_bytes"],
        param(*flavour_param) if flavour_param else None,
        int(param(*count_param)) if count_param else 0,
        cold=cold,
    )
    if cold and provisioned is not None:
        provisioned = yield provisioned
    operator = ShuffleSort(
        executor,
        bed_record_codec(),
        backend=backend_class.make_backend(provisioned, cost, stream),
    )
    try:
        result = yield operator.sort(
            upstream["bucket"],
            upstream["key"],
            out_bucket=context.bucket,
            out_prefix=f"{context.spec.name}",
            workers=workers,
        )
    finally:
        backend_class.release(provisioned)
    report = operator.report
    artifact = _sort_fields(result)
    artifact["substrate"] = report.substrate
    if stream is not None:
        artifact["mode"] = report.mode
    artifact["predicted_s"] = report.predicted_s
    artifact["actual_s"] = report.actual_s
    extras = backend_class.artifact_extras if stream is None else _STREAM_ARTIFACT
    for key, field in extras:
        artifact[key] = getattr(report, field)
    return artifact


def streaming_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Streaming :func:`_exchange_sort` on the ``substrate`` param's
    substrate (``objectstore`` default)."""
    return _exchange_sort(
        context, inputs, context.param("substrate", "objectstore"), "streaming"
    )


# ----------------------------------------------------------------------
# warm-run lineage cache (auto_sort)
# ----------------------------------------------------------------------
def _plan_value(value: t.Any) -> t.Any:
    """Coerce a stage param into the canonical hash encoding's domain."""
    if isinstance(value, (type(None), bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plan_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plan_value(item) for key, item in value.items()}
    return repr(value)


def _lineage_lookup(context: StageContext, upstream: dict) -> t.Generator:
    """HEAD the input and look up (input, plan) in the lineage cache.

    The fingerprint covers the input's identity (etag + logical size)
    and the stage's *plan* — its full param dict — but deliberately not
    the stage name: two differently-named stages sorting the same input
    the same way are the same computation, and a hit returns the prior
    output manifest without provisioning anything.  Priced at exactly
    the one HEAD (control-plane cost); a hit whose outputs were deleted
    or overwritten degrades to a miss.

    Returns ``(fingerprint, artifact-or-None)``.
    """
    store = context.cloud.store
    meta = yield store.head(upstream["bucket"], upstream["key"])
    fingerprint = LineageCache.fingerprint(
        {
            "bucket": upstream["bucket"],
            "key": upstream["key"],
            "etag": meta.etag,
            "logical_size": meta.logical_size,
        },
        {name: _plan_value(value) for name, value in context.params.items()},
    )
    cache = lineage_cache_for(store)
    entry = cache.get(fingerprint)
    if entry is not None and lineage_outputs_present(store, entry.artifact):
        entry.hits += 1
        artifact = dict(entry.artifact)
        artifact["lineage"] = "hit"
        artifact["lineage_hits"] = entry.hits
        return fingerprint, artifact
    return fingerprint, None


def _lineage_store(context: StageContext, fingerprint: str, artifact: dict) -> None:
    """Record a cold sort's artifact under its lineage fingerprint."""
    artifact["lineage"] = "miss"
    artifact["lineage_key"] = fingerprint[:16]
    lineage_cache_for(context.cloud.store).put(fingerprint, artifact)


def auto_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Adaptive sort: choose the exchange substrate at execution time.

    Calls :func:`~repro.shuffle.adaptive.choose_exchange_substrate` on
    the upstream dataset's logical size, pricing every substrate's
    staged sort with the calibrated workload constants the sort will
    execute with (a decision made for a faster imaginary workload could
    pick the wrong substrate outright).  Then runs :func:`_exchange_sort`
    on the chosen substrate with the decision's configuration (worker
    count, flavour, node/shard count) injected, so the stage executes
    exactly what was priced.  The decision — every substrate's priced
    estimate and the winner — is recorded in the stage artifact (and
    thereby the tracker report and Gantt label).

    Params: ``time_value_usd_per_hour`` (default 1.0 — the knob that
    trades latency against provisioned infrastructure), ``workers``
    (pin the count across all substrates; omit to let each plan its
    own), ``max_workers`` (the largest count a substrate may plan),
    ``cache_node_type`` (default cache.r5.large), plus ``memory_mb``
    passed through to the sort, which runs at the decision's count.
    """
    upstream = _single_input(inputs, context.spec.name)
    lineage_key, cached = yield from _lineage_lookup(context, upstream)
    if cached is not None:
        return cached
    decision = choose_exchange_substrate(
        upstream["logical_bytes"],
        context.cloud.profile,
        workers=context.param("workers"),
        cache_node_type=context.param("cache_node_type", "cache.r5.large"),
        time_value_usd_per_hour=float(
            context.param("time_value_usd_per_hour", 1.0)
        ),
        max_workers=int(context.param("max_workers", 256)),
        cost=_workload(context).shuffle_cost_model(),
    )
    chosen = decision.chosen
    # Execute exactly the configuration the estimate priced.
    backend_class = SUBSTRATES[chosen.substrate]
    overrides = {"workers": chosen.workers}
    if backend_class.flavour_param:
        overrides[backend_class.flavour_param[0]] = chosen.instance_type
    if backend_class.count_param:
        overrides[backend_class.count_param[0]] = chosen.shards
    artifact = yield from _exchange_sort(
        context, inputs, chosen.substrate, chosen.mode, overrides
    )
    artifact.update(
        substrate=chosen.substrate,
        substrate_mode=chosen.mode,
        substrate_workers=chosen.workers,
        substrate_predicted_s=chosen.predicted_s,
        substrate_provisioned_usd=chosen.provisioned_usd,
        substrate_score_usd=chosen.score_usd,
        substrate_decision=decision.describe(),
    )
    _lineage_store(context, lineage_key, artifact)
    return artifact


def vm_sort(context: StageContext, inputs: dict) -> t.Generator:
    """Configuration A: sort inside a large-memory VM.

    Params: ``instance_type`` (default bx2-8x32), ``partitions`` (output
    runs; default 8).  The download goes in
    :data:`VM_DOWNLOAD_CHUNK_BYTES` range GETs.

    The VM downloads the whole object with parallel ranged GETs, parses
    and sorts it in memory using all vCPUs, range-partitions the result
    and uploads the runs — then terminates.  Data still passes through
    object storage (the paper keeps COS as the data-passing mechanism in
    both pipelines); what changes is *where the all-to-all happens*.
    """
    upstream = _single_input(inputs, context.spec.name)
    instance_type = context.param("instance_type", "bx2-8x32")
    partitions = int(context.param("partitions", 8))
    chunk_real = max(1, int(VM_DOWNLOAD_CHUNK_BYTES / context.cloud.logical_scale))
    workload = _workload(context)
    bucket = context.bucket
    stage_name = context.spec.name

    vm = yield context.cloud.vms.provision(instance_type)

    def sort_task(vm_context) -> t.Generator:
        meta = yield vm_context.storage.head(upstream["bucket"], upstream["key"])
        size = meta.size

        # Parallel ranged download through the NIC-capped io slots.
        offsets = list(range(0, size, chunk_real)) or [0]
        chunks: dict[int, bytes] = {}

        def fetch(index: int, start: int) -> t.Generator:
            yield vm_context.io_slot().acquire()
            try:
                chunks[index] = yield vm_context.storage.get_range(
                    upstream["bucket"], upstream["key"], start,
                    min(size, start + chunk_real),
                )
            finally:
                vm_context.io_slot().release()

        fetchers = [
            vm_context.sim.process(fetch(index, start), name=f"vmfetch{index}")
            for index, start in enumerate(offsets)
        ]
        yield vm_context.sim.all_of([process.completion for process in fetchers])
        payload = b"".join(chunks[index] for index in sorted(chunks))

        # Parse + sort on all vCPUs (modeled CPU; real sort on real
        # data).  A torn last line is dropped, as it always was.
        ordered = kernels.sort_buffer(
            bed_record_codec(), payload[: payload.rfind(b"\n") + 1]
        ).output
        lengths = [len(line) + 1 for line in ordered.split(b"\n")[:-1]]
        vcpus = vm.instance_type.vcpus
        total_cpu = (
            len(payload) * vm_context.logical_scale / workload.vm_sort_throughput
        )
        workers = [vm_context.compute(total_cpu / vcpus) for _ in range(vcpus)]
        yield vm_context.sim.all_of(workers)

        # Range partitioning = equal-count contiguous slices of the
        # sorted buffer, cut by record length; upload the runs in parallel.
        run_puts = []
        run_infos = []
        base, remainder = divmod(len(lengths), partitions)
        cursor = offset = 0
        for reducer_id in range(partitions):
            count = base + (1 if reducer_id < remainder else 0)
            size = sum(lengths[cursor : cursor + count])
            body = ordered[offset : offset + size]
            cursor += count
            offset += size
            key = paths.shuffle_output_key(stage_name, reducer_id)
            run_puts.append((bucket, key, body))
            run_infos.append(
                {
                    "bucket": bucket,
                    "key": key,
                    "records": count,
                    "bytes": len(body),
                }
            )
        yield vm_context.parallel_put(run_puts)
        return run_infos

    started = context.sim.now
    run_infos = yield vm.run(sort_task, name="sort")
    vm.terminate()
    return {
        "runs": run_infos,
        "workers": partitions,
        "records": sum(info["records"] for info in run_infos),
        "duration_s": context.sim.now - started,
        "vm_type": instance_type,
    }


# ----------------------------------------------------------------------
# encode / verify stages
# ----------------------------------------------------------------------
def methcomp_encode(context: StageContext, inputs: dict) -> t.Generator:
    """Compress each sorted run with the METHCOMP codec (cloud functions).

    Params: ``memory_mb`` (default 2048).  Parallelism equals the number
    of runs produced by the sort stage (the paper's second stage is
    embarrassingly parallel over partitions).
    """
    upstream = _single_input(inputs, context.spec.name)
    memory_mb = int(context.param("memory_mb", 2048))
    executor = _function_executor(context, memory_mb)
    workload = _workload(context)
    tasks = [
        {
            "bucket": run["bucket"],
            "key": run["key"],
            "out_bucket": context.bucket,
            "out_key": f"{context.spec.name}/block{index:05d}.mcmp",
            "throughput_bps": workload.encode_throughput,
        }
        for index, run in enumerate(upstream["runs"])
    ]
    futures = yield executor.map(encode_worker, tasks)
    results = yield executor.get_result(futures)
    raw_bytes = sum(result["raw_bytes"] for result in results)
    compressed_bytes = sum(result["compressed_bytes"] for result in results)
    return {
        "blocks": [
            {"bucket": context.bucket, "key": result["out_key"],
             "records": result["records"]}
            for result in results
        ],
        "records": sum(result["records"] for result in results),
        "raw_bytes": raw_bytes,
        "compressed_bytes": compressed_bytes,
        "ratio": (raw_bytes / compressed_bytes) if compressed_bytes else 0.0,
        "workers": len(tasks),
    }


def methcomp_verify(context: StageContext, inputs: dict) -> t.Generator:
    """Decompress every block and check record conservation.

    Params: ``memory_mb``.  Fails the workflow if records were lost.
    """
    upstream = _single_input(inputs, context.spec.name)
    memory_mb = int(context.param("memory_mb", 2048))
    executor = _function_executor(context, memory_mb)
    workload = _workload(context)
    tasks = [
        {
            "bucket": block["bucket"],
            "key": block["key"],
            "out_bucket": context.bucket,
            "out_key": f"{context.spec.name}/restored{index:05d}.bed",
            "throughput_bps": workload.decode_throughput,
        }
        for index, block in enumerate(upstream["blocks"])
    ]
    futures = yield executor.map(decode_worker, tasks)
    results = yield executor.get_result(futures)
    restored = sum(result["records"] for result in results)
    expected = upstream["records"]
    if restored != expected:
        raise WorkflowError(
            f"verification failed: restored {restored} records, "
            f"expected {expected}"
        )
    return {"verified": True, "records": restored}


def _staged(substrate: str) -> t.Callable:
    return functools.partial(_exchange_sort, substrate=substrate, mode="staged")


#: The built-in stage kinds: the workflow vocabulary of this module.
BUILTIN_STAGE_KINDS: dict[str, t.Callable] = {
    "dataset_ref": dataset_ref,
    "shuffle_sort": _staged("objectstore"),
    "cache_sort": _staged("cache"),
    "relay_sort": _staged("relay"),
    "sharded_relay_sort": _staged("sharded-relay"),
    "streaming_sort": streaming_sort,
    "auto_sort": auto_sort,
    "vm_sort": vm_sort,
    "methcomp_encode": methcomp_encode,
    "methcomp_verify": methcomp_verify,
}


def register_builtin_stage_kinds() -> None:
    """Idempotently register :data:`BUILTIN_STAGE_KINDS`."""
    existing = set(registered_kinds())
    for kind, impl in BUILTIN_STAGE_KINDS.items():
        if kind not in existing:
            register_stage_kind(kind, impl)


register_builtin_stage_kinds()
