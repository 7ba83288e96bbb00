"""The four workloads: what one repetition runs and how it is checked.

Each workload drives the program only through public surfaces
(``run_table1``, sort-only ``WorkflowDag``s built with ``parse_spec``
from registered stage kinds, ``sweep_service`` / ``sweep_online``) on a
fresh ``Cloud(Simulator(seed), config.make_profile())`` per cell.  An
*op* is one pipeline / sort / job run; an exception, a digest mismatch,
an unsorted run or a lost record fails it, and the repetition carries
on with the next cell.

Why these four, which layer each stresses and which it bypasses, is in
``README.md`` and the ``why`` lines of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
import typing as t

from repro.cloud import Cloud
from repro.core import PURE_SERVERLESS, VM_SUPPORTED, ExperimentConfig, run_table1
from repro.core.experiment import dataset_payload
from repro.experiments.sweeps import sweep_online, sweep_service
from repro.methcomp.pipeline import bed_record_codec
from repro.obs.metrics import registry, reset_registry
from repro.sim import Simulator
from repro.workflows import WorkflowEngine, parse_spec

from spans import SpanRecorder

BUCKET = "pipeline"
INPUT_KEY = "input/methylome.bed"

#: ``CostLine.service`` → the per-layer dollar metric it feeds.
BILLING_METRICS = {
    "faas": "cloud.billing.faas_usd",
    "objectstore": "cloud.billing.objectstore_usd",
    "vm": "cloud.billing.vm_usd",
    "memstore": "cloud.billing.cache_usd",
}


@dataclasses.dataclass
class Op:
    """One pipeline / sort / job run and what it reported."""

    name: str
    sim_latency_s: float = 0.0
    sim_cost_usd: float = 0.0
    digest: str = ""
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclasses.dataclass
class Repetition:
    """Every cell of a workload run once."""

    ops: list[Op]
    #: The workload's simulated sums (see each workload's docstring).
    sim_latency_s: float = 0.0
    sim_cost_usd: float = 0.0
    #: Per-layer counts read from the program's public stats objects.
    counts: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host seconds the harness spent checking outputs (not the program's).
    check_s: float = 0.0

    @contextlib.contextmanager
    def checking(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - started

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value


# ----------------------------------------------------------------------
# output checks (warm-up repetition only)
# ----------------------------------------------------------------------
def _line_blocks(payload: bytes, block: int = 4 << 20) -> t.Iterator[list[bytes]]:
    """``payload``'s lines, a few MB at a time (bounds the check's memory)."""
    start = 0
    while start < len(payload):
        end = payload.rfind(b"\n", start, start + block) + 1
        if end <= start:  # a line longer than the block, or a torn tail
            end = len(payload)
        lines = payload[start:end].split(b"\n")
        if not lines[-1]:  # the block ended on a newline
            lines.pop()
        yield lines
        start = end


def _fingerprint(lines: t.Iterable[bytes]) -> int:
    """Order-free fingerprint of a bag of lines (process-local hashes)."""
    return sum(map(hash, lines)) & 0xFFFFFFFFFFFFFFFF


@dataclasses.dataclass
class InputFacts:
    """What the checks need to know about a generated payload."""

    records: int
    fingerprint: int

    @classmethod
    def of(cls, payload: bytes) -> "InputFacts":
        records = 0
        fingerprint = 0
        for lines in _line_blocks(payload):
            records += len(lines)
            fingerprint = (fingerprint + _fingerprint(lines)) & 0xFFFFFFFFFFFFFFFF
        return cls(records, fingerprint)


def check_sorted_runs(runs: t.Iterable[bytes], facts: InputFacts) -> tuple[str, str]:
    """``(digest, error)`` of a sort's output runs, in partition order.

    Independent of the sweeps' own gates: the concatenated runs must hold
    exactly the input's records (count and order-free fingerprint) with
    non-decreasing ``bed_record_codec()`` keys.  The digest is the same
    sha256-over-runs prefix ``repro.cas.output_digest`` prints.
    """
    codec = bed_record_codec()
    digest = hashlib.sha256()
    records = 0
    fingerprint = 0
    last_key = None
    error = ""
    for data in runs:
        digest.update(data)
        for lines in _line_blocks(data):
            if not lines:
                continue
            keys = [codec.key(line) for line in lines]
            if keys != sorted(keys) or (last_key is not None and keys[0] < last_key):
                error = error or "unsorted run"
            last_key = keys[-1]
            records += len(lines)
            fingerprint = (fingerprint + _fingerprint(lines)) & 0xFFFFFFFFFFFFFFFF
    if not error and records != facts.records:
        error = f"lost record: {records} out, {facts.records} in"
    if not error and fingerprint != facts.fingerprint:
        error = "output records differ from the input's"
    return digest.hexdigest()[:16], error


def require_equal_digests(ops: t.Sequence[Op]) -> None:
    """Fail every op whose digest differs from the first unfailed op's."""
    reference = next((op.digest for op in ops if not op.failed), None)
    for op in ops:
        if not op.failed and op.digest != reference:
            op.error = f"digest mismatch: {op.digest} != {reference}"


# ----------------------------------------------------------------------
# counts from the program's public stats objects
# ----------------------------------------------------------------------
def add_cloud_counts(rep: Repetition, cloud: Cloud) -> None:
    """Fold one region's service counters and bill into ``rep.counts``."""
    store = cloud.store.stats
    rep.add("cloud.objectstore.requests", store.total_requests)
    rep.add("cloud.objectstore.gets", store.gets)
    rep.add("cloud.objectstore.puts", store.puts)
    rep.add("cloud.objectstore.bytes_out_mb", store.bytes_out / 1e6)
    rep.add("cloud.objectstore.dedup_ops", store.dedup_ops)
    rep.add("cloud.objectstore.slowdowns", store.slowdowns)
    faas = cloud.faas.stats
    rep.add("cloud.faas.invocations", faas.invocations)
    rep.add("cloud.faas.cold_starts", faas.cold_starts)
    rep.add("cloud.faas.failed", faas.timeouts + faas.crashes + faas.errors)
    rep.add("cloud.faas.billed_gb_s", faas.billed_gb_seconds)
    for cluster in cloud.cache.clusters.values():
        totals = cluster.stats_totals()
        rep.add(
            "cloud.memstore.ops",
            totals.get("sets", 0) + totals.get("gets", 0) + totals.get("deletes", 0),
        )
        rep.add("cloud.memstore.evictions", totals.get("evictions", 0))
        rep.add("cloud.memstore.dedup_restores", totals.get("dedup_restores", 0))
    # The whole meter, so the off-clock staging PUT is in these dollars
    # (a few 1e-6 $) though not in ``sim_cost_usd``.
    for service, usd in cloud.meter.total_by_service().items():
        rep.add(BILLING_METRICS.get(service, "cloud.billing.other_usd"), usd)


#: Relay counters the program folds into its process-wide metrics
#: registry when a relay VM terminates (the relay object itself is
#: deregistered then) → the per-layer metric each feeds, and its scale.
REGISTRY_COUNTERS = {
    "repro_relay_bytes_in_total": ("cloud.vm.relay_in_mb", 1e-6),
    "repro_relay_bytes_out_total": ("cloud.vm.relay_out_mb", 1e-6),
    "repro_relay_backpressure_waits_total": ("cloud.vm.backpressure_waits", 1.0),
    "repro_relay_rendezvous_waits_total": ("cloud.vm.rendezvous_waits", 1.0),
}


def add_registry_counts(rep: Repetition) -> None:
    """Relay counters since the last ``reset_registry()``.

    The registry is the program's own cross-run aggregate, so unlike the
    per-region stats it also sees the regions the sweeps build.
    """
    for name, (metric, scale) in REGISTRY_COUNTERS.items():
        counter = registry().get(name)
        if counter is not None:
            rep.add(metric, sum(value for _labels, value in counter.samples()) * scale)


def add_sort_artifact_counts(rep: Repetition, artifact: dict) -> None:
    """Streaming observables off a sort stage artifact (zero when staged)."""
    rep.add("shuffle.streaming.overlap_s", artifact.get("overlap_s") or 0.0)
    rep.add(
        "shuffle.streaming.backpressure_waits",
        artifact.get("buffer_backpressure_waits") or 0,
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Base: ``setup`` once per process, then ``repetition`` many times."""

    name: str

    def setup(self, seed: int) -> None:
        """Generate inputs from ``seed`` (off the timed clock)."""
        raise NotImplementedError

    def repetition(self, spans: SpanRecorder, check: bool) -> Repetition:
        """Run every cell once; ``check`` adds the output checks."""
        reset_registry()
        rep = self._cells(spans, check)
        add_registry_counts(rep)
        return rep

    def _cells(self, spans: SpanRecorder, check: bool) -> Repetition:
        raise NotImplementedError


class Table1(Workload):
    """``run_table1`` — both paper configurations, sort + encode.

    ``sim_latency_s`` = serverless + VM latency, ``sim_cost_usd`` = the
    sum of both bills.  The checked repetition runs with ``verify=True``
    (an extra decode stage), so its simulated numbers are not compared
    with the timed repetitions'.
    """

    name = "table1"
    logical_scale = 1024.0

    def setup(self, seed: int) -> None:
        self.config = ExperimentConfig(logical_scale=self.logical_scale, seed=seed)
        self.facts: InputFacts | None = None

    def _cells(self, spans: SpanRecorder, check: bool) -> Repetition:
        try:
            with spans.span("run_table1", verify=check):
                result = run_table1(self.config, verify=check)
        except Exception as exc:  # the op boundary: record and carry on
            return Repetition(
                [Op(name, error=repr(exc)) for name in (PURE_SERVERLESS, VM_SUPPORTED)]
            )
        runs = (result.serverless, result.vm)
        rep = Repetition(
            [Op(run.variant, run.latency_s, run.cost_usd) for run in runs],
            sim_latency_s=sum(run.latency_s for run in runs),
            sim_cost_usd=sum(run.cost_usd for run in runs),
        )
        for run in runs:
            add_cloud_counts(rep, run.cloud)
            add_sort_artifact_counts(rep, run.workflow.artifacts["sort"])
            rep.add("core.sort.sim_s", run.stage_durations["sort"])
            rep.add("core.encode.sim_s", run.stage_durations["encode"])
            rep.add("methcomp.codec.ratio", run.compression_ratio / len(runs))
        rep.counts["core.paper_latency_err_pct"] = max(
            abs(row["latency_s"] - row["paper_latency_s"]) / row["paper_latency_s"] * 100.0
            for row in result.rows()
        )
        rep.counts["core.paper_cost_ratio"] = result.cost_ratio
        if check:
            with rep.checking():
                self._check(rep, runs, spans)
        return rep

    def _check(self, rep: Repetition, runs: tuple, spans: SpanRecorder) -> None:
        if self.facts is None:
            self.facts = InputFacts.of(dataset_payload(self.config))
        for op, run in zip(rep.ops, runs):
            with spans.span("digest", op=op.name):
                op.digest, op.error = check_sorted_runs(
                    (
                        run.cloud.store.peek(item["bucket"], item["key"])
                        for item in run.workflow.artifacts["sort"]["runs"]
                    ),
                    self.facts,
                )
            if not op.failed and not run.workflow.artifacts["verify"]["verified"]:
                op.error = "methcomp_verify did not verify"
        require_equal_digests(rep.ops)


@dataclasses.dataclass(frozen=True)
class SortCell:
    """One sort-only DAG: ``dataset_ref`` → one sort stage kind."""

    name: str
    kind: str
    params: dict

    def dag(self):
        return parse_spec(
            {
                "name": self.name,
                "bucket": BUCKET,
                "stages": [
                    {"name": "ingest", "kind": "dataset_ref",
                     "params": {"key": INPUT_KEY}},
                    {"name": "sort", "kind": self.kind, "after": ["ingest"],
                     "params": {"memory_mb": 2048, "max_workers": 256, **self.params}},
                ],
            }
        )


class SortCells(Workload):
    """Sort-only DAGs over one pre-generated payload.

    The payload is generated in ``setup`` and PUT into each cell's fresh
    region before its simulated clock starts; ``sim_latency_s`` and
    ``sim_cost_usd`` are sums over the cells (workflow makespan; the
    bill after ``cloud.finalize()``, staging excluded).
    """

    logical_scale: float
    cells: tuple[SortCell, ...]

    def setup(self, seed: int) -> None:
        self.config = ExperimentConfig(logical_scale=self.logical_scale, seed=seed)
        self.payload = dataset_payload(self.config)
        self.facts: InputFacts | None = None

    def _cells(self, spans: SpanRecorder, check: bool) -> Repetition:
        rep = Repetition([])
        if check and self.facts is None:
            with rep.checking():
                self.facts = InputFacts.of(self.payload)
        for cell in self.cells:
            op = Op(cell.name)
            rep.ops.append(op)
            try:
                with spans.span("cell", op=cell.name):
                    self._run_cell(cell, op, rep, spans, check)
            except Exception as exc:  # the op boundary: record and carry on
                op.error = repr(exc)
        rep.sim_latency_s = sum(op.sim_latency_s for op in rep.ops)
        rep.sim_cost_usd = sum(op.sim_cost_usd for op in rep.ops)
        if check:
            require_equal_digests(rep.ops)
        return rep

    def _run_cell(
        self, cell: SortCell, op: Op, rep: Repetition, spans: SpanRecorder, check: bool
    ) -> None:
        config = self.config
        cloud = Cloud(Simulator(seed=config.seed), config.make_profile())
        with spans.span("stage_input"):
            cloud.store.ensure_bucket(BUCKET)

            def upload() -> t.Generator:
                yield cloud.store.put(BUCKET, INPUT_KEY, self.payload)

            cloud.sim.run_process(upload())
        engine = WorkflowEngine(cloud, cell.dag())
        engine.workload = config.workload
        marker = cloud.meter.snapshot()
        with spans.span("engine.execute"):
            result = engine.execute()
        cloud.finalize()
        op.sim_latency_s = result.makespan_s
        op.sim_cost_usd = cloud.meter.since(marker).total_usd
        artifact = result.artifacts["sort"]
        add_cloud_counts(rep, cloud)
        add_sort_artifact_counts(rep, artifact)
        if check:
            with rep.checking(), spans.span("digest"):
                op.digest, op.error = check_sorted_runs(
                    (cloud.store.peek(run["bucket"], run["key"]) for run in artifact["runs"]),
                    t.cast(InputFacts, self.facts),
                )


class Fanout(SortCells):
    """Object-store sorts at high fan-out: W² range-GETs, tiny bytes."""

    name = "fanout"
    logical_scale = 1024.0
    cells = (
        SortCell("shuffle-w64", "shuffle_sort", {"workers": 64}),
        SortCell("shuffle-w128", "shuffle_sort", {"workers": 128}),
        # Manifest polling instead of bulk GET fan-in.  Kept at W=16: the
        # object-store streaming sort livelocks above W=24 (README).
        SortCell(
            "stream-objectstore-w16",
            "streaming_sort",
            {"substrate": "objectstore", "workers": 16},
        ),
    )


class Dataplane(SortCells):
    """W=8 sorts on four substrates, two modes, at byte parity."""

    name = "dataplane"
    logical_scale = 256.0
    cells = (
        SortCell("shuffle", "shuffle_sort", {"workers": 8}),
        SortCell("cache", "cache_sort", {"workers": 8}),
        SortCell(
            "stream-relay", "streaming_sort", {"substrate": "relay", "workers": 8}
        ),
        SortCell(
            "stream-sharded-relay",
            "streaming_sort",
            {"substrate": "sharded-relay", "workers": 8},
        ),
    )


def _p95(values: t.Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-95 * len(ordered) // 100) - 1)] if ordered else 0.0


class Control(Workload):
    """``sweep_service`` then ``sweep_online``: the control plane.

    ops = service + per-job job rows, plus every online row.
    ``sim_latency_s`` = the service's ``p95_latency_s`` + the online
    operator's ``sort_latency_s`` through the brownout; ``sim_cost_usd``
    = the service's ``total_usd`` + the online row's ``score_usd``.
    The sweeps build their own regions, so the per-region ``cloud.*``
    request counts are not visible here; the dollars come from the sweep
    rows and the relay counters from the metrics registry.
    """

    name = "control"
    logical_scale = 4096.0
    #: Rows each sweep returns an op for: 5 arrivals × 2 strategies; the
    #: online row, 8 static cells and the reroute row.
    service_ops = 10
    online_ops = 10

    def setup(self, seed: int) -> None:
        self.config = ExperimentConfig(logical_scale=self.logical_scale, seed=seed)

    def _cells(self, spans: SpanRecorder, check: bool) -> Repetition:
        rep = Repetition([])
        self._service(rep, spans, check)
        self._online(rep, spans, check)
        return rep

    def _service(self, rep: Repetition, spans: SpanRecorder, check: bool) -> None:
        try:
            with spans.span("sweep_service"):
                rows = sweep_service(self.config)
        except Exception as exc:  # the op boundary: record and carry on
            rep.ops += [
                Op(f"service-{index}", error=repr(exc)) for index in range(self.service_ops)
            ]
            return
        jobs = [row for row in rows if row["kind"] == "job"]
        ops = [
            Op(f"{row['strategy']}:{row['job']}", row["latency_s"], digest=row["output_digest"])
            for row in jobs
        ]
        rep.ops += ops
        totals = {row["strategy"]: row for row in rows if row["kind"] == "total"}
        service = totals["service"]
        rep.sim_latency_s += service["p95_latency_s"]
        rep.sim_cost_usd += service["total_usd"]
        served = [row for row in jobs if row["strategy"] == "service"]
        rep.counts["service.jobs"] = len(served)
        rep.counts["service.queue_wait_p95_s"] = _p95([row["wait_s"] for row in served])
        rep.counts["service.scale_events"] = service["scale_ups"] + service["scale_downs"]
        for total in totals.values():
            rep.add("cloud.billing.faas_usd", total["faas_usd"])
            rep.add("cloud.billing.vm_usd", total["fleet_usd"])
        if check:
            by_job: dict[str, list[Op]] = {}
            for op, row in zip(ops, jobs):
                by_job.setdefault(row["job"], []).append(op)
            for pair in by_job.values():
                if len(pair) != 2:
                    pair[0].error = "job missing from one strategy"
                require_equal_digests(pair)

    def _online(self, rep: Repetition, spans: SpanRecorder, check: bool) -> None:
        try:
            with spans.span("sweep_online"):
                rows = sweep_online(self.config)
        except Exception as exc:  # the op boundary: record and carry on
            rep.ops += [
                Op(f"online-{index}", error=repr(exc)) for index in range(self.online_ops)
            ]
            return
        ops = [
            Op(
                f"{row['scenario']}:{row['strategy']}:{row['mode']}",
                row["sort_latency_s"],
                row["score_usd"],
                row["output_digest"],
            )
            for row in rows
        ]
        rep.ops += ops
        online = next(
            row for row in rows if row["scenario"] == "shift" and row["strategy"] == "online"
        )
        rep.sim_latency_s += online["sort_latency_s"]
        rep.sim_cost_usd += online["score_usd"]
        rep.counts["shuffle.online.switches"] = sum(row["switches"] for row in rows)
        rep.counts["shuffle.online.reroutes"] = sum(row["reroutes"] for row in rows)
        if check:
            require_equal_digests(
                [op for op, row in zip(ops, rows) if row["scenario"] == "shift"]
            )
            for op, row in zip(ops, rows):
                if not op.failed and row["peak_fill"] > 1.0:
                    op.error = f"relay over-filled: peak_fill={row['peak_fill']}"


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Table1, Fanout, Dataplane, Control)
}
