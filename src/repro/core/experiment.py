"""Experiment harness: stage data, run a pipeline, measure Table 1.

The measurement protocol mirrors the paper's demo:

1. the input dataset is staged into object storage *before* the clock
   starts (ENCFF988BSW already lives in COS);
2. the pipeline (sort + encode) runs; **end-to-end latency includes
   startup times** (function cold starts, VM provisioning);
3. cost subsumes cloud functions, storage requests and — for the hybrid
   variant — VM execution time and storage volume.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cloud.environment import Cloud
from repro.core import stages as _stages  # noqa: F401 - registers stage kinds
from repro.core.calibration import ExperimentConfig
from repro.core.pipelines import (
    CACHE_SUPPORTED,
    PURE_SERVERLESS,
    RELAY_SUPPORTED,
    VM_SUPPORTED,
    pipeline_for,
)
from repro.methcomp.datagen import methylome_payload
from repro.sim import Simulator
from repro.workflows.engine import WorkflowEngine, WorkflowResult


@dataclasses.dataclass(slots=True)
class PipelineRun:
    """Measured outcome of one pipeline execution."""

    variant: str
    latency_s: float
    cost_usd: float
    stage_durations: dict[str, float]
    stage_costs: dict[str, float]
    workflow: WorkflowResult
    cloud: Cloud

    @property
    def sort_workers(self) -> int:
        return self.workflow.artifacts["sort"]["workers"]

    @property
    def compression_ratio(self) -> float:
        return self.workflow.artifacts["encode"]["ratio"]


def dataset_payload(config: ExperimentConfig) -> bytes:
    """The experiment's input payload under its configured key law.

    ``key_distribution="uniform"`` is the historical chromosome-weighted
    methylome; the skewed laws (``zipf``/``heavy-dup``/``sorted-runs``/
    ``late-hot``) concentrate genomic keys so sort partitions — and
    therefore every exchange substrate — see hot ranges (experiments
    S11 and S12).
    """
    return methylome_payload(
        config.real_bytes,
        config.seed,
        config.key_distribution,
        config.zipf_s,
        config.skew_distinct_keys,
        False,
    )


def stage_input(cloud: Cloud, config: ExperimentConfig, bucket: str, key: str) -> None:
    """Pre-stage the synthetic ENCFF988BSW-like dataset (off the clock)."""
    payload = dataset_payload(config)
    cloud.store.ensure_bucket(bucket)

    def upload() -> t.Generator:
        yield cloud.store.put(bucket, key, payload)

    cloud.sim.run_process(upload())


def run_pipeline(
    config: ExperimentConfig,
    variant: str,
    verify: bool = False,
    cloud: Cloud | None = None,
) -> PipelineRun:
    """Stage data and execute one pipeline variant, measuring Table 1 rows."""
    if cloud is None:
        profile = config.make_profile()
        cloud = Cloud(Simulator(seed=config.seed), profile)
    bucket = "pipeline"
    input_key = "input/methylome.bed"
    stage_input(cloud, config, bucket, input_key)

    dag = pipeline_for(variant, config, input_key=input_key, bucket=bucket,
                       verify=verify)
    engine = WorkflowEngine(cloud, dag)
    engine.workload = config.workload  # used by the stage implementations

    marker = cloud.meter.snapshot()
    started = cloud.sim.now
    result = t.cast(WorkflowResult, cloud.sim.run(until=engine.run()))
    latency = cloud.sim.now - started
    cloud.finalize()
    cost = cloud.meter.since(marker).total_usd

    reports = result.tracker.reports
    return PipelineRun(
        variant=variant,
        latency_s=latency,
        cost_usd=cost,
        stage_durations={
            name: report.duration_s
            for name, report in reports.items()
            if report.duration_s is not None
        },
        stage_costs=result.tracker.cost_breakdown(),
        workflow=result,
        cloud=cloud,
    )


@dataclasses.dataclass(slots=True)
class Table1Result:
    """Both configurations, side by side (paper Table 1)."""

    serverless: PipelineRun
    vm: PipelineRun
    config: ExperimentConfig

    #: Paper-reported values for the reference column.
    PAPER_LATENCY = {PURE_SERVERLESS: 83.32, VM_SUPPORTED: 142.77}
    PAPER_COST = {PURE_SERVERLESS: 0.008, VM_SUPPORTED: 0.010}

    @property
    def latency_speedup(self) -> float:
        """How much faster the purely serverless pipeline is."""
        return self.vm.latency_s / self.serverless.latency_s

    @property
    def cost_ratio(self) -> float:
        """Serverless-to-VM cost ratio (paper: 0.8)."""
        return self.serverless.cost_usd / self.vm.cost_usd

    def rows(self) -> list[dict[str, t.Any]]:
        out = []
        for run in (self.serverless, self.vm):
            out.append(
                {
                    "configuration": run.variant,
                    "latency_s": run.latency_s,
                    "cost_usd": run.cost_usd,
                    "paper_latency_s": self.PAPER_LATENCY[run.variant],
                    "paper_cost_usd": self.PAPER_COST[run.variant],
                }
            )
        return out

    def to_table(self) -> str:
        lines = [
            "Table 1: METHCOMP pipeline performance "
            f"({self.config.size_gb:g} GB input, parallelism "
            f"{self.config.parallelism})",
            f"{'Configuration':<22} {'Latency (s)':>12} {'Cost ($)':>10} "
            f"{'Paper (s)':>12} {'Paper ($)':>10}",
            "-" * 70,
        ]
        for row in self.rows():
            lines.append(
                f"{row['configuration']:<22} {row['latency_s']:>12.2f} "
                f"{row['cost_usd']:>10.4f} {row['paper_latency_s']:>12.2f} "
                f"{row['paper_cost_usd']:>10.3f}"
            )
        lines.append("-" * 70)
        lines.append(
            f"serverless speedup: {self.latency_speedup:.2f}x (paper: "
            f"{142.77 / 83.32:.2f}x); cost ratio: {self.cost_ratio:.2f} "
            f"(paper: {0.008 / 0.010:.2f})"
        )
        return "\n".join(lines)


def run_table1(config: ExperimentConfig | None = None, verify: bool = False) -> Table1Result:
    """Regenerate Table 1: run both configurations on fresh regions."""
    config = config if config is not None else ExperimentConfig()
    serverless = run_pipeline(config, PURE_SERVERLESS, verify=verify)
    vm = run_pipeline(config, VM_SUPPORTED, verify=verify)
    return Table1Result(serverless=serverless, vm=vm, config=config)


@dataclasses.dataclass(slots=True)
class ExchangeComparison:
    """All four data-exchange strategies, side by side (experiment S8).

    Extends the paper's two-way Table 1 with the two provisioned
    alternatives it names but does not measure: the in-memory cache
    cluster and the VM-hosted partition relay both win the latency of
    the all-to-all but pay provisioned node/instance-hours for it,
    while object storage stays the cheapest always-on option.
    """

    serverless: PipelineRun
    vm: PipelineRun
    cache: PipelineRun
    relay: PipelineRun
    config: ExperimentConfig

    def runs(self) -> list[PipelineRun]:
        return [self.serverless, self.vm, self.cache, self.relay]

    def to_table(self) -> str:
        lines = [
            "Experiment S8: data-exchange strategies "
            f"({self.config.size_gb:g} GB input, parallelism "
            f"{self.config.parallelism})",
            f"{'Configuration':<22} {'Latency (s)':>12} {'Cost ($)':>10} "
            f"{'Sort (s)':>10} {'Sort ($)':>10}",
            "-" * 70,
        ]
        for run in self.runs():
            lines.append(
                f"{run.variant:<22} {run.latency_s:>12.2f} "
                f"{run.cost_usd:>10.4f} "
                f"{run.stage_durations.get('sort', float('nan')):>10.2f} "
                f"{run.stage_costs.get('sort', float('nan')):>10.4f}"
            )
        lines.append("-" * 70)
        return "\n".join(lines)


def run_exchange_comparison(
    config: ExperimentConfig | None = None, verify: bool = False
) -> ExchangeComparison:
    """Run all four strategies on fresh regions (experiment S8)."""
    config = config if config is not None else ExperimentConfig()
    return ExchangeComparison(
        serverless=run_pipeline(config, PURE_SERVERLESS, verify=verify),
        vm=run_pipeline(config, VM_SUPPORTED, verify=verify),
        cache=run_pipeline(config, CACHE_SUPPORTED, verify=verify),
        relay=run_pipeline(config, RELAY_SUPPORTED, verify=verify),
        config=config,
    )
