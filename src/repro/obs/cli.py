"""Observability CLI helpers.

Back the ``repro-experiments trace`` and ``repro-experiments metrics``
subcommands: run one S8-style ``auto_sort`` pipeline with span tracing
enabled, then export the run as a Perfetto-loadable Chrome trace or a
Prometheus text snapshot.  The same
helpers produce the CI trace artifact and the S15 bench inputs.

Kept separate from :mod:`repro.experiments.cli` so the exporters are
importable without argparse, and imported lazily there so ``repro.obs``
stays dependency-free for the simulator core.
"""

from __future__ import annotations

import typing as t

from repro.obs.export import write_chrome_trace, write_prometheus_text
from repro.obs.metrics import reset_registry
from repro.obs.slo import SloGate


def run_traced_pipeline(
    logical_scale: float = 256.0,
    seed: int = 2021,
    variant: str | None = None,
):
    """Run one pipeline with span tracing on; return (run, cloud).

    The metrics registry is reset first so the snapshot describes this
    run alone.  Defaults to the adaptive (``auto_sort``) incarnation —
    the S8 shape: substrate decision, sort waves, encode stage.
    """
    from repro.cloud.environment import Cloud
    from repro.core.calibration import ExperimentConfig
    from repro.core.experiment import run_pipeline
    from repro.core.pipelines import AUTO_SUPPORTED
    from repro.sim import Simulator

    if variant is None:
        variant = AUTO_SUPPORTED
    config = ExperimentConfig(logical_scale=logical_scale, seed=seed)
    cloud = Cloud(
        Simulator(seed=config.seed, spans=True),
        config.make_profile(),
    )
    reset_registry()
    run = run_pipeline(config, variant, cloud=cloud)
    return run, cloud


def export_trace(
    path: str, logical_scale: float = 256.0, seed: int = 2021
) -> dict[str, t.Any]:
    """Export one traced pipeline run as Chrome trace-event JSON."""
    run, cloud = run_traced_pipeline(logical_scale, seed)
    tracer = cloud.sim.tracer
    write_chrome_trace(path, tracer)
    return {
        "path": path,
        "spans": len(tracer.spans),
        "events": sum(len(span.events) for span in tracer.spans),
        "problems": tracer.validate(),
        "latency_s": run.latency_s,
        "cost_usd": run.cost_usd,
    }


def export_metrics(
    path: str, logical_scale: float = 256.0, seed: int = 2021
) -> dict[str, t.Any]:
    """Export one traced pipeline run's registry as Prometheus text.

    Also evaluates the run's SLO gate (prediction envelope on the sort
    stage) and reports its verdicts alongside the snapshot path.
    """
    from repro.obs.metrics import registry

    run, cloud = run_traced_pipeline(logical_scale, seed)
    write_prometheus_text(path, registry())
    gate = SloGate("pipeline")
    sort = run.workflow.tracker.reports.get("sort")
    if sort is not None:
        # A sort runs at the worker count it is given and predicts
        # nothing itself (predicted_s=None); the prediction is the
        # substrate decision's estimate.
        predicted = sort.detail.get("substrate_predicted_s")
        gate.prediction_envelope(
            "sort-prediction",
            predicted,
            sort.detail.get("actual_s", sort.duration_s),
        )
    return {
        "path": path,
        "metrics": len(registry().names()),
        "slo": gate.describe(),
        "latency_s": run.latency_s,
        "cost_usd": run.cost_usd,
    }
