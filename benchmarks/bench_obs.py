"""Benchmark S15: observability overhead + exported trace artifacts.

The tracing plane claims *zero-cost-off* structurally (a disabled
tracer hands out one shared no-op span and records nothing) — the
tier-1 parity suites pin that byte-for-byte.  This bench quantifies
the *on* cost instead: the same S8-style ``auto_sort`` pipeline runs
``PAIRS`` times with span tracing enabled and ``PAIRS`` times with it
disabled, in traced/plain pairs in this one process, the side that
runs first alternating from pair to pair.  The median of the per-pair
ratios traced / plain must stay within ``OVERHEAD_GATE``, and a
traced run must produce the plain run's simulated outcome.  A pair
compares two neighbouring rounds, so a slow stretch of the host moves
both its sides, and the median sets aside the few pairs such a stretch
splits; a minimum over a handful of rounds instead reads the host's
round-to-round spread as overhead.  A round is timed by this process's
CPU time, not the wall clock: a concurrent process on a shared host
then cannot inflate one side by taking the CPU away mid-round.

The second test regenerates the CI observability artifacts: a
Perfetto-loadable Chrome trace (``results/s8_trace.json``) and a
Prometheus text snapshot (``results/s8_metrics.txt``) of one traced
pipeline, with the exporter's own validation and SLO gate holding.
"""

import json
import pathlib
import statistics
import time

from repro.cloud.environment import Cloud
from repro.core.calibration import ExperimentConfig
from repro.core.experiment import run_pipeline
from repro.core.pipelines import AUTO_SUPPORTED
from repro.obs.cli import export_metrics, export_trace

RESULTS = pathlib.Path(__file__).parent / "results"
PAIRS = 15
SCALE = 256.0
SEED = 2021
#: The median per-pair ratio of traced to untraced CPU time must stay
#: within this factor.
OVERHEAD_GATE = 1.05


def _run_once(observed):
    from repro.sim import Simulator

    config = ExperimentConfig(logical_scale=SCALE, seed=SEED)
    cloud = Cloud(
        Simulator(seed=config.seed, spans=observed),
        config.make_profile(),
    )
    start = time.process_time()
    run = run_pipeline(config, AUTO_SUPPORTED, cloud=cloud)
    elapsed = time.process_time() - start
    return run, cloud, elapsed


def _alternating_pairs():
    """``PAIRS`` traced/plain pairs, traced first in the even pairs and
    plain first in the odd ones.  Returns each side's CPU seconds in
    pair order and each side's last ``(run, cloud)``."""
    seconds = {True: [], False: []}
    last = {}
    for pair in range(PAIRS):
        for observed in (True, False) if pair % 2 == 0 else (False, True):
            run, cloud, elapsed = _run_once(observed)
            seconds[observed].append(elapsed)
            last[observed] = (run, cloud)
    return seconds, last


def _quartiles(values):
    """``(p25, median, p75)``."""
    return tuple(statistics.quantiles(values, n=4))


def test_tracing_overhead_is_bounded(record_result):
    seconds, last = _alternating_pairs()
    traced_run, traced_cloud = last[True]
    plain_run, _plain_cloud = last[False]
    ratios = [
        traced / plain for traced, plain in zip(seconds[True], seconds[False])
    ]
    low, overhead, high = _quartiles(ratios)

    tracer = traced_cloud.sim.tracer
    events = sum(len(span.events) for span in tracer.spans)
    header = (
        f"{'mode':<8} {'cpu_s p25':>9} {'p50':>7} {'p75':>7} "
        f"{'spans':>7} {'events':>7}"
    )
    rule = "-" * len(header)

    def side(name, values, spans, span_events):
        p25, p50, p75 = _quartiles(values)
        return (
            f"{name:<8} {p25:>9.3f} {p50:>7.3f} {p75:>7.3f} "
            f"{spans:>7} {span_events:>7}"
        )

    lines = [
        f"S15: observability overhead (auto_sort pipeline, {PAIRS} "
        "alternating traced/plain pairs)",
        header,
        rule,
        side("traced", seconds[True], len(tracer.spans), events),
        side("plain", seconds[False], 0, 0),
        rule,
        f"overhead: median pair ratio {overhead:.3f}x (quartiles "
        f"{low:.3f}-{high:.3f}; gate <= {OVERHEAD_GATE:.2f}x)",
    ]
    record_result("s15_obs", "\n".join(lines))

    # The traced run is a *view*, never a perturbation: identical
    # simulated outcome with the plane on and off.
    assert traced_run.latency_s == plain_run.latency_s
    assert traced_run.cost_usd == plain_run.cost_usd
    assert traced_run.stage_durations == plain_run.stage_durations

    # The trace itself is well-formed and non-trivial.
    assert tracer.validate() == []
    assert len(tracer.spans) > 30

    assert overhead <= OVERHEAD_GATE, (
        f"median tracing overhead {overhead:.3f}x exceeds {OVERHEAD_GATE:.2f}x"
    )


def test_trace_and_metrics_artifacts(record_result):
    RESULTS.mkdir(exist_ok=True)

    trace_path = RESULTS / "s8_trace.json"
    trace_summary = export_trace(str(trace_path), SCALE, SEED)
    assert trace_summary["problems"] == []
    payload = json.loads(trace_path.read_text(encoding="utf-8"))
    assert payload["traceEvents"], "empty Chrome trace"
    assert payload["displayTimeUnit"] == "ms"

    metrics_path = RESULTS / "s8_metrics.txt"
    metrics_summary = export_metrics(str(metrics_path), SCALE, SEED)
    exposition = metrics_path.read_text(encoding="utf-8")
    assert "# TYPE repro_exchange_sorts_total counter" in exposition
    assert "FAIL" not in metrics_summary["slo"]

    record_result(
        "s15_obs_artifacts",
        "\n".join(
            [
                "S15: exported observability artifacts",
                f"chrome trace:  {trace_path.name} "
                f"({trace_summary['spans']} spans, "
                f"{trace_summary['events']} span events, "
                f"{len(payload['traceEvents'])} events)",
                f"prometheus:    {metrics_path.name} "
                f"({metrics_summary['metrics']} metrics)",
                metrics_summary["slo"],
            ]
        ),
    )
