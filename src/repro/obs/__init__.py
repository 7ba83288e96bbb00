"""Unified observability plane: tracing, metrics, exporters, SLO gates.

One coherent surface over what used to be ad-hoc ones (the workflow
:class:`~repro.workflows.tracker.JobTracker`, ``ExchangeReport.extra``,
the online sort's :class:`~repro.shuffle.adaptive.DecisionTimeline`,
and :class:`~repro.cloud.billing.CostMeter` tags):

* :mod:`repro.obs.trace` — the run's one trace: a span tracer carried on
  the simulator (``sim.tracer``) and through every
  :class:`~repro.cloud.faas.context.FunctionContext`, whose tree holds
  sorts, waves and attempts, and whose roots include one lifetime span
  per billed VM and cache cluster (what the Gantt chart draws);
* :mod:`repro.obs.metrics` — the process-wide registry of
  counters/gauges/histograms that backends and the
  :class:`~repro.service.exchange_service.ExchangeService` publish into;
* :mod:`repro.obs.export` — Chrome trace-event JSON (opens in Perfetto)
  and Prometheus text exposition;
* :mod:`repro.obs.slo` — declarative SLO checks evaluated from the
  registry, asserted by sweeps and benches through one gate.

Tracing is **zero-cost-off**: every tracer operation is pure
interpreter-side bookkeeping (stamp ``sim.now``, append to a list) and
never schedules simulation events, yields, or consumes RNG — so chaos,
speculation and cross-substrate parity matrices are byte-identical with
``REPRO_TRACE=1`` and unset.
"""

from repro.obs.metrics import MetricsRegistry, registry, reset_registry
from repro.obs.slo import SloGate, SloViolation
from repro.obs.trace import NOOP_SPAN, Span, TraceError, Tracer

__all__ = [
    "MetricsRegistry",
    "NOOP_SPAN",
    "SloGate",
    "SloViolation",
    "Span",
    "TraceError",
    "Tracer",
    "registry",
    "reset_registry",
]
