"""ASCII Gantt charts of simulated pipeline executions.

The paper demos an IPython job-tracking interface showing workflow
progress in real time.  :mod:`repro.workflows.tracker` covers the
numbers; this module covers the *picture*: where the time went, drawn
from the run's span tracer (:mod:`repro.obs.trace`) —

* one bar per function activation (cold starts marked), so a stage's
  fan-out, stragglers and speculation duplicates are visible at a
  glance;
* one bar per VM and per cache cluster, spanning its billed lifetime
  (provision call to terminate), making the hybrid pipeline's
  provisioning penalty impossible to miss;
* one bar per shuffle *wave* (map / reduce), so the streaming mode's
  wave overlap — and the staged mode's hard barrier — are visible
  directly;
* one bar per workflow stage (from the tracker), giving the chart its
  coarse structure.

Requires the simulator to record spans (``Simulator(spans=True)`` or
``REPRO_TRACE=1``); with tracing off only the stage bars remain.
"""

from __future__ import annotations

import dataclasses
import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import Tracer
    from repro.workflows.tracker import JobTracker


@dataclasses.dataclass(frozen=True, slots=True)
class GanttSpan:
    """One horizontal bar on the chart."""

    label: str
    start: float
    end: float
    kind: str  # "stage" | "function" | "function-cold" | "vm" | "cache" | "wave"


#: Bar glyph per span kind (cold activations render distinctly).
_GLYPHS = {
    "stage": "=",
    "function": "#",
    "function-cold": "#",
    "vm": "%",
    "cache": "~",
    "wave": "+",
}


#: Wave spans drawn as bars (the sample wave is not one), by span name.
_WAVES = {"wave:map": "map", "wave:reduce": "reduce"}


def spans_from_tracer(tracer: Tracer) -> list[GanttSpan]:
    """Function, VM, cache and wave bars from a run's ended spans.

    An ``attempt`` span is one activation's execution (cold starts
    flagged); a ``vm`` or ``cache`` span is one instance's or cluster's
    billed lifetime; ``wave:map`` / ``wave:reduce`` are one sort's waves.
    A span still open when the chart is drawn has no end to draw.
    """
    spans: list[GanttSpan] = []
    for span in tracer.spans:
        if span.end_s is None:
            continue
        attrs = span.attributes
        if span.category == "attempt":
            label = f"{span.name}.{attrs['activation']}"
            kind = "function-cold" if attrs["cold"] else "function"
        elif span.category in ("vm", "cache"):
            label, kind = f"{span.name} ({attrs['type']})", span.category
        elif span.name in _WAVES:
            label, kind = f"{_WAVES[span.name]} wave [{attrs['job']}]", "wave"
        else:
            continue
        spans.append(GanttSpan(label, span.start_s, span.end_s, kind))
    spans.sort(key=lambda span: (span.start, span.end, span.label))
    return spans


def spans_from_tracker(tracker: "JobTracker") -> list[GanttSpan]:
    """One span per finished workflow stage.

    A stage that recorded a substrate decision (the adaptive
    ``auto_sort`` kind) carries the chosen substrate in its label, so
    the Gantt chart shows *where* the exchange ran, not just when.
    """
    spans = []
    for report in tracker.reports.values():
        if report.started_at is None or report.finished_at is None:
            continue
        label = f"[{report.name}]"
        substrate = report.detail.get("substrate")
        if substrate:
            label = f"[{report.name}→{substrate}]"
            # A streaming-mode sort names its mode too, so the chart
            # says not just where the exchange ran but how.
            mode = report.detail.get(
                "substrate_mode", report.detail.get("mode")
            )
            if mode and mode != "staged":
                label = f"[{report.name}→{substrate} {mode}]"
        spans.append(
            GanttSpan(
                label=label,
                start=report.started_at,
                end=report.finished_at,
                kind="stage",
            )
        )
    spans.sort(key=lambda span: (span.start, span.end, span.label))
    return spans


def render_gantt(
    spans: t.Sequence[GanttSpan],
    width: int = 64,
    label_width: int = 28,
    max_rows: int = 48,
    title: str | None = None,
) -> str:
    """Draw spans as fixed-width ASCII rows on a shared time axis.

    When there are more spans than ``max_rows``, the busiest middle is
    elided (the first and last rows are the interesting ones: startup
    structure and stragglers).
    """
    if not spans:
        return "(no spans to draw)"
    t0 = min(span.start for span in spans)
    t1 = max(span.end for span in spans)
    extent = max(t1 - t0, 1e-9)

    def column(time: float) -> int:
        return int((time - t0) / extent * (width - 1))

    rows: list[str] = []
    if title:
        rows.append(title)
    rows.append(f"{'':<{label_width}} t={t0:.2f}s{'':<{width - 18}}t={t1:.2f}s")
    rows.append(f"{'':<{label_width}} {'-' * width}")

    visible = list(spans)
    elided = 0
    if len(visible) > max_rows:
        head = max_rows // 2
        tail = max_rows - head
        elided = len(visible) - head - tail
        visible = visible[:head] + visible[-tail:]
        elide_at = head
    for index, span in enumerate(visible):
        if elided and index == elide_at:
            rows.append(
                f"{'':<{label_width}} ... {elided} more spans elided ..."
            )
        first = column(span.start)
        last = max(column(span.end), first)  # at least one cell
        glyph = _GLYPHS.get(span.kind, "#")
        bar = " " * first + glyph * (last - first + 1)
        label = span.label
        if len(label) > label_width:
            # Keep the tail: for activations the distinguishing part is
            # the call id at the end, not the runtime-name prefix.
            label = "…" + label[-(label_width - 1):]
        marker = "*" if span.kind == "function-cold" else " "
        rows.append(f"{label:<{label_width}}{marker}{bar:<{width}}")
    rows.append(f"{'':<{label_width}} {'-' * width}")
    rows.append(
        f"{'':<{label_width}} {len(spans)} spans; = stage, # function "
        "(* = cold start), % vm, ~ cache, + wave"
    )
    return "\n".join(rows)


def workflow_gantt(
    tracker: "JobTracker",
    tracer: "Tracer",
    width: int = 64,
    max_rows: int = 48,
) -> str:
    """Stage bars interleaved with the activations/VMs/caches they ran."""
    spans = sorted(
        spans_from_tracker(tracker) + spans_from_tracer(tracer),
        key=lambda span: (span.start, span.kind != "stage", span.end),
    )
    return render_gantt(
        spans,
        width=width,
        max_rows=max_rows,
        title=f"Workflow timeline: {tracker.workflow_name}",
    )
