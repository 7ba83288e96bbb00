"""Exporters: Chrome trace-event JSON (Perfetto) and Prometheus text.

``chrome_trace_events`` turns a :class:`~repro.obs.trace.Tracer`'s spans
into the Chrome trace-event format that https://ui.perfetto.dev loads
directly: one complete event (``ph: "X"``) per span, instant events
(``ph: "i"``) for span events, and thread-name metadata so each
worker/shard/tenant renders on its own track.  Timestamps are the
simulation clock in microseconds, so the Perfetto timeline reads in
simulated seconds.  The tracer is the run's only trace: waves, substrate
decisions, VM and cache-cluster lifetimes, relay fences and service
scale events are all spans or span events, so they land on their own
tracks here.

Output is deterministic: ids are counter-based, tracks are numbered in
order of first appearance, and span wall-clock self-measurements are
deliberately *not* exported.
"""

from __future__ import annotations

import json
import typing as t

from repro.obs.metrics import MetricsRegistry, registry as _default_registry
from repro.obs.trace import Tracer

_US = 1_000_000  # sim seconds -> trace microseconds


def _clean(attrs: dict[str, t.Any]) -> dict[str, t.Any]:
    """JSON-safe argument dict (Perfetto shows these in the side panel)."""
    out: dict[str, t.Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def chrome_trace_events(
    tracer: Tracer,
    decision_timeline: t.Any | None = None,
) -> list[dict[str, t.Any]]:
    """Chrome trace-event list for a tracer.

    ``decision_timeline`` accepts a
    :class:`~repro.shuffle.adaptive.DecisionTimeline`; each decision
    point becomes a counter event (``ph: "C"``) on a ``decisions``
    track, so Perfetto renders the planner's monetized score, predicted
    latency, worker count, and cumulative switch count as step series
    over the run.
    """
    events: list[dict[str, t.Any]] = []
    tracks: dict[str, int] = {}

    def tid(track: str) -> int:
        if track not in tracks:
            tracks[track] = len(tracks) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tracks[track],
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tracks[track]

    for span in tracer.spans:
        track = str(
            span.attributes.get("track") or span.category or "driver"
        )
        thread = tid(track)
        args = _clean(span.attributes)
        args["span_id"] = span.span_id
        args["trace_id"] = span.trace_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.links:
            args["links"] = ",".join(span.links)
        args["status"] = span.status
        end_s = span.end_s
        if end_s is None:
            # Export unfinished spans as zero-duration and flag them;
            # validate() already reports them as structural problems.
            end_s = span.start_s
            args["unfinished"] = True
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": thread,
                "name": span.name,
                "cat": span.category or "span",
                "ts": round(span.start_s * _US, 3),
                "dur": round((end_s - span.start_s) * _US, 3),
                "args": args,
            }
        )
        for at_s, name, attrs in span.events:
            events.append(
                {
                    "ph": "i",
                    "pid": 1,
                    "tid": thread,
                    "name": name,
                    "cat": span.category or "span",
                    "ts": round(at_s * _US, 3),
                    "s": "t",
                    "args": _clean(dict(attrs, span_id=span.span_id)),
                }
            )

    if decision_timeline is not None:
        thread = tid("decisions")
        switches = 0
        for point in getattr(decision_timeline, "points", ()):
            if point.switched:
                switches += 1
            chosen = point.decision.chosen
            events.append(
                {
                    "ph": "C",
                    "pid": 1,
                    "tid": thread,
                    "name": "substrate_decision",
                    "cat": "decision",
                    "ts": round(point.at_s * _US, 3),
                    "args": {
                        "score_usd": chosen.score_usd,
                        "predicted_s": chosen.predicted_s,
                        "workers": chosen.workers,
                        "switches": switches,
                    },
                }
            )

    return events


def chrome_trace_json(
    tracer: Tracer,
    decision_timeline: t.Any | None = None,
) -> str:
    """Serialized Chrome trace (the string Perfetto opens)."""
    payload = {
        "traceEvents": chrome_trace_events(tracer, decision_timeline),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "sim-seconds", "source": "repro.obs"},
    }
    return json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=False)


def write_chrome_trace(
    path: str,
    tracer: Tracer,
    decision_timeline: t.Any | None = None,
) -> str:
    """Write the Perfetto-loadable trace file; returns the path."""
    text = chrome_trace_json(tracer, decision_timeline)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _fmt_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(reg: MetricsRegistry | None = None) -> str:
    """Prometheus text exposition (v0.0.4) of the registry."""
    reg = reg if reg is not None else _default_registry()
    lines: list[str] = []
    for metric in reg.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            for key, obs in metric.samples():
                ordered = sorted(obs)
                for bound in metric.buckets:
                    cumulative = sum(1 for v in ordered if v <= bound)
                    bound_label = 'le="' + _fmt_value(bound) + '"'
                    lines.append(
                        f"{metric.name}_bucket{_fmt_labels(key, bound_label)} "
                        f"{cumulative}"
                    )
                inf_label = 'le="+Inf"'
                lines.append(
                    f"{metric.name}_bucket{_fmt_labels(key, inf_label)} "
                    f"{len(ordered)}"
                )
                lines.append(
                    f"{metric.name}_sum{_fmt_labels(key)} "
                    f"{_fmt_value(sum(ordered))}"
                )
                lines.append(
                    f"{metric.name}_count{_fmt_labels(key)} {len(ordered)}"
                )
        else:
            for key, value in metric.samples():
                lines.append(
                    f"{metric.name}{_fmt_labels(key)} {_fmt_value(value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_text(path: str, reg: MetricsRegistry | None = None) -> str:
    text = prometheus_text(reg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
