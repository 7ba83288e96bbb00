"""Exporter tests: Chrome trace-event JSON and Prometheus text.

The Chrome exporter must emit Perfetto-loadable JSON (``ph:"X"``
complete events in microseconds, metadata thread names, instant
events) and be byte-deterministic for the same run.  The Prometheus exporter must produce parseable text
exposition with cumulative buckets.
"""

import json

import pytest

from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced_run():
    clock = FakeClock()
    tracer = Tracer(clock=clock, enabled=True)
    root = tracer.span("sort:out", category="sort", substrate="relay")
    clock.now = 1.0
    wave = tracer.span("wave:map", category="wave", parent=root, track="driver")
    clock.now = 1.5
    attempt = tracer.span(
        "mapper", category="attempt", parent=wave, track="worker-000"
    )
    clock.now = 2.0
    attempt.event("relay.push", key="k", bytes=64)
    clock.now = 2.5
    attempt.set(outcome="ok").end()
    clock.now = 3.0
    wave.end()
    clock.now = 4.0
    root.end()
    return tracer, clock


class TestChromeTrace:
    def test_events_are_complete_and_microsecond_scaled(self):
        tracer, _clock = traced_run()
        events = chrome_trace_events(tracer)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        attempt = next(e for e in complete if e["name"] == "mapper")
        assert attempt["ts"] == 1.5e6
        assert attempt["dur"] == 1.0e6
        assert attempt["args"]["status"] == "ok"

    def test_span_events_become_instants(self):
        tracer, _clock = traced_run()
        events = chrome_trace_events(tracer)
        instants = [e for e in events if e["ph"] == "i"]
        assert any(
            e["name"] == "relay.push" and e["ts"] == 2.0e6 for e in instants
        )

    def test_tracks_become_named_threads(self):
        tracer, _clock = traced_run()
        events = chrome_trace_events(tracer)
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "worker-000" in names and "driver" in names
        # Same track -> same tid.
        tids = {
            e["tid"] for e in events if e.get("args", {}).get("track") == "worker-000"
        }
        assert len(tids) <= 1

    def test_json_is_valid_and_deterministic(self, tmp_path):
        first = chrome_trace_json(traced_run()[0])
        second = chrome_trace_json(traced_run()[0])
        assert first == second  # wall_s never leaks into the export
        payload = json.loads(first)
        assert isinstance(payload["traceEvents"], list)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), traced_run()[0])
        assert json.loads(path.read_text()) == payload

    def test_unended_span_is_flagged_not_dropped(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, enabled=True)
        tracer.span("leak", category="sort")
        events = chrome_trace_events(tracer)
        leak = next(e for e in events if e["ph"] == "X")
        assert leak["args"]["unfinished"] is True
        assert leak["dur"] == 0


class TestPrometheusText:
    def test_counters_gauges_histograms_render(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "Things counted").inc(3.0, tenant="a")
        reg.gauge("repro_depth", "Queue depth").set(2.0)
        hist = reg.histogram(
            "repro_wait_seconds", "Waits", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = prometheus_text(reg)
        assert '# TYPE repro_x_total counter' in text
        assert 'repro_x_total{tenant="a"} 3' in text
        assert "repro_depth 2" in text
        # Cumulative buckets: 1 under 0.1, 2 under 1.0, 3 under +Inf.
        assert 'repro_wait_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_wait_seconds_bucket{le="1"} 2' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_wait_seconds_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
