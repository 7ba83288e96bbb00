"""Span links between speculative sibling attempts + decision counters.

Two observability follow-ups ride the content-addressed exchange PR:

* spans gained ``links`` — directed span-id references outside the
  parent/child tree.  The FaaS platform wires them bidirectionally
  between the racing attempts of one speculative call, so a Perfetto
  trace exposes which backup raced which primary;
* the Chrome exporter renders a
  :class:`~repro.shuffle.adaptive.DecisionTimeline` as a counter track
  (``ph: "C"``): planner score, predicted latency, workers and the
  cumulative switch count as step series.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.executor import FunctionExecutor, SpeculationPolicy
from repro.obs.export import chrome_trace_events
from repro.obs.trace import NOOP_SPAN, Tracer

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpanLinks:
    def test_add_link_dedups_and_rejects_self(self):
        tracer = Tracer(clock=FakeClock(), enabled=True)
        first = tracer.span("a")
        second = tracer.span("b")
        first.add_link(second.span_id)
        first.add_link(second.span_id)  # duplicate dropped
        first.add_link(first.span_id)  # self-link dropped
        first.add_link("")  # empty dropped
        assert first.links == [second.span_id]
        assert second.links == []
        first.end()
        second.end()

    def test_noop_span_accepts_links(self):
        NOOP_SPAN.add_link("s000001")  # must not raise, must not record

    def test_links_survive_span_end(self):
        """A loser's link can land after the winner's span ended."""
        tracer = Tracer(clock=FakeClock(), enabled=True)
        winner = tracer.span("winner")
        winner.end()
        loser = tracer.span("loser")
        loser.add_link(winner.span_id)
        winner.add_link(loser.span_id)
        loser.end()
        assert loser.links == [winner.span_id]
        assert winner.links == [loser.span_id]

    def test_export_carries_links(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, enabled=True)
        primary = tracer.span("attempt-1", category="attempt")
        backup = tracer.span("attempt-2", category="attempt")
        backup.add_link(primary.span_id)
        primary.add_link(backup.span_id)
        clock.now = 1.0
        primary.end()
        backup.end()
        events = chrome_trace_events(tracer)
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert spans["attempt-1"]["args"]["links"] == backup.span_id
        assert spans["attempt-2"]["args"]["links"] == primary.span_id
        unlinked = tracer.span("attempt-3", category="attempt")
        unlinked.end()
        plain = [
            e for e in chrome_trace_events(tracer)
            if e["ph"] == "X" and e["name"] == "attempt-3"
        ]
        assert "links" not in plain[0]["args"]


def double(x):
    return x * 2


class TestSpeculativeSiblingLinks:
    @staticmethod
    def _heavy_tail_profile():
        profile = ibm_us_east()
        profile.faas.cold_start.mean = 1.5
        profile.faas.cold_start.sigma = 1.4
        return profile

    def test_backup_and_primary_link_to_each_other(self):
        cloud = Cloud.fresh(
            seed=11, profile=self._heavy_tail_profile(), spans=True
        )
        executor = FunctionExecutor(
            cloud,
            speculation=SpeculationPolicy(quantile=0.7, latency_multiplier=1.3),
        )

        def driver():
            futures = yield executor.map(
                double, list(range(48)), cpu_model=lambda x: 5.0
            )
            return (yield executor.get_result(futures))

        results = cloud.sim.run_process(driver())
        assert results == [x * 2 for x in range(48)]
        assert executor.speculative_launches > 0

        tracer = cloud.sim.tracer
        assert tracer.validate() == []
        by_id = {span.span_id: span for span in tracer.spans}
        linked = [span for span in tracer.spans if span.links]
        # Every backup launched got a link, and every link is mutual:
        # the sibling both exists and points back.
        assert len(linked) >= 2
        for span in linked:
            assert span.category == "attempt"
            for sibling_id in span.links:
                sibling = by_id[sibling_id]
                assert sibling.category == "attempt"
                assert span.span_id in sibling.links
                # Siblings race the same call: same parent wave span.
                assert sibling.parent_id == span.parent_id

    def test_no_links_without_speculation(self):
        cloud = Cloud.fresh(
            seed=11, profile=ibm_us_east(deterministic=True), spans=True
        )
        executor = FunctionExecutor(cloud)

        def driver():
            futures = yield executor.map(double, list(range(8)))
            return (yield executor.get_result(futures))

        cloud.sim.run_process(driver())
        assert all(span.links == [] for span in cloud.sim.tracer.spans)


class TestDecisionCounterTrack:
    @staticmethod
    def _timeline():
        from repro.shuffle.adaptive import (
            DecisionPoint,
            DecisionTimeline,
            SubstrateDecision,
            SubstrateEstimate,
        )

        def decision(substrate, score, predicted, workers):
            estimate = SubstrateEstimate(
                substrate=substrate,
                workers=workers,
                predicted_s=predicted,
                provisioned_usd=0.0,
                score_usd=score,
                feasible=True,
            )
            return SubstrateDecision(chosen=estimate, estimates=(estimate,))

        timeline = DecisionTimeline()
        timeline.append(DecisionPoint(
            wave=0, at_s=0.0, trigger="initial",
            decision=decision("objectstore", 0.10, 40.0, 16), switched=False,
        ))
        timeline.append(DecisionPoint(
            wave=2, at_s=12.5, trigger="wave",
            decision=decision("relay", 0.07, 25.0, 24), switched=True,
        ))
        timeline.append(DecisionPoint(
            wave=4, at_s=30.0, trigger="hot-partition",
            decision=decision("relay", 0.06, 20.0, 24), switched=True,
        ))
        return timeline

    def test_counter_events_emitted(self):
        tracer = Tracer(clock=FakeClock(), enabled=True)
        events = chrome_trace_events(
            tracer, decision_timeline=self._timeline()
        )
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 3
        assert [e["ts"] for e in counters] == [0.0, 12.5e6, 30.0e6]
        for event in counters:
            assert event["name"] == "substrate_decision"
            assert set(event["args"]) == {
                "score_usd", "predicted_s", "workers", "switches"
            }
        # The switch series is cumulative and the track is named.
        assert [e["args"]["switches"] for e in counters] == [0, 1, 2]
        track_ids = {e["tid"] for e in counters}
        assert len(track_ids) == 1
        names = [
            e for e in events
            if e["ph"] == "M" and e["args"]["name"] == "decisions"
        ]
        assert len(names) == 1 and names[0]["tid"] in track_ids

    def test_no_timeline_no_counters(self):
        tracer = Tracer(clock=FakeClock(), enabled=True)
        assert [
            e for e in chrome_trace_events(tracer) if e["ph"] == "C"
        ] == []
