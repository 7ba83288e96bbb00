"""Tracer unit tests + hypothesis lifecycle/well-formedness properties.

The tracer's contract (``repro.obs.trace``): spans end exactly once,
events never land on ended spans, the span set always forms proper
trees (single root per trace, parents exist and share the trace), and
the disabled tracer allocates nothing.  The hypothesis properties
drive randomized open/event/end schedules — including abandoned spans
— and assert ``validate()`` reports exactly the right problems.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    TraceError,
    Tracer,
    trace_enabled_from_env,
)

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_tracer():
    clock = FakeClock()
    return Tracer(clock=clock, enabled=True), clock


class TestDisabledTracer:
    def test_disabled_tracer_returns_the_noop_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", category="attempt")
        assert span is NOOP_SPAN
        assert not span.recording
        assert span.ended
        assert tracer.spans == []

    def test_noop_span_absorbs_the_full_protocol(self):
        with NOOP_SPAN as span:
            span.set(a=1).event("e", x=2)
            span.event_at(5.0, "later")
        NOOP_SPAN.end()
        NOOP_SPAN.end()  # double end is fine on the noop

    def test_attempt_event_is_noop_when_disabled(self):
        tracer = Tracer(enabled=False)
        tracer.attempt_event("act-1", "relay.push")  # no registry, no error

    def test_env_toggle(self, monkeypatch):
        for value, expected in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("no", False),
        ):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert trace_enabled_from_env() is expected
        monkeypatch.delenv("REPRO_TRACE")
        assert trace_enabled_from_env() is False


class TestSpanLifecycle:
    def test_double_end_raises(self):
        tracer, _clock = make_tracer()
        span = tracer.span("s")
        span.end()
        with pytest.raises(TraceError):
            span.end()

    def test_event_after_end_raises(self):
        tracer, _clock = make_tracer()
        span = tracer.span("s")
        span.end()
        with pytest.raises(TraceError):
            span.event("late")

    def test_status_defaults_to_outcome_attribute(self):
        tracer, _clock = make_tracer()
        span = tracer.span("attempt")
        span.set(outcome="timeout")
        span.end()
        assert span.status == "timeout"

    def test_context_manager_marks_error_on_exception(self):
        tracer, _clock = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s") as span:
                raise RuntimeError("boom")
        assert span.ended and span.status == "error"

    def test_sim_clock_stamps(self):
        tracer, clock = make_tracer()
        span = tracer.span("s")
        clock.now = 2.5
        span.event("mid")
        clock.now = 4.0
        span.end()
        assert span.start_s == 0.0
        assert span.events == [(2.5, "mid", {})]
        assert span.end_s == 4.0 and span.duration_s == 4.0

    def test_non_recording_parent_starts_a_new_trace(self):
        tracer, _clock = make_tracer()
        child = tracer.span("child", parent=NOOP_SPAN)
        assert child.parent_id is None

    def test_parenting_shares_the_trace(self):
        tracer, _clock = make_tracer()
        root = tracer.span("root")
        child = tracer.span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_deterministic_ids(self):
        ids = []
        for _ in range(2):
            tracer, _clock = make_tracer()
            spans = [tracer.span(f"s{i}") for i in range(3)]
            ids.append([(s.trace_id, s.span_id) for s in spans])
        assert ids[0] == ids[1]


class TestAttemptRegistry:
    def test_attempt_event_lands_on_the_bound_span(self):
        tracer, clock = make_tracer()
        span = tracer.span("attempt")
        tracer.bind_attempt("act-1", span)
        clock.now = 1.0
        tracer.attempt_event("act-1", "relay.push", bytes=10)
        assert span.events == [(1.0, "relay.push", {"bytes": 10})]

    def test_unknown_or_released_attempts_drop_silently(self):
        tracer, _clock = make_tracer()
        span = tracer.span("attempt")
        tracer.attempt_event("nope", "x")
        tracer.bind_attempt("act-1", span)
        tracer.release_attempt("act-1")
        tracer.attempt_event("act-1", "x")
        assert span.events == []

    def test_events_on_ended_attempt_drop_silently(self):
        tracer, _clock = make_tracer()
        span = tracer.span("attempt")
        tracer.bind_attempt("act-1", span)
        span.end()
        tracer.attempt_event("act-1", "late")  # no TraceError
        assert span.events == []


class TestValidate:
    def test_clean_tree_validates_empty(self):
        tracer, _clock = make_tracer()
        root = tracer.span("root")
        child = tracer.span("child", parent=root)
        child.end()
        root.end()
        assert tracer.validate() == []
        assert tracer.open_span_count == 0

    def test_unended_span_is_reported(self):
        tracer, _clock = make_tracer()
        tracer.span("leak")
        assert any("never ended" in p for p in tracer.validate())

    def test_two_roots_in_one_trace_are_reported(self):
        tracer, _clock = make_tracer()
        root = tracer.span("root")
        # Forge a second root by hand (no public API does this).
        rogue = tracer.span("rogue")
        rogue.trace_id = root.trace_id
        rogue.end()
        root.end()
        assert any("roots" in p for p in tracer.validate())


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------
#: An op schedule: each element opens a span under a random live parent
#: (or as a root), then randomly records events/ends it later.
schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),  # parent choice
        st.integers(min_value=0, max_value=3),  # events to record
        st.booleans(),  # end it?
    ),
    min_size=1,
    max_size=40,
)


@given(schedule=schedules)
@settings(max_examples=200, deadline=None)
def test_property_every_ended_span_ends_exactly_once(schedule):
    """Random open/event/end schedules: double-ends always raise, the
    validator flags exactly the abandoned spans, and trees stay sound."""
    tracer, clock = make_tracer()
    live = []
    abandoned = 0
    for parent_pick, event_count, do_end in schedule:
        clock.now += 0.5
        parent = live[parent_pick % len(live)] if live and parent_pick else None
        span = tracer.span("s", parent=parent)
        for index in range(event_count):
            clock.now += 0.1
            span.event(f"e{index}")
        if do_end:
            clock.now += 0.1
            span.end()
            with pytest.raises(TraceError):
                span.end()
        else:
            live.append(span)
            abandoned += 1
    problems = tracer.validate()
    unended = [p for p in problems if "never ended" in p]
    assert len(unended) == abandoned
    assert tracer.open_span_count == abandoned
    # Everything else about the tree must be sound.
    assert [p for p in problems if "never ended" not in p] == []


@given(schedule=schedules)
@settings(max_examples=200, deadline=None)
def test_property_closed_schedules_validate_clean(schedule):
    """Ending every span (children before parents) yields a well-formed
    forest: single root per trace, no orphans, events in bounds."""
    tracer, clock = make_tracer()
    opened = []
    for parent_pick, event_count, _do_end in schedule:
        clock.now += 0.5
        parent = (
            opened[parent_pick % len(opened)] if opened and parent_pick else None
        )
        span = tracer.span("s", parent=parent)
        for index in range(event_count):
            clock.now += 0.1
            span.event(f"e{index}")
        opened.append(span)
    for span in reversed(opened):
        clock.now += 0.1
        span.end()
    assert tracer.validate() == []
    assert tracer.open_span_count == 0
    # Exactly one root per trace id.
    roots = {}
    for span in tracer.spans:
        if span.parent_id is None:
            roots.setdefault(span.trace_id, 0)
            roots[span.trace_id] += 1
    assert all(count == 1 for count in roots.values())
