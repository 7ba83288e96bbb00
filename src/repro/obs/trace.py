"""Attempt-scoped span tracing for the simulated cloud.

A :class:`Tracer` lives on each :class:`~repro.sim.kernel.Simulator`
(``sim.tracer``), the simulator's only trace, and is enabled per
simulator (``Simulator(spans=True)``) or globally via
``REPRO_TRACE=1``.  Spans form the run's causal tree:

* the shuffle drivers open one **sort** span per sort with **wave**
  children (sample/map/reduce; map and reduce carry the sort's ``job``
  label);
* the FaaS platform opens one **attempt** span per executed activation,
  parented under the wave that submitted it, and ends it *exactly once*
  — in the same ``finally`` that bills the attempt — whatever the
  outcome (ok / timeout / crash / cancelled / error);
* exchange operations (storage PUT/GET, relay PUSH/PULL/MPUSH/MPULL,
  cache SET/GET, rendezvous waits, backpressure stalls, lease commits)
  land as **span events** on the owning attempt's span;
* every VM and cache cluster is one root **lifetime span** (category
  ``vm`` / ``cache``) from the provision call, where billing starts, to
  ``terminate`` (``Cloud.finalize`` terminates what is still running);
  its ``ready`` event ends the provisioning window, and relay fences /
  cancels and service scale events land on it.  A VM nobody terminates
  is an open span, which :meth:`Tracer.validate` reports.

Determinism contract (the reason chaos/speculation/parity matrices are
byte-identical with tracing on and off): tracer calls are pure
interpreter-side bookkeeping.  They read the simulation clock and
append to Python lists; they never create simulation events, never
yield, and never consume RNG.  Span/trace ids come from plain counters.
Wall-clock self-measurement uses ``time.perf_counter`` exactly like
``kernel_report_extras`` — stamped between sim steps, never across a
yield.
"""

from __future__ import annotations

import os
import time
import typing as t


class TraceError(Exception):
    """A span lifecycle rule was violated (double end, event after end)."""


def trace_enabled_from_env() -> bool:
    """Whether ``REPRO_TRACE`` asks for span tracing (``1/true/yes/on``)."""
    return os.environ.get("REPRO_TRACE", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


class _NoopSpan:
    """The disabled tracer's span: every operation is a cheap no-op.

    Call sites hold a span unconditionally (``ctx.span``); hot paths
    that would build kwargs dicts guard on :attr:`recording` first.
    """

    __slots__ = ()
    recording = False
    span_id = ""
    trace_id = ""

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        return None

    def event_at(self, at_s: float, name: str, **attrs) -> None:
        return None

    def add_link(self, span_id: str) -> None:
        return None

    def end(self, status: str | None = None) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    @property
    def ended(self) -> bool:
        return True


#: Shared singleton bound to contexts/operators when tracing is off.
NOOP_SPAN = _NoopSpan()


class Span:
    """One node of the trace tree.

    ``start_s``/``end_s`` are simulation-clock stamps; ``wall_s`` is the
    interpreter-side ``perf_counter`` delta between start and end (real
    seconds the *simulation* spent inside the span — useful for
    overhead work, excluded from exports to keep them deterministic).
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "category",
        "start_s",
        "end_s",
        "status",
        "attributes",
        "events",
        "links",
        "wall_s",
        "_wall_start",
    )

    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        category: str,
        start_s: float,
        attributes: dict[str, t.Any],
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_s = start_s
        self.end_s: float | None = None
        self.status = "unset"
        self.attributes = attributes
        self.events: list[tuple[float, str, dict[str, t.Any]]] = []
        self.links: list[str] = []
        self.wall_s = 0.0
        self._wall_start = time.perf_counter()

    # ------------------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes; chainable."""
        self.attributes.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Record a point event at the current simulation time."""
        self.event_at(self.tracer.now(), name, **attrs)

    def event_at(self, at_s: float, name: str, **attrs) -> None:
        """Record a point event at an explicit simulation time."""
        if self.end_s is not None:
            raise TraceError(
                f"event {name!r} on ended span {self.name!r} ({self.span_id})"
            )
        self.events.append((at_s, name, attrs))

    def add_link(self, span_id: str) -> None:
        """Causal link to a sibling span (speculative attempt pairing).

        Links are directed span-id references outside the parent/child
        tree — e.g. a backup attempt linking to the primary it races.
        Self-links and duplicates are dropped.
        """
        if span_id and span_id != self.span_id and span_id not in self.links:
            self.links.append(span_id)

    def end(self, status: str | None = None) -> None:
        """Close the span exactly once.

        ``status`` defaults to the span's ``outcome`` attribute (the
        FaaS platform records the attempt outcome there before the
        closing ``finally`` runs) or ``"ok"``.  Ending twice raises
        :class:`TraceError` — the tracer test suite's core property.
        """
        if self.end_s is not None:
            raise TraceError(
                f"span {self.name!r} ({self.span_id}) ended twice"
            )
        self.wall_s = time.perf_counter() - self._wall_start
        self.end_s = self.tracer.now()
        if status is None:
            status = str(self.attributes.get("outcome", "ok"))
        self.status = status
        self.tracer._on_span_end(self)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.end_s is None:
            self.end("error" if exc_type is not None else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"start={self.start_s:.3f}, end={self.end_s})"
        )


class Tracer:
    """Owner of one simulation run's spans.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulation time
        (the simulator passes its own ``now``).
    enabled:
        When false every :meth:`span` call returns the shared
        :data:`NOOP_SPAN` and the tracer allocates nothing.
    """

    def __init__(self, clock: t.Callable[[], float] | None = None, enabled: bool = False):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._open = 0
        self._next_trace = 0
        self._next_span = 0
        #: attempt_id -> live attempt span, so services that only know
        #: the attempt id (the relay's backpressure/lease bookkeeping)
        #: can attach events without holding the context.
        self._attempts: dict[str, Span] = {}

    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock()

    def span(
        self,
        name: str,
        category: str = "",
        parent: "Span | _NoopSpan | None" = None,
        track: str | None = None,
        **attrs,
    ) -> "Span | _NoopSpan":
        """Start a span (or return :data:`NOOP_SPAN` when disabled).

        ``parent`` threads the causal tree across interleaved driver
        generators — parenting is explicit rather than ambient because
        simulation processes interleave arbitrarily.  ``track`` names
        the Perfetto lane the span renders on (worker/shard/tenant).
        """
        if not self.enabled:
            return NOOP_SPAN
        if parent is not None and not getattr(parent, "recording", False):
            parent = None
        if parent is None:
            self._next_trace += 1
            trace_id = f"t{self._next_trace:04d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._next_span += 1
        if track is not None:
            attrs["track"] = track
        span = Span(
            tracer=self,
            trace_id=trace_id,
            span_id=f"s{self._next_span:06d}",
            parent_id=parent_id,
            name=name,
            category=category,
            start_s=self.now(),
            attributes=attrs,
        )
        self.spans.append(span)
        self._open += 1
        return span

    def _on_span_end(self, span: Span) -> None:
        self._open -= 1

    # ------------------------------------------------------------------
    # attempt registry (services know attempt ids, not contexts)
    # ------------------------------------------------------------------
    def bind_attempt(self, attempt_id: str, span: Span) -> None:
        self._attempts[attempt_id] = span

    def release_attempt(self, attempt_id: str) -> None:
        self._attempts.pop(attempt_id, None)

    def attempt_span(self, attempt_id: str) -> "Span | None":
        return self._attempts.get(attempt_id)

    def attempt_event(self, attempt_id: str | None, name: str, **attrs) -> None:
        """Point event on a live attempt's span, by attempt id.

        No-op when tracing is off, when the attempt is unknown (driver-
        side clients have no attempt), or when its span already ended
        (a commit racing the teardown of an unrelated attempt).
        """
        if not self.enabled or attempt_id is None:
            return
        span = self._attempts.get(attempt_id)
        if span is not None and not span.ended:
            span.events.append((self.now(), name, attrs))

    # ------------------------------------------------------------------
    # introspection (the test suite's well-formedness checks)
    # ------------------------------------------------------------------
    @property
    def open_span_count(self) -> int:
        return self._open

    def open_spans(self) -> list[Span]:
        return [span for span in self.spans if span.end_s is None]

    def validate(self) -> list[str]:
        """Structural problems of the recorded span set (empty = sound).

        Checks: every span ended; parents exist and share the child's
        trace; exactly one root per trace; events within the span's
        sim-time bounds; no span ends before it starts.
        """
        problems: list[str] = []
        by_id = {span.span_id: span for span in self.spans}
        roots: dict[str, list[str]] = {}
        for span in self.spans:
            if span.end_s is None:
                problems.append(f"span {span.span_id} ({span.name}) never ended")
            elif span.end_s < span.start_s:
                problems.append(f"span {span.span_id} ends before it starts")
            if span.parent_id is None:
                roots.setdefault(span.trace_id, []).append(span.span_id)
            else:
                parent = by_id.get(span.parent_id)
                if parent is None:
                    problems.append(
                        f"span {span.span_id} has orphan parent {span.parent_id}"
                    )
                elif parent.trace_id != span.trace_id:
                    problems.append(
                        f"span {span.span_id} crosses traces "
                        f"({span.trace_id} -> {parent.trace_id})"
                    )
            for at_s, name, _attrs in span.events:
                if at_s < span.start_s or (
                    span.end_s is not None and at_s > span.end_s
                ):
                    problems.append(
                        f"event {name!r} at {at_s:.6f} outside span "
                        f"{span.span_id} [{span.start_s:.6f}, {span.end_s}]"
                    )
        for trace_id, trace_roots in roots.items():
            if len(trace_roots) != 1:
                problems.append(
                    f"trace {trace_id} has {len(trace_roots)} roots: {trace_roots}"
                )
        return problems

    def clear(self) -> None:
        self.spans.clear()
        self._attempts.clear()
        self._open = 0
