"""``FairShareLink`` against the verbatim pre-rewrite ``ReferenceLink``.

Both links are driven through the same schedule of transfers, aborts,
zero-byte transfers and mid-run samples; everything observable must be
``repr``-equal: each completion's time and value, ``bytes_delivered``,
``utilization()`` and ``active_flows`` at every sample, the outcome of
every abort, and how many timers the link put on the heap.  The reference
re-arms a fresh timer at every re-rating; ``FairShareLink`` keeps its
pending timer when the new deadline is bit-equal to it, so its count
must be the reference's minus exactly those re-arms — and it must never
re-arm at its own pending deadline.  That is what bounds how far a
faster link may move ``sim.events``: only no-op timers go.
"""

from __future__ import annotations

import math
import random
import typing as t

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FairShareLink, Simulator

from .reference_link import ReferenceLink

#: One step of a schedule: wait ``delay`` (0.0 = same instant), then
#: ``("transfer", nbytes, flow_cap | None)``, ``("abort", nth_transfer)``
#: or ``("sample",)``.
Step = tuple[float, tuple]


def play(link_class: type, capacity: float, default_cap: float, steps: list[Step]) -> list:
    """Run ``steps`` against a fresh link; return everything observable."""
    sim = Simulator(seed=0)
    timers = same_deadline = 0
    #: The link's last timer and its deadline.
    armed: tuple[float, t.Any] | None = None
    schedule_timeout = sim.timeout

    def counting_timeout(delay: float, value: object = None):
        """The link's timers: how many, and how many re-arm the pending one."""
        nonlocal timers, same_deadline, armed
        deadline = sim.now + delay
        if armed is not None and not armed[1].triggered and armed[0] == deadline:
            same_deadline += 1
        timer = schedule_timeout(delay, value)
        timers += 1
        armed = (deadline, timer)
        return timer

    sim.timeout = counting_timeout
    link = link_class(sim, capacity, default_flow_cap=default_cap, name="cos")
    log: list = []
    events = []

    def sample(tag: str) -> None:
        log.append(
            (tag, repr(sim.now), link.active_flows,
             repr(link.utilization()), repr(link.bytes_delivered))
        )

    def driver() -> t.Generator:
        for delay, step in steps:
            if delay > 0:
                yield schedule_timeout(delay)
            if step[0] == "transfer":
                index = len(events)
                event = link.transfer(step[1], step[2])
                events.append(event)
                event.add_callback(
                    lambda done, index=index: log.append(
                        ("done", index, repr(sim.now), repr(done.value))
                    )
                )
            elif step[0] == "abort":
                if events:
                    index = step[1] % len(events)
                    log.append(("abort", index, link.abort(events[index])))
            else:
                sample("sample")

    sim.process(driver())
    sim.run()
    sample("end")
    if link_class is FairShareLink:
        assert same_deadline == 0, "re-armed a timer at its own pending deadline"
    log.append(("timers", timers - same_deadline))
    return log


def assert_same(capacity: float, default_cap: float, steps: list[Step]) -> list:
    expected = play(ReferenceLink, capacity, default_cap, steps)
    assert play(FairShareLink, capacity, default_cap, steps) == expected
    return expected


# ----------------------------------------------------------------------
# generated schedules
# ----------------------------------------------------------------------
#: (capacity, default cap, explicit per-flow caps to draw from).  ``None``
#: as a flow cap means "use the default".
REGIMES: dict[str, tuple[float, float, tuple]] = {
    "all-equal": (1e6, 2e5, (None,)),
    "two-classes": (1e6, 2e5, (None, 5e4)),
    "inf-cap-finite-capacity": (1e6, math.inf, (None, 3e5)),
    "inf-capacity-finite-caps": (math.inf, 2e5, (None, 7e4, 1e6)),
    # capacity / cap = 3.5 flows: anything wider is fair-share bound.
    "fair-share-bound": (7e5, 2e5, (None, 2.5e5, math.inf)),
    "uncapped": (1e6, math.inf, (None,)),
    # The headroom edge: five default caps fill the capacity exactly (so
    # five flows water-fill, four run at their caps), fall just short of
    # it, or overfill it by a hair (five flows then share it below cap).
    "five-caps-exactly": (1e6, 2e5, (None, 1e5)),
    "five-caps-plus-1e-12": (5 * 2e5 * (1 + 1e-12), 2e5, (None, 1e5)),
    "five-caps-minus-1e-12": (5 * 2e5 * (1 - 1e-12), 2e5, (None, 1e5)),
}

#: 0.0 keeps several arrivals on one instant (the elapsed == 0 path);
#: repeated sizes make flows finish on one timer (ties in every order).
delays = st.one_of(st.just(0.0), st.sampled_from([1e-3, 0.25, 1.0]), st.floats(0.0, 3.0))
sizes = st.one_of(
    st.just(0.0), st.sampled_from([1e-7, 1e3, 1e6, 2.5e6]), st.floats(1.0, 1e7)
)


@st.composite
def schedules(draw) -> tuple[float, float, list[Step]]:
    capacity, default_cap, caps = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    step = st.one_of(
        st.tuples(st.just("transfer"), sizes, st.sampled_from(caps)),
        st.tuples(st.just("transfer"), sizes, st.sampled_from(caps)),
        st.tuples(st.just("transfer"), sizes, st.sampled_from(caps)),
        st.tuples(st.just("abort"), st.integers(0, 63)),
        st.tuples(st.just("sample")),
    )
    return capacity, default_cap, draw(
        st.lists(st.tuples(delays, step), min_size=1, max_size=60)
    )


@given(schedule=schedules())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_generated_schedules_match_the_reference(schedule):
    assert_same(*schedule)


# ----------------------------------------------------------------------
# the fan-in regime, seeded: many more flows than capacity / cap
# ----------------------------------------------------------------------
def fanin_schedule(rng: random.Random, flows: int) -> list[Step]:
    steps: list[Step] = []
    for _ in range(flows):
        delay = rng.choice([0.0, 0.0, rng.uniform(0.0, 0.02)])
        nbytes = rng.choice([4e5, 4e5, rng.uniform(1e3, 2e6)])
        cap = rng.choice([None, None, 1.2e5])
        steps.append((delay, ("transfer", nbytes, cap)))
        roll = rng.random()
        if roll < 0.1:
            steps.append((0.0, ("abort", rng.randrange(flows))))
        elif roll < 0.3:
            steps.append((rng.choice([0.0, 0.01]), ("sample",)))
    steps.append((0.5, ("sample",)))
    return steps


@pytest.mark.parametrize("seed", range(20))
def test_fanin_regime_matches_the_reference(seed):
    rng = random.Random(seed)
    # Capacity is 8 default-cap flows wide; 64..160 arrive within ~1 s.
    log = assert_same(8e5, 1e5, fanin_schedule(rng, rng.randrange(64, 160)))
    samples = [entry for entry in log if entry[0] == "sample"]
    # The water-filling branch (fair share below the cap) really ran:
    # far more live flows than capacity / cap, link saturated.
    assert max(entry[2] for entry in samples) > 32
    assert max(float(entry[3]) for entry in samples) > 0.999


# ----------------------------------------------------------------------
# the headroom edge, seeded: both re-rating branches on one link
# ----------------------------------------------------------------------
EDGE_REGIMES = [name for name in REGIMES if name.startswith("five-caps")]


@pytest.mark.parametrize("regime", EDGE_REGIMES)
@pytest.mark.parametrize("seed", range(5))
def test_headroom_edge_matches_the_reference(monkeypatch, regime, seed):
    """Around five live flows the caps stop fitting: the one-pass
    headroom re-rating and the water-fill must hand over bit-exactly."""
    branches = {"water-fill": 0, "rated": 0}
    water_fill, arm = FairShareLink._water_fill, FairShareLink._arm

    def counted_water_fill(link):
        branches["water-fill"] += 1
        return water_fill(link)

    def counted_arm(link, eta):
        branches["rated"] += 1
        arm(link, eta)

    monkeypatch.setattr(FairShareLink, "_water_fill", counted_water_fill)
    monkeypatch.setattr(FairShareLink, "_arm", counted_arm)
    capacity, default_cap, caps = REGIMES[regime]
    rng = random.Random(seed)
    steps: list[Step] = []
    for _ in range(40):
        delay = rng.choice([0.0, rng.uniform(0.0, 0.5)])
        steps.append((delay, ("transfer", rng.uniform(1e4, 4e5), rng.choice(caps))))
        if rng.random() < 0.1:
            steps.append((0.0, ("abort", rng.randrange(40))))
    steps.append((0.0, ("sample",)))
    assert_same(capacity, default_cap, steps)
    # Every re-rating with flows left arms the timer; only a contended
    # one water-fills first.
    assert branches["water-fill"] > 0
    assert branches["rated"] > branches["water-fill"]
