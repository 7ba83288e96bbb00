"""Unit tests for the max-min fair-share bandwidth link."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import FairShareLink, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=7)


class TestSingleFlow:
    def test_duration_is_bytes_over_capacity(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        event = link.transfer(1000.0)
        sim.run(until=event)
        assert sim.now == pytest.approx(10.0)

    def test_event_value_is_duration(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        event = link.transfer(500.0)
        duration = sim.run(until=event)
        assert duration == pytest.approx(5.0)

    def test_zero_bytes_completes_instantly(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        event = link.transfer(0.0)
        assert event.triggered
        assert event.value == 0.0

    def test_flow_cap_limits_single_flow(self, sim):
        link = FairShareLink(sim, capacity=1000.0)
        event = link.transfer(100.0, flow_cap=10.0)
        sim.run(until=event)
        assert sim.now == pytest.approx(10.0)

    def test_infinite_capacity_with_cap(self, sim):
        link = FairShareLink(sim, capacity=math.inf, default_flow_cap=50.0)
        event = link.transfer(100.0)
        sim.run(until=event)
        assert sim.now == pytest.approx(2.0)

    def test_infinite_capacity_without_cap_rejected(self, sim):
        link = FairShareLink(sim, capacity=math.inf)
        with pytest.raises(SimulationError):
            link.transfer(100.0)

    def test_negative_bytes_rejected(self, sim):
        link = FairShareLink(sim, capacity=10.0)
        with pytest.raises(SimulationError):
            link.transfer(-1.0)


class TestSharing:
    def test_two_equal_flows_halve_bandwidth(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        done = []

        def flow(tag):
            yield link.transfer(1000.0)
            done.append((tag, sim.now))

        sim.process(flow("a"))
        sim.process(flow("b"))
        sim.run()
        # Both share 100 B/s: each gets 50 B/s, finishing at t=20.
        assert done[0][1] == pytest.approx(20.0)
        assert done[1][1] == pytest.approx(20.0)

    def test_short_flow_finishes_then_long_flow_speeds_up(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        done = {}

        def flow(tag, nbytes):
            yield link.transfer(nbytes)
            done[tag] = sim.now

        sim.process(flow("short", 500.0))
        sim.process(flow("long", 1500.0))
        sim.run()
        # Shared at 50 B/s each until short finishes at t=10 (500 B);
        # long then has 1000 B left at 100 B/s → finishes at t=20.
        assert done["short"] == pytest.approx(10.0)
        assert done["long"] == pytest.approx(20.0)

    def test_late_arrival_slows_existing_flow(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        done = {}

        def early():
            yield link.transfer(1000.0)
            done["early"] = sim.now

        def late():
            yield sim.timeout(5.0)
            yield link.transfer(250.0)
            done["late"] = sim.now

        sim.process(early())
        sim.process(late())
        sim.run()
        # early runs alone 0-5 s (500 B done), then shares 50/50.
        # late: 250 B at 50 B/s → finishes t=10. early: 500 B left,
        # 250 B during 5-10 s, then full speed: 250 B at 100 B/s → t=12.5.
        assert done["late"] == pytest.approx(10.0)
        assert done["early"] == pytest.approx(12.5)

    def test_capped_flow_leaves_bandwidth_for_others(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        done = {}

        def capped():
            yield link.transfer(100.0, flow_cap=10.0)
            done["capped"] = sim.now

        def open_flow():
            yield link.transfer(900.0)
            done["open"] = sim.now

        sim.process(capped())
        sim.process(open_flow())
        sim.run()
        # Max-min: capped gets 10 B/s, open gets 90 B/s → both end at t=10.
        assert done["capped"] == pytest.approx(10.0)
        assert done["open"] == pytest.approx(10.0)

    def test_bytes_delivered_accumulates(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        events = [link.transfer(300.0), link.transfer(200.0)]
        sim.run(until=sim.all_of(events))
        assert link.bytes_delivered == pytest.approx(500.0)

    def test_many_flows_aggregate_time(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        events = [link.transfer(100.0) for _ in range(10)]
        sim.run(until=sim.all_of(events))
        # 1000 B total through 100 B/s, all equal → all finish at t=10.
        assert sim.now == pytest.approx(10.0)

    def test_active_flows_counter(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        link.transfer(1000.0)
        link.transfer(1000.0)
        assert link.active_flows == 2
        sim.run()
        assert link.active_flows == 0

    def test_utilization_full_when_uncapped(self, sim):
        link = FairShareLink(sim, capacity=100.0)
        link.transfer(1000.0)
        assert link.utilization() == pytest.approx(1.0)


class TestStaggeredArrivals:
    def test_three_phase_scenario(self, sim):
        """Flows arriving/leaving at different times drain correctly."""
        link = FairShareLink(sim, capacity=120.0)
        done = {}

        def flow(tag, start, nbytes):
            yield sim.timeout(start)
            yield link.transfer(nbytes)
            done[tag] = sim.now

        sim.process(flow("a", 0.0, 1200.0))
        sim.process(flow("b", 0.0, 600.0))
        sim.process(flow("c", 5.0, 200.0))
        sim.run()
        # 0-5 s: a,b at 60 B/s → a:300, b:300 done.
        # 5 s: c joins; all at 40 B/s.
        # b needs 300 more → done at 5 + 7.5 = 12.5.  c needs 200 → t=10.
        # At t=10: c done (200), a has 300+200=500 done, b has 500.
        # 10-?: a,b at 60 B/s. b needs 100 → t=11.67; a needs 700 → ...
        assert done["c"] == pytest.approx(10.0)
        assert done["b"] == pytest.approx(10.0 + 100.0 / 60.0)
        # after b: a alone at 120 B/s with 1200-500-100=600 left
        expected_a = done["b"] + (1200.0 - 500.0 - 100.0) / 120.0
        assert done["a"] == pytest.approx(expected_a)


class TestRejectedInputs:
    """NaN and infinite sizes, NaN caps and capacities never enter a link.

    They used to: ``transfer(nan)`` was accepted and the run died later,
    inside a timer, with "no flow can make progress"; a NaN cap passed
    ``cap <= 0`` and the flow ran uncapped.
    """

    @pytest.mark.parametrize("nbytes", [math.nan, math.inf])
    def test_non_finite_size_is_rejected_and_leaves_no_flow(self, sim, nbytes):
        link = FairShareLink(sim, capacity=100.0)
        with pytest.raises(SimulationError, match="cannot transfer"):
            link.transfer(nbytes)
        assert link.active_flows == 0
        assert not sim.step()

    def test_nan_flow_cap_is_rejected(self, sim):
        link = FairShareLink(sim, capacity=1e6, default_flow_cap=1e4)
        with pytest.raises(SimulationError, match="per-flow cap"):
            link.transfer(100.0, flow_cap=math.nan)
        assert link.active_flows == 0

    @pytest.mark.parametrize(
        "capacity, default_cap", [(math.nan, 1.0), (1.0, math.nan), (-math.inf, 1.0)]
    )
    def test_nan_capacity_or_default_cap_is_rejected(self, sim, capacity, default_cap):
        with pytest.raises(SimulationError, match="must be positive"):
            FairShareLink(sim, capacity=capacity, default_flow_cap=default_cap)

    def test_infinite_capacity_and_caps_stay_legal(self, sim):
        capped = FairShareLink(sim, capacity=100.0, default_flow_cap=math.inf)
        uncontended = FairShareLink(sim, capacity=math.inf, default_flow_cap=50.0)
        events = [
            capped.transfer(100.0),
            capped.transfer(100.0, flow_cap=math.inf),
            uncontended.transfer(100.0),
        ]
        sim.run(until=sim.all_of(events))
        assert [event.value for event in events] == [2.0, 2.0, 2.0]


class TestOneTimerPerDeadline:
    """The link keeps its pending timer when a re-rating lands on the
    same deadline, and a superseded timer never calls back."""

    def test_headroom_transfer_finishing_later_pushes_no_timer(self, sim):
        # Caps sum to half the capacity: every flow runs at its cap.
        link = FairShareLink(sim, capacity=400.0, default_flow_cap=100.0)
        first = link.transfer(1000.0)  # due at t=10
        seq = sim._seq
        second = link.transfer(2000.0)  # due at t=20: the deadline stays 10
        assert sim._seq == seq
        sim.run(until=2.5)
        link.transfer(1500.0)  # due at t=17.5: still 10
        assert sim._seq == seq
        assert sim.run(until=first) == 10.0
        assert sim.run(until=second) == 20.0

    def test_superseded_timer_never_reaches_on_timer(self, sim):
        link = FairShareLink(sim, capacity=400.0, default_flow_cap=100.0)
        fired = []
        on_timer = link._timer_callback

        def spy(timer):
            fired.append(timer)
            on_timer(timer)

        link._timer_callback = spy
        long = link.transfer(1000.0)  # due at t=10
        superseded = link._timer
        short = link.transfer(100.0)  # due at t=1: an earlier deadline
        assert link._timer is not superseded and superseded.triggered
        sim.run()
        assert superseded not in fired
        assert (short.value, long.value) == (1.0, 10.0)
        # t=1 (short), t=10 (long); the retired timer was popped unseen.
        assert len(fired) == 2
