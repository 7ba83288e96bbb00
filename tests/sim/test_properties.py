"""Property-based tests of simulation-kernel invariants.

These pin down the conservation and fairness properties everything else
relies on: links deliver exactly what was sent, token buckets never
exceed their configured rate, events fire in time order, and resources
never exceed capacity — across randomized schedules.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import FairShareLink, Resource, Simulator, TokenBucket


class TestLinkConservation:
    @given(
        transfers=st.lists(
            st.tuples(
                st.floats(0.0, 10.0),  # start delay
                st.floats(1.0, 1e6),  # bytes
            ),
            min_size=1,
            max_size=25,
        ),
        capacity=st.floats(1e3, 1e9),
    )
    # Two 1-byte-scale flows: the link's 1 ns minimum tick at this
    # capacity overshoots by more than rel=1e-6 of two bytes.
    @example(transfers=[(0.0, 1.0), (0.0, 1.0625)], capacity=62502063.0)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_all_bytes_delivered_exactly_once(self, transfers, capacity):
        sim = Simulator(seed=1)
        link = FairShareLink(sim, capacity=capacity)

        def sender(delay, nbytes):
            yield sim.timeout(delay)
            yield link.transfer(nbytes)

        for delay, nbytes in transfers:
            sim.process(sender(delay, nbytes))
        sim.run()
        expected = sum(nbytes for _delay, nbytes in transfers)
        # Each flow may end up to one minimum tick (1 ns) late.
        tick_slack = capacity * 1e-9 * len(transfers)
        assert link.bytes_delivered == pytest.approx(expected, rel=1e-6, abs=tick_slack)
        assert link.active_flows == 0

    @given(
        nbytes=st.floats(1.0, 1e9),
        capacity=st.floats(1.0, 1e9),
        cap=st.floats(1.0, 1e9),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_flow_duration_is_exact(self, nbytes, capacity, cap):
        sim = Simulator(seed=1)
        link = FairShareLink(sim, capacity=capacity)
        event = link.transfer(nbytes, flow_cap=cap)
        sim.run(until=event)
        rate = min(capacity, cap)
        assert sim.now == pytest.approx(nbytes / rate, rel=1e-6, abs=1e-6)

    @given(
        flows=st.lists(st.floats(1e3, 1e7), min_size=2, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_aggregate_never_beats_capacity(self, flows):
        """Makespan is at least total bytes / capacity."""
        capacity = 1e6
        sim = Simulator(seed=1)
        link = FairShareLink(sim, capacity=capacity)
        events = [link.transfer(nbytes) for nbytes in flows]
        sim.run(until=sim.all_of(events))
        lower_bound = sum(flows) / capacity
        assert sim.now >= lower_bound * (1 - 1e-9)


class TestTokenBucketRate:
    @given(
        rate=st.floats(1.0, 1e4),
        capacity=st.floats(1.0, 100.0),
        demand=st.integers(10, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_sustained_rate_never_exceeded(self, rate, capacity, demand):
        """Serving N unit-requests takes at least (N - burst) / rate."""
        sim = Simulator(seed=1)
        bucket = TokenBucket(sim, rate=rate, capacity=capacity)

        def consumer():
            for _ in range(demand):
                yield bucket.consume(1.0)

        sim.process(consumer())
        sim.run()
        minimum_time = max(0.0, (demand - capacity) / rate)
        assert sim.now >= minimum_time * (1 - 1e-9)

    @given(
        amounts=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_fifo_completion_order(self, amounts):
        sim = Simulator(seed=1)
        bucket = TokenBucket(sim, rate=10.0, capacity=5.0)
        completed = []

        def consumer(index, amount):
            yield bucket.consume(amount)
            completed.append(index)

        for index, amount in enumerate(amounts):
            sim.process(consumer(index, amount))
        sim.run()
        assert completed == sorted(completed)


class TestEventOrdering:
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_callbacks_fire_in_nondecreasing_time(self, delays):
        sim = Simulator(seed=1)
        fired = []
        for delay in delays:
            sim.timeout(delay).add_callback(lambda _e: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_processes_observe_monotone_time(self, delays):
        sim = Simulator(seed=1)
        observations = []

        def worker(delay):
            yield sim.timeout(delay)
            observations.append(sim.now)
            yield sim.timeout(delay)
            observations.append(sim.now)

        for delay in delays:
            sim.process(worker(delay))
        before = sim.now
        sim.run()
        assert sim.now >= before
        # Each process saw its own monotone time; globally the list may
        # interleave, but no observation may precede the sim start.
        assert all(obs >= 0.0 for obs in observations)


class TestResourceInvariant:
    @given(
        capacity=st.integers(1, 8),
        tasks=st.integers(1, 40),
        hold=st.floats(0.01, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_concurrency_never_exceeds_capacity(self, capacity, tasks, hold):
        sim = Simulator(seed=1)
        resource = Resource(sim, capacity=capacity)
        live = {"now": 0, "max": 0}

        def worker():
            yield resource.acquire()
            live["now"] += 1
            live["max"] = max(live["max"], live["now"])
            yield sim.timeout(hold)
            live["now"] -= 1
            resource.release()

        for _ in range(tasks):
            sim.process(worker())
        sim.run()
        assert live["max"] <= capacity
        assert resource.in_use == 0 or resource.queue_length == 0
