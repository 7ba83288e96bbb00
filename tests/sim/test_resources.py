"""Unit tests for Resource, TokenBucket and Store."""

import collections

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store, TokenBucket


@pytest.fixture
def sim():
    return Simulator(seed=7)


class TestResource:
    def test_acquire_under_capacity_is_immediate(self, sim):
        resource = Resource(sim, capacity=2)
        assert resource.acquire().triggered
        assert resource.acquire().triggered
        assert resource.available == 0

    def test_acquire_over_capacity_waits_fifo(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag, hold):
            yield resource.acquire()
            order.append((tag, sim.now))
            yield sim.timeout(hold)
            resource.release()

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0)]

    def test_release_without_acquire_raises(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_queue_length_visible(self, sim):
        resource = Resource(sim, capacity=1)
        resource.acquire()
        resource.acquire()
        resource.acquire()
        assert resource.queue_length == 2

    def test_parallelism_respects_capacity(self, sim):
        resource = Resource(sim, capacity=3)
        concurrency = {"now": 0, "max": 0}

        def worker():
            yield resource.acquire()
            concurrency["now"] += 1
            concurrency["max"] = max(concurrency["max"], concurrency["now"])
            yield sim.timeout(1.0)
            concurrency["now"] -= 1
            resource.release()

        for _ in range(10):
            sim.process(worker())
        sim.run()
        assert concurrency["max"] == 3


class TestTokenBucket:
    def test_burst_served_immediately(self, sim):
        bucket = TokenBucket(sim, rate=10.0, capacity=5.0)
        completions = []

        def worker():
            for _ in range(5):
                yield bucket.consume(1.0)
            completions.append(sim.now)

        sim.process(worker())
        sim.run()
        assert completions == [0.0]

    def test_sustained_rate_enforced(self, sim):
        bucket = TokenBucket(sim, rate=2.0, capacity=1.0)
        times = []

        def worker():
            for _ in range(5):
                yield bucket.consume(1.0)
                times.append(sim.now)

        sim.process(worker())
        sim.run()
        # First token is free (full bucket), then one every 0.5 s.
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_shortfall_below_clock_resolution_is_granted_not_spun_on(self, sim):
        """Regression: at ``now = 42.845`` a 8.2e-12-token shortfall at
        rate 3000 refills in 2.7e-15 s — less than half an ulp of the
        clock, so ``now + delay == now``.  The wake-up used to fire at
        the same instant, refill nothing and re-arm forever (the
        object-store streaming sort livelocked on ``cos.ops`` at W>24).
        """
        bucket = TokenBucket(sim, rate=3000.0, capacity=1.0)
        served = []

        def worker():
            yield sim.timeout(42.845)
            yield bucket.consume(8.2e-12)  # leaves 1 - 8.2e-12 tokens
            assert sim.now + 8.2e-12 / bucket.rate == sim.now
            yield bucket.consume(1.0)
            served.append(sim.now)
            yield bucket.consume(1.0)  # and the bucket keeps metering after
            served.append(sim.now)

        sim.process(worker())
        for _ in range(100):  # bounded: the livelock never goes idle
            if not sim.step():
                break
        assert served == [42.845, pytest.approx(42.845 + 1.0 / 3000.0)]
        assert not sim.step()

    def test_fifo_no_starvation_of_large_request(self, sim):
        bucket = TokenBucket(sim, rate=1.0, capacity=10.0)
        order = []

        def big():
            yield bucket.consume(10.0)
            order.append(("big", sim.now))

        def small(tag):
            yield bucket.consume(1.0)
            order.append((tag, sim.now))

        def scenario():
            yield bucket.consume(10.0)  # drain the initial burst
            sim.process(big())
            yield sim.timeout(0.01)
            sim.process(small("s1"))
            sim.process(small("s2"))

        sim.process(scenario())
        sim.run()
        assert [tag for tag, _t in order] == ["big", "s1", "s2"]

    def test_immediate_grant_never_queues(self, sim):
        """Nobody queued and the tokens there: granted on the spot, with
        no round trip through the waiter queue."""
        bucket = TokenBucket(sim, rate=1.0, capacity=2.0)
        appended = []

        class Queue(collections.deque):
            def append(self, item):
                appended.append(item)
                super().append(item)

        bucket._waiters = Queue()
        event = bucket.consume(1.5)
        assert event.triggered
        assert not bucket._waiters and appended == []
        assert bucket.tokens == pytest.approx(0.5)
        assert not sim.step()  # no wake-up was scheduled

    def test_queued_requests_wait_in_fifo_order(self, sim):
        """Short of tokens, or behind a waiter, a request queues."""
        bucket = TokenBucket(sim, rate=2.0, capacity=2.0)
        first = bucket.consume(2.0)
        second = bucket.consume(1.0)  # short of tokens: queued
        assert first.triggered and not second.triggered
        assert bucket.pending_demand == 1.0
        sim.run(until=0.25)
        third = bucket.consume(0.5)  # the tokens are there, but behind a waiter
        assert not third.triggered
        granted = []
        second.add_callback(lambda _event: granted.append(("second", sim.now)))
        third.add_callback(lambda _event: granted.append(("third", sim.now)))
        sim.run()
        assert granted == [("second", 0.5), ("third", 0.75)]

    def test_consume_more_than_capacity_rejected(self, sim):
        bucket = TokenBucket(sim, rate=1.0, capacity=2.0)
        with pytest.raises(SimulationError):
            bucket.consume(3.0)

    def test_nonpositive_consume_rejected(self, sim):
        bucket = TokenBucket(sim, rate=1.0)
        with pytest.raises(SimulationError):
            bucket.consume(0.0)

    def test_tokens_cap_at_capacity(self, sim):
        bucket = TokenBucket(sim, rate=100.0, capacity=5.0)

        def worker():
            yield bucket.consume(5.0)
            yield sim.timeout(10.0)  # long idle: bucket must not overfill

        sim.process(worker())
        sim.run()
        assert bucket.tokens == pytest.approx(5.0)

    def test_rate_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            TokenBucket(sim, rate=0.0)

    def test_measured_throughput_matches_rate(self, sim):
        bucket = TokenBucket(sim, rate=100.0, capacity=1.0)
        served = []

        def worker():
            for _ in range(500):
                yield bucket.consume(1.0)
                served.append(sim.now)

        sim.process(worker())
        sim.run()
        duration = served[-1] - served[0]
        measured_rate = (len(served) - 1) / duration
        assert measured_rate == pytest.approx(100.0, rel=0.01)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")
        event = store.get()
        assert event.triggered
        assert event.value == "item"

    def test_get_waits_for_put(self, sim):
        store = Store(sim)
        received = []

        def consumer():
            item = yield store.get()
            received.append((item, sim.now))

        def producer():
            yield sim.timeout(2.0)
            store.put("late-item")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert received == [("late-item", 2.0)]

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for index in range(5):
            store.put(index)
        received = []

        def consumer():
            for _ in range(5):
                item = yield store.get()
                received.append(item)

        sim.process(consumer())
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_multiple_getters_served_in_order(self, sim):
        store = Store(sim)
        received = []

        def consumer(tag):
            item = yield store.get()
            received.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put("x")
            store.put("y")

        sim.process(producer())
        sim.run()
        assert received == [("first", "x"), ("second", "y")]

    def test_len_reports_buffered_items(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
