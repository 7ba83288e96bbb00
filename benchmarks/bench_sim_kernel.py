"""Microbenchmarks of the simulation kernel itself.

Not a paper artifact — these quantify the substrate's own performance
(events/second, resource churn, link re-rating), which bounds how big an
experiment the harness can regenerate in reasonable wall-clock time.

The link cases cover both re-rating branches: the fan-in, many more
flows than fit at their caps (a relay NIC: every re-rating
water-fills), and the headroom case, dozens of capped flows on an
aggregate far wider than their caps — the regime of a wide object-store
sort (the ledger benchmark's ``fanout`` workload), where a link event
is one pass over the flows.  The last two cases are the rest of that
sort: thousands of range-GETs each one request process, and — the
streaming mode's manifest polling, most of ``control`` — GETs of keys
that are not there yet, run inline in the poller's own process as the
exchange runs them, which must cost no more than served ones and leave
the cycle collector nothing.

``check_wallclock.py`` holds this module's wall-clock against the
committed baseline (``make bench-sim``), so the time has to follow the
code's cost: the two wide-sort cases run a fixed number of rounds, and
the small cases get a 0.1 s budget instead of pytest-benchmark's
default of a full second each whatever their speed.
"""

import gc
import time

import pytest

from repro.cloud import Cloud
from repro.cloud.storageview import BoundStorage
from repro.sim import FairShareLink, Resource, Simulator, TokenBucket, inline

pytestmark = pytest.mark.benchmark(max_time=0.1, min_rounds=5)


def test_event_throughput(benchmark):
    def run_events():
        sim = Simulator(seed=1)
        for _ in range(10_000):
            sim.timeout(1.0)
        sim.run()
        return sim.now

    assert benchmark(run_events) == 1.0


def test_process_switch_throughput(benchmark):
    def run_processes():
        sim = Simulator(seed=1)

        def worker():
            for _ in range(100):
                yield sim.timeout(1.0)

        for _ in range(100):
            sim.process(worker())
        sim.run()
        return sim.now

    assert benchmark(run_processes) == 100.0


def test_token_bucket_throughput(benchmark):
    def run_bucket():
        sim = Simulator(seed=1)
        bucket = TokenBucket(sim, rate=1000.0, capacity=100.0)

        def consumer():
            for _ in range(2_000):
                yield bucket.consume(1.0)

        sim.process(consumer())
        sim.run()
        return sim.now

    benchmark(run_bucket)


def test_resource_contention_throughput(benchmark):
    def run_resource():
        sim = Simulator(seed=1)
        resource = Resource(sim, capacity=4)

        def worker():
            for _ in range(50):
                yield resource.acquire()
                yield sim.timeout(0.01)
                resource.release()

        for _ in range(40):
            sim.process(worker())
        sim.run()
        return sim.now

    benchmark(run_resource)


def test_fair_link_rerating_throughput(benchmark):
    def run_link():
        sim = Simulator(seed=1)
        link = FairShareLink(sim, capacity=1e9)

        def sender(delay):
            yield sim.timeout(delay)
            yield link.transfer(1e6)

        for index in range(200):
            sim.process(sender(index * 0.001))
        sim.run()
        return link.bytes_delivered

    delivered = benchmark(run_link)
    assert abs(delivered - 200 * 1e6) < 1.0  # fluid model: float tolerance


def test_fair_link_fanin_throughput(benchmark):
    flows, transfers_each = 96, 100
    sizes = [2e5, 3e5, 5e5]

    def run_fanin():
        sim = Simulator(seed=1)
        # Eight default-cap flows fill the link; 96 share it, so every
        # re-rating water-fills below the caps.  Two cap classes.
        link = FairShareLink(sim, capacity=8e8, default_flow_cap=1e8)
        peak = 0

        def reducer(index):
            nonlocal peak
            yield sim.timeout(index * 1e-4)  # staggered starts
            cap = None if index % 2 else 6e7
            for segment in range(transfers_each):
                yield link.transfer(sizes[(index + segment) % 3], flow_cap=cap)
                peak = max(peak, link.active_flows)

        for index in range(flows):
            sim.process(reducer(index))
        sim.run()
        return link.bytes_delivered, peak

    delivered, peak = benchmark.pedantic(run_fanin, rounds=5, iterations=1, warmup_rounds=1)
    expected = sum(
        sizes[(index + segment) % 3]
        for index in range(flows)
        for segment in range(transfers_each)
    )
    assert abs(delivered - expected) < 1.0  # fluid model: float tolerance
    assert peak >= 64


def test_fair_link_headroom_throughput(benchmark):
    flows, transfers_each = 90, 60
    sizes = [2e5, 3e5, 5e5]

    def run_headroom():
        sim = Simulator(seed=1)
        # The object store's shape: per-connection caps, an aggregate a
        # hundred caps wide, so no re-rating ever water-fills.
        link = FairShareLink(sim, capacity=1e10, default_flow_cap=1e8)
        live = []

        def reader(index):
            yield sim.timeout(index * 2e-4)  # staggered starts and ends
            for segment in range(transfers_each - index // 3):
                yield link.transfer(sizes[(index + segment) % 3])
                live.append(link.active_flows)

        for index in range(flows):
            sim.process(reader(index))
        sim.run()
        return link.bytes_delivered, live

    delivered, live = benchmark.pedantic(run_headroom, rounds=5, iterations=1, warmup_rounds=1)
    expected = sum(
        sizes[(index + segment) % 3]
        for index in range(flows)
        for segment in range(transfers_each - index // 3)
    )
    # A completion overshoots by at most its cap times the 1 ns minimum tick.
    assert abs(delivered - expected) < len(live) * 1e8 * 1e-9
    # Sampled as each transfer ends: nine samples in ten see 30..89 others.
    assert max(live) == flows - 1
    assert sorted(live)[len(live) // 10] >= 30


def test_storage_request_throughput(benchmark):
    workers, requests_each, chunk = 32, 200, 64

    def run_requests():
        cloud = Cloud(Simulator(seed=1))
        cloud.store.ensure_bucket("bench")
        payload = bytes(range(256)) * (workers * chunk // 256 + 1)
        fetched = 0

        def worker(index):
            nonlocal fetched
            # A worker-side view: bounded by a NIC, retrying like the SDK.
            view = BoundStorage(cloud.store, 1e8, name=f"worker-{index}")
            for _ in range(requests_each):
                start = index * chunk
                data = yield view.get_range("bench", "runs/0", start, start + chunk)
                fetched += len(data)

        def driver():
            yield cloud.store.put("bench", "runs/0", payload)
            yield cloud.sim.all_of(
                [cloud.sim.process(worker(index)).completion for index in range(workers)]
            )

        cloud.sim.run_process(driver())
        return fetched, cloud.store.stats.total_requests

    fetched, requests = benchmark.pedantic(
        run_requests, rounds=5, iterations=1, warmup_rounds=1
    )
    assert fetched == workers * requests_each * chunk
    assert requests == workers * requests_each + 1


def test_storage_poll_miss_throughput(benchmark):
    workers, polls_each = 32, 200

    def run_polls():
        cloud = Cloud(Simulator(seed=1))
        cloud.store.ensure_bucket("bench")
        missed = 0

        def worker(index):
            nonlocal missed
            view = BoundStorage(cloud.store, 1e8, name=f"worker-{index}")
            for _ in range(polls_each):
                # The manifest poll of the streaming exchange: no request
                # process, the GET runs in the poller's own.
                raw = yield from inline(
                    cloud.sim, view.get_request("bench", "manifests/0", missing_ok=True)
                )
                missed += raw is None

        def driver():
            yield cloud.sim.all_of(
                [cloud.sim.process(worker(index)).completion for index in range(workers)]
            )

        cloud.sim.run_process(driver())
        return missed, cloud.store.stats.total_requests

    missed, served = benchmark.pedantic(
        run_polls, rounds=5, iterations=1, warmup_rounds=1
    )
    assert missed == workers * polls_each
    assert served == 0  # a miss is not a served (billed, counted) request

    # One more round with the collector off: what a miss leaves behind.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run_polls()
        elapsed = time.perf_counter() - start
        unreachable = gc.collect()
    finally:
        gc.enable()
    us_per_request = elapsed * 1e6 / missed
    per_thousand = unreachable * 1000.0 / missed
    benchmark.extra_info["us_per_request"] = round(us_per_request, 2)
    benchmark.extra_info["unreachable_per_1000_requests"] = round(per_thousand, 1)
    print(
        f"\npoll miss: {us_per_request:.2f} us/request, "
        f"{per_thousand:.1f} unreachable objects per 1,000 requests"
    )
    # Only the finished region's own cycles (a constant): a miss that
    # travelled as an exception left ~40 objects each, 40,000 per 1,000.
    assert per_thousand < 100.0
