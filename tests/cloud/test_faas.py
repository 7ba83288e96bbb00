"""Unit tests for the simulated FaaS platform."""

import pytest

from repro.cloud import Cloud, MB
from repro.cloud.faas import (
    FunctionAlreadyRegistered,
    FunctionCrashed,
    FunctionNotFound,
    FunctionTimeout,
    InvalidFunctionConfig,
)
from repro.cloud.profiles import ibm_us_east


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=5, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("bucket")
    return cloud


def echo_handler(ctx, payload):
    yield ctx.sleep(0.0)
    return payload


class TestRegistration:
    def test_register_and_lookup(self, cloud):
        cloud.faas.register("echo", echo_handler, memory_mb=1024)
        definition = cloud.faas.function("echo")
        assert definition.memory_mb == 1024

    def test_duplicate_registration_rejected(self, cloud):
        cloud.faas.register("echo", echo_handler)
        with pytest.raises(FunctionAlreadyRegistered):
            cloud.faas.register("echo", echo_handler)

    def test_unknown_function_rejected(self, cloud):
        with pytest.raises(FunctionNotFound):
            cloud.faas.launch("ghost")

    def test_bad_memory_rejected(self, cloud):
        with pytest.raises(InvalidFunctionConfig):
            cloud.faas.register("tiny", echo_handler, memory_mb=1)


class TestInvocation:
    def test_result_passes_through(self, cloud):
        cloud.faas.register("echo", echo_handler)
        event = cloud.faas.launch("echo", {"answer": 42}).completion
        assert cloud.sim.run(until=event) == {"answer": 42}

    def test_handler_exception_fails_event(self, cloud):
        def bad_handler(ctx, payload):
            yield ctx.sleep(0.1)
            raise ValueError("application bug")

        cloud.faas.register("bad", bad_handler)
        event = cloud.faas.launch("bad").completion
        with pytest.raises(ValueError, match="application bug"):
            cloud.sim.run(until=event)

    def test_handler_can_use_storage(self, cloud):
        def writer(ctx, payload):
            yield ctx.storage.put("bucket", payload["key"], payload["data"])
            return "written"

        cloud.faas.register("writer", writer)
        event = cloud.faas.launch("writer", {"key": "out", "data": b"hello"}).completion
        assert cloud.sim.run(until=event) == "written"
        assert cloud.store.peek("bucket", "out") == b"hello"

    def test_parallel_invocations_overlap(self, cloud):
        def slow(ctx, payload):
            yield ctx.sleep(10.0)
            return payload

        cloud.faas.register("slow", slow)
        events = [cloud.faas.launch("slow", index).completion for index in range(8)]
        gathered = cloud.sim.all_of(events)
        results = cloud.sim.run(until=gathered)
        assert results == list(range(8))
        # 8 x 10 s of work, fully parallel: well under 8x serial time.
        assert cloud.sim.now < 15.0


class TestColdWarmStarts:
    def test_first_call_cold_second_warm(self, cloud):
        cloud.faas.register("echo", echo_handler)

        def scenario():
            yield cloud.faas.launch("echo", 1).completion
            yield cloud.faas.launch("echo", 2).completion

        cloud.sim.run_process(scenario())
        assert cloud.faas.stats.cold_starts == 1
        assert cloud.faas.stats.warm_starts == 1

    def test_parallel_burst_pays_all_cold_starts(self, cloud):
        cloud.faas.register("echo", echo_handler)
        events = [cloud.faas.launch("echo", index).completion for index in range(16)]
        cloud.sim.run(until=cloud.sim.all_of(events))
        assert cloud.faas.stats.cold_starts == 16

    def test_container_expires_after_keep_alive(self, cloud):
        cloud.faas.register("echo", echo_handler)

        def scenario():
            yield cloud.faas.launch("echo", 1).completion
            yield cloud.sim.timeout(cloud.profile.faas.keep_alive_s + 1.0)
            yield cloud.faas.launch("echo", 2).completion

        cloud.sim.run_process(scenario())
        assert cloud.faas.stats.cold_starts == 2

    def test_warm_start_is_faster(self, cloud):
        cloud.faas.register("echo", echo_handler)
        durations = []

        def scenario():
            for index in range(2):
                start = cloud.sim.now
                yield cloud.faas.launch("echo", index).completion
                durations.append(cloud.sim.now - start)

        cloud.sim.run_process(scenario())
        assert durations[1] < durations[0]

    def test_warm_container_count(self, cloud):
        """A burst of 4 leaves 4 warm containers: a second burst of 5
        starts 4 warm and 1 cold."""
        cloud.faas.register("echo", echo_handler)
        for burst in (4, 5):
            events = [cloud.faas.launch("echo", index).completion for index in range(burst)]
            cloud.sim.run(until=cloud.sim.all_of(events))
        assert (cloud.faas.stats.cold_starts, cloud.faas.stats.warm_starts) == (5, 4)


class TestCpuShare:
    def test_small_memory_means_slower_compute(self, cloud):
        def cpu_bound(ctx, payload):
            yield ctx.compute(2.0)
            return ctx.cpu_share

        cloud.faas.register("full", cpu_bound, memory_mb=2048)
        cloud.faas.register("half", cpu_bound, memory_mb=1024)
        durations = {}

        def scenario():
            for name in ("full", "half"):
                start = cloud.sim.now
                yield cloud.faas.launch(name).completion
                durations[name] = cloud.sim.now - start

        cloud.sim.run_process(scenario())
        # The half-share function takes ~2 s longer (4 s vs 2 s of compute).
        assert durations["half"] - durations["full"] == pytest.approx(2.0, abs=0.2)

    def test_memory_above_full_share_does_not_overclock(self, cloud):
        def probe(ctx, payload):
            yield ctx.sleep(0.0)
            return ctx.cpu_share

        cloud.faas.register("big", probe, memory_mb=4096)
        event = cloud.faas.launch("big").completion
        assert cloud.sim.run(until=event) == 1.0


class TestTimeoutsAndCrashes:
    def test_function_timeout_kills_handler(self, cloud):
        def endless(ctx, payload):
            yield ctx.sleep(1e9)

        cloud.faas.register("endless", endless, timeout_s=5.0)
        event = cloud.faas.launch("endless").completion
        with pytest.raises(FunctionTimeout):
            cloud.sim.run(until=event)
        assert cloud.faas.stats.timeouts == 1

    def test_crash_injection(self, cloud):
        def steady(ctx, payload):
            yield ctx.sleep(30.0)
            return "survived"

        cloud.faas.register("steady", steady, timeout_s=300.0)
        cloud.faas.crash_probability = 1.0
        event = cloud.faas.launch("steady").completion
        with pytest.raises(FunctionCrashed):
            cloud.sim.run(until=event)
        assert cloud.faas.stats.crashes == 1

    def test_no_crashes_by_default(self, cloud):
        cloud.faas.register("echo", echo_handler)
        events = [cloud.faas.launch("echo", index).completion for index in range(20)]
        cloud.sim.run(until=cloud.sim.all_of(events))
        assert cloud.faas.stats.crashes == 0


class TestConcurrencyLimit:
    def test_account_concurrency_serializes_excess(self):
        profile = ibm_us_east(deterministic=True)
        profile.faas.account_concurrency = 2
        cloud = Cloud.fresh(seed=5, profile=profile)

        def slow(ctx, payload):
            yield ctx.sleep(10.0)

        cloud.faas.register("slow", slow)
        events = [cloud.faas.launch("slow").completion for _ in range(4)]
        cloud.sim.run(until=cloud.sim.all_of(events))
        # 4 invocations, 2 at a time, 10 s each → at least 2 rounds.
        assert cloud.sim.now >= 20.0


class TestBilling:
    def test_gb_seconds_rounded_up_to_granularity(self, cloud):
        def precise(ctx, payload):
            yield ctx.sleep(0.234)

        cloud.faas.register("precise", precise, memory_mb=2048)
        cloud.sim.run(until=cloud.faas.launch("precise").completion)
        # 0.234 s rounds to 0.3 s at 2 GB → 0.6 GB-s.
        assert cloud.faas.stats.billed_gb_seconds == pytest.approx(0.6)

    def test_memory_multiplies_cost(self, cloud):
        def fixed(ctx, payload):
            yield ctx.sleep(1.0)

        cloud.faas.register("small", fixed, memory_mb=1024)
        cloud.faas.register("large", fixed, memory_mb=4096)

        def scenario():
            yield cloud.faas.launch("small").completion
            yield cloud.faas.launch("large").completion

        cloud.sim.run_process(scenario())
        small = sum(
            line.usd
            for line in cloud.meter.filtered("faas", function="small")
        )
        large = sum(
            line.usd
            for line in cloud.meter.filtered("faas", function="large")
        )
        assert large == pytest.approx(small * 4.0)

    def test_failed_invocations_still_billed(self, cloud):
        def bad(ctx, payload):
            yield ctx.sleep(1.0)
            raise RuntimeError("boom")

        cloud.faas.register("bad", bad)
        event = cloud.faas.launch("bad").completion
        with pytest.raises(RuntimeError):
            cloud.sim.run(until=event)
        assert cloud.faas.stats.billed_gb_seconds > 0


class TestInstanceBandwidth:
    def test_function_storage_capped_by_instance_nic(self):
        profile = ibm_us_east(deterministic=True)
        profile.objectstore.read_latency.mean = 0.0
        profile.objectstore.write_latency.mean = 0.0
        profile.faas.instance_bandwidth = 10 * MB
        profile.faas.cold_start.mean = 0.0
        profile.faas.warm_start.mean = 0.0
        profile.faas.invoke_overhead.mean = 0.0
        cloud = Cloud.fresh(seed=5, profile=profile)
        cloud.store.ensure_bucket("bucket")

        def reader(ctx, payload):
            start = ctx.sim.now
            yield ctx.storage.get("bucket", "k")
            return ctx.sim.now - start

        cloud.faas.register("reader", reader)

        def scenario():
            yield cloud.store.put("bucket", "k", b"x" * (100 * MB))
            return (yield cloud.faas.launch("reader").completion)

        elapsed = cloud.sim.run_process(scenario())
        assert elapsed == pytest.approx(10.0, rel=0.02)  # 100 MB at 10 MB/s
