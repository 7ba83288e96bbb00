"""Tests for RNG streams and simulator determinism."""

import pytest

from repro.sim import RngRegistry, derive_seed


class TestRngRegistry:
    def test_streams_are_cached(self):
        registry = RngRegistry(7)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_independent(self):
        registry = RngRegistry(7)
        a_values = [registry.stream("a").random() for _ in range(5)]
        registry2 = RngRegistry(7)
        _ = [registry2.stream("b").random() for _ in range(100)]  # drain b
        a_values_again = [registry2.stream("a").random() for _ in range(5)]
        assert a_values == a_values_again  # a is unaffected by b's draws

    def test_same_seed_same_sequences(self):
        first = [RngRegistry(1).stream("x").random() for _ in range(3)]
        second = [RngRegistry(1).stream("x").random() for _ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_derive_seed_stable(self):
        assert derive_seed(42, "component") == derive_seed(42, "component")
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_fork_is_independent(self):
        registry = RngRegistry(7)
        fork = registry.fork("child")
        assert fork.stream("x").random() != registry.stream("x").random()

    def test_contains(self):
        registry = RngRegistry(7)
        assert "x" not in registry
        registry.stream("x")
        assert "x" in registry


class TestSimulatorDeterminism:
    def test_full_stack_repeatability(self):
        """Two identical cloud scenarios produce identical traces."""

        def run_once():
            from repro.cloud import Cloud

            cloud = Cloud.fresh(seed=123)
            cloud.store.ensure_bucket("b")
            times = []

            def worker(index):
                yield cloud.store.put("b", f"k{index}", bytes(100 * index))
                yield cloud.store.get("b", f"k{index}")
                times.append(cloud.sim.now)

            for index in range(10):
                cloud.sim.process(worker(index))
            cloud.sim.run()
            return times

        assert run_once() == run_once()

    def test_jittered_latencies_still_deterministic(self):
        from repro.cloud import Cloud
        from repro.cloud.profiles import ibm_us_east

        def run_once():
            cloud = Cloud.fresh(seed=55, profile=ibm_us_east())  # jitter on

            def fn(ctx, x):
                yield ctx.compute(0.1)
                return x

            cloud.faas.register("fn", fn)
            events = [cloud.faas.invoke("fn", i) for i in range(5)]
            cloud.sim.run(until=cloud.sim.all_of(events))
            return cloud.sim.now

        assert run_once() == run_once()
