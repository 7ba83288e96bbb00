"""Tests for cloud profiles, latency models and the instance catalog."""

import random

import pytest

from repro.cloud.profiles import (
    BX2_CATALOG,
    GB,
    CloudProfile,
    LatencyModel,
    ibm_us_east,
)
from repro.errors import ConfigError


class TestLatencyModel:
    def test_zero_sigma_is_deterministic(self):
        model = LatencyModel(0.05, sigma=0.0)
        rng = random.Random(1)
        assert all(model.sample(rng) == 0.05 for _ in range(10))

    def test_jittered_mean_approximates_target(self):
        model = LatencyModel(0.1, sigma=0.4)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(0.1, rel=0.05)

    def test_samples_are_positive(self):
        model = LatencyModel(0.02, sigma=0.5)
        rng = random.Random(3)
        assert all(model.sample(rng) > 0 for _ in range(1000))

    def test_negative_mean_rejected(self):
        model = LatencyModel(-1.0)
        with pytest.raises(ConfigError):
            model.sample(random.Random(1))


class TestCatalog:
    def test_paper_instance_present(self):
        instance = BX2_CATALOG["bx2-8x32"]
        assert instance.vcpus == 8
        assert instance.memory_gb == 32
        assert instance.hourly_usd == pytest.approx(0.384)

    def test_nic_scales_with_vcpus_capped(self):
        assert BX2_CATALOG["bx2-2x8"].nic_bandwidth == pytest.approx(4 * GB / 8)
        assert BX2_CATALOG["bx2-16x64"].nic_bandwidth == pytest.approx(16 * GB / 8)
        # The cap: 48 vCPUs do not get 96 Gbps.
        assert BX2_CATALOG["bx2-48x192"].nic_bandwidth == pytest.approx(16 * GB / 8)

    def test_per_second_price(self):
        instance = BX2_CATALOG["bx2-8x32"]
        assert instance.per_second_usd == pytest.approx(0.384 / 3600)

    def test_memory_scales_linearly_in_family(self):
        assert BX2_CATALOG["bx2-4x16"].memory_gb == 2 * BX2_CATALOG["bx2-2x8"].memory_gb


class TestProfiles:
    def test_default_profile_validates(self):
        ibm_us_east().validate()

    def test_deterministic_flag_zeroes_sigmas(self):
        profile = ibm_us_east(deterministic=True)
        assert profile.objectstore.read_latency.sigma == 0.0
        assert profile.faas.cold_start.sigma == 0.0
        assert profile.vm.boot.sigma == 0.0

    def test_bad_logical_scale_rejected(self):
        profile = CloudProfile(logical_scale=0.0)
        with pytest.raises(ConfigError):
            profile.validate()

    def test_bad_ops_rate_rejected(self):
        profile = ibm_us_east()
        profile.objectstore.ops_per_second = -1
        with pytest.raises(ConfigError):
            profile.validate()

    def test_empty_catalog_rejected(self):
        profile = ibm_us_east()
        profile.vm.catalog = {}
        with pytest.raises(ConfigError):
            profile.validate()

    def test_bad_relay_knobs_rejected(self):
        for mutate in (
            lambda vm: setattr(vm, "relay_ops_per_second", 0.0),
            lambda vm: setattr(vm, "relay_ops_burst", 0.5),
            lambda vm: setattr(vm, "relay_usable_memory_fraction", 1.5),
        ):
            profile = ibm_us_east()
            mutate(profile.vm)
            with pytest.raises(ConfigError):
                profile.validate()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: setattr(p.faas, "account_concurrency", 0),
            lambda p: setattr(p.memstore, "ops_per_node", 0.0),
            lambda p: setattr(p.memstore, "usable_memory_fraction", 0.0),
            lambda p: setattr(p.memstore, "catalog", {}),
        ],
        ids=[
            "zero-concurrency",
            "zero-cache-ops",
            "zero-cache-memory",
            "empty-cache-catalog",
        ],
    )
    def test_bad_faas_and_cache_knobs_rejected(self, mutate):
        profile = ibm_us_east()
        mutate(profile)
        with pytest.raises(ConfigError):
            profile.validate()

    def test_relay_usable_bytes_is_the_shared_capacity_formula(self):
        profile = ibm_us_east()
        instance = profile.vm.catalog["bx2-8x32"]
        expected = 32 * (1 << 30) * profile.vm.relay_usable_memory_fraction
        assert profile.vm.relay_usable_bytes(instance) == pytest.approx(expected)

    def test_experiment_profile_carries_calibration(self):
        from repro.core import ExperimentConfig

        profile = ExperimentConfig().make_profile()
        assert profile.faas.instance_bandwidth == pytest.approx(44e6)
        assert profile.vm.boot.mean == pytest.approx(99.0)

    def test_profile_mutator_applied(self):
        from repro.core import ExperimentConfig

        def mutate(profile):
            profile.vm.boot.mean = 1.0

        config = ExperimentConfig(profile_mutator=mutate)
        assert config.make_profile().vm.boot.mean == 1.0
