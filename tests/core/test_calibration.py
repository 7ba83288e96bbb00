"""Tests for the experiment defaults and the calibrated cloud profile."""

import dataclasses

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import GB, LatencyModel, ibm_us_east
from repro.core import ExperimentConfig, WorkloadParams
from repro.core.calibration import CACHE_NODE_TYPE, VM_INSTANCE_TYPE


def latency_models(profile):
    """Every :class:`LatencyModel` reachable from ``profile``."""
    found = []
    for section in (profile.objectstore, profile.faas, profile.vm, profile.memstore):
        for field in dataclasses.fields(section):
            value = getattr(section, field.name)
            if isinstance(value, LatencyModel):
                found.append(value)
    return found


class TestInstanceTypes:
    def test_vm_is_the_papers_bx2_8x32(self):
        assert VM_INSTANCE_TYPE == "bx2-8x32"
        assert VM_INSTANCE_TYPE in ExperimentConfig().make_profile().vm.catalog

    def test_relay_defaults_to_the_hybrid_vm_type(self):
        assert ExperimentConfig().resolved_relay_instance_type == VM_INSTANCE_TYPE

    def test_explicit_relay_type_wins(self):
        config = ExperimentConfig(relay_instance_type="bx2-32x128")
        assert config.resolved_relay_instance_type == "bx2-32x128"

    def test_cache_node_is_in_the_cache_catalog(self):
        catalog = ExperimentConfig().make_profile().memstore.catalog
        assert CACHE_NODE_TYPE == "cache.r5.large"
        assert CACHE_NODE_TYPE in catalog

    def test_exchange_resource_names_each_substrate(self):
        config = ExperimentConfig(relay_shards=3)
        assert config.exchange_resource("objectstore") == (None, 0)
        assert config.exchange_resource("cache") == (CACHE_NODE_TYPE, 0)
        assert config.exchange_resource("relay") == (VM_INSTANCE_TYPE, 1)
        assert config.exchange_resource("sharded-relay") == (VM_INSTANCE_TYPE, 3)


class TestMakeProfile:
    def test_profile_is_the_validated_us_east_region(self):
        profile = ExperimentConfig().make_profile()
        profile.validate()
        assert profile.region == "us-east"

    def test_profile_carries_the_logical_scale(self):
        config = ExperimentConfig(logical_scale=4096.0)
        assert config.make_profile().logical_scale == 4096.0
        assert config.real_bytes == int(3.5 * GB / 4096.0)

    def test_deterministic_config_zeroes_every_latency_jitter(self):
        models = latency_models(ExperimentConfig(deterministic=True).make_profile())
        assert len(models) == 10
        assert all(model.sigma == 0.0 for model in models)

    def test_default_config_keeps_jitter(self):
        models = latency_models(ExperimentConfig().make_profile())
        assert all(model.sigma > 0.0 for model in models)

    def test_calibration_does_not_leak_into_the_generic_profile(self):
        config = ExperimentConfig()
        first = config.make_profile()
        first.vm.boot.mean = 1.0
        assert config.make_profile().vm.boot.mean == pytest.approx(99.0)
        generic = ibm_us_east()
        assert generic.vm.boot.mean == pytest.approx(52.0)
        assert generic.faas.invoke_overhead.mean == pytest.approx(0.06)

    def test_mutator_sees_the_calibrated_profile(self):
        seen = {}

        def record(profile):
            seen["boot"] = profile.vm.boot.mean
            seen["bandwidth"] = profile.faas.instance_bandwidth

        ExperimentConfig(profile_mutator=record).make_profile()
        assert seen == {"boot": pytest.approx(99.0), "bandwidth": pytest.approx(44e6)}

    def test_a_cloud_builds_on_the_calibrated_profile(self):
        profile = ExperimentConfig(logical_scale=16384.0).make_profile()
        cloud = Cloud.fresh(seed=2021, profile=profile)
        assert cloud.logical_scale == 16384.0
        assert cloud.store.profile is profile.objectstore
        assert cloud.faas.profile is profile.faas
        assert cloud.vms.profile is profile.vm
        assert cloud.cache.profile is profile.memstore


class TestWorkloadParams:
    def test_shuffle_cost_model_carries_the_throughputs(self):
        params = WorkloadParams(
            partition_throughput=1e6, sort_throughput=2e6, fetch_parallelism=3
        )
        model = params.shuffle_cost_model()
        assert model.partition_throughput == 1e6
        assert model.sort_throughput == 2e6
        assert model.fetch_parallelism == 3
