"""Tests for pipeline builders and declarative execution of the same."""

import json

import pytest

from repro.cloud.environment import Cloud
from repro.core import (
    AUTO_SUPPORTED,
    CACHE_SUPPORTED,
    PURE_SERVERLESS,
    RELAY_SUPPORTED,
    VM_SUPPORTED,
    ExperimentConfig,
    pipeline_for,
)
from repro.core.experiment import stage_input
from repro.sim import Simulator
from repro.workflows import WorkflowEngine, dump_spec, parse_spec, render_dag


@pytest.fixture
def config():
    return ExperimentConfig(logical_scale=4096.0)


class TestBuilders:
    def test_pure_serverless_shape(self, config):
        dag = pipeline_for(PURE_SERVERLESS, config)
        names = [s.name for s in dag.topological_order()]
        assert names == ["ingest", "sort", "encode"]
        assert dag.stage("sort").kind == "shuffle_sort"

    def test_vm_supported_shape(self, config):
        dag = pipeline_for(VM_SUPPORTED, config)
        assert dag.stage("sort").kind == "vm_sort"
        assert dag.stage("sort").params["instance_type"] == "bx2-8x32"

    def test_verify_stage_optional(self, config):
        dag = pipeline_for(PURE_SERVERLESS, config, verify=True)
        assert [s.name for s in dag.topological_order()][-1] == "verify"

    def test_parallelism_respected_in_params(self, config):
        dag = pipeline_for(PURE_SERVERLESS, config)
        assert dag.stage("sort").params["workers"] == config.parallelism

    def test_pipeline_for_dispatch(self, config):
        assert pipeline_for("purely-serverless", config).name == "purely-serverless"
        assert pipeline_for("vm-supported", config).name == "vm-supported"
        with pytest.raises(ValueError):
            pipeline_for("quantum", config)
        # The sharded fleet and the streaming mode are stage kinds, not
        # variants.
        for gone in ("sharded-relay-supported", "streaming-supported"):
            with pytest.raises(ValueError, match="unknown variant"):
                pipeline_for(gone, config)


#: Variant → its sort stage's params, in order, at the ``config``
#: fixture.  Stage params feed lineage fingerprints and artifacts, so a
#: variant's dict must not move by a key, a value or an order.
FUNCTION_SORT = [("workers", 8), ("memory_mb", 2048), ("max_workers", 256)]
SORT_PARAMS = {
    PURE_SERVERLESS: FUNCTION_SORT,
    VM_SUPPORTED: [("instance_type", "bx2-8x32"), ("partitions", 8)],
    CACHE_SUPPORTED: [
        *FUNCTION_SORT, ("node_type", "cache.r5.large"), ("nodes", 0),
        ("provisioning", "warm"),
    ],
    RELAY_SUPPORTED: [
        *FUNCTION_SORT, ("instance_type", "bx2-8x32"), ("provisioning", "warm"),
    ],
    AUTO_SUPPORTED: [
        *FUNCTION_SORT, ("time_value_usd_per_hour", 1.0),
        ("cache_node_type", "cache.r5.large"),
    ],
}


@pytest.mark.parametrize("variant", SORT_PARAMS)
def test_variant_sort_params_are_pinned(config, variant):
    params = pipeline_for(variant, config).stage("sort").params
    assert list(params.items()) == SORT_PARAMS[variant]
    assert [type(value) for _key, value in params.items()] == [
        type(value) for _key, value in SORT_PARAMS[variant]
    ]


class TestDeclarativeRoundtrip:
    def test_pipelines_survive_json_roundtrip(self, config):
        for dag in (
            pipeline_for(PURE_SERVERLESS, config),
            pipeline_for(VM_SUPPORTED, config),
        ):
            restored = parse_spec(dump_spec(dag))
            assert [s.name for s in restored.stages] == [s.name for s in dag.stages]
            assert [s.kind for s in restored.stages] == [s.kind for s in dag.stages]

    def test_json_defined_pipeline_executes(self, config):
        """A pipeline authored purely as JSON runs end to end."""
        document = json.dumps(
            {
                "name": "json-authored",
                "bucket": "pipeline",
                "stages": [
                    {"name": "ingest", "kind": "dataset_ref",
                     "params": {"key": "input/methylome.bed"}},
                    {"name": "sort", "kind": "shuffle_sort",
                     "after": ["ingest"], "params": {"workers": 2}},
                    {"name": "encode", "kind": "methcomp_encode",
                     "after": ["sort"]},
                ],
            }
        )
        cloud = Cloud(Simulator(seed=3), config.make_profile())
        stage_input(cloud, config, "pipeline", "input/methylome.bed")
        engine = WorkflowEngine(cloud, parse_spec(document))
        result = engine.execute()
        assert result.artifacts["encode"]["ratio"] > 5.0

    def test_render_figure_contains_both_substrates(self, config):
        serverless_art = render_dag(pipeline_for(PURE_SERVERLESS, config))
        hybrid_art = render_dag(pipeline_for(VM_SUPPORTED, config))
        assert "cloud functions" in serverless_art
        assert "virtual machine" in hybrid_art
