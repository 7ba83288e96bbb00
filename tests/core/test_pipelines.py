"""Tests for pipeline builders and declarative execution of the same."""

import json

import pytest

from repro.cloud.environment import Cloud
from repro.core import (
    PURE_SERVERLESS,
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

    def test_auto_workers_unpins_count(self, config):
        import dataclasses

        auto = dataclasses.replace(config, auto_workers=True)
        dag = pipeline_for(PURE_SERVERLESS, auto)
        assert dag.stage("sort").params["workers"] is None

    def test_pipeline_for_dispatch(self, config):
        assert pipeline_for("purely-serverless", config).name == "purely-serverless"
        assert pipeline_for("vm-supported", config).name == "vm-supported"
        with pytest.raises(ValueError):
            pipeline_for("quantum", config)


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
