"""Tests for the adaptive ``auto_sort`` stage and its pipelines.

The stage calls ``choose_exchange_substrate`` at DAG-execution time,
dispatches to the chosen substrate's sort stage with the priced
configuration injected, and records the decision in the stage artifact
(and thereby the tracker report and Gantt label).
"""

import pytest

from repro.cloud.environment import Cloud
from repro.core import (
    AUTO_SUPPORTED,
    ExperimentConfig,
    pipeline_for,
    run_pipeline,
    stage_input,
)
from repro.core.calibration import VM_INSTANCE_TYPE
from repro.shuffle.adaptive import EXCHANGE_SUBSTRATES
from repro.sim import Simulator
from repro.workflows import WorkflowEngine
from repro.workflows.dag import StageSpec, WorkflowDag
from repro.workflows.gantt import spans_from_tracker
from tests.core.sort_pipeline import execute, sort_pipeline


@pytest.fixture
def config():
    return ExperimentConfig(logical_scale=4096.0)


def run_auto_dag(config, sort_params):
    """Execute ingest → auto_sort on a fresh region, returning the result."""
    cloud = Cloud(Simulator(seed=7), config.make_profile())
    stage_input(cloud, config, "pipeline", "input/methylome.bed")
    dag = WorkflowDag(
        "auto-test",
        [
            StageSpec("ingest", "dataset_ref",
                      params={"key": "input/methylome.bed"}),
            StageSpec("sort", "auto_sort", after=("ingest",),
                      params=sort_params),
        ],
        bucket="pipeline",
    )
    engine = WorkflowEngine(cloud, dag)
    engine.workload = config.workload
    return engine.execute()


class TestBuilders:
    def test_auto_pipeline_shape(self, config):
        dag = pipeline_for(AUTO_SUPPORTED, config)
        assert dag.stage("sort").kind == "auto_sort"
        assert dag.name == AUTO_SUPPORTED
        assert pipeline_for(AUTO_SUPPORTED, config).name == AUTO_SUPPORTED


class TestAutoSortStage:
    def test_records_decision_in_artifact_and_tracker(self, config):
        result = run_auto_dag(config, {"workers": 4, "memory_mb": 2048})
        artifact = result.artifacts["sort"]
        assert artifact["substrate"] in EXCHANGE_SUBSTRATES
        assert artifact["workers"] == 4
        # The full priced comparison is in the report, human-readable.
        assert "->" in artifact["substrate_decision"]
        for substrate in EXCHANGE_SUBSTRATES:
            assert substrate in artifact["substrate_decision"]
        # ...and flows into the tracker's stage detail.
        detail = result.tracker.reports["sort"].detail
        assert detail["substrate"] == artifact["substrate"]
        assert detail["substrate_score_usd"] == pytest.approx(
            artifact["substrate_score_usd"]
        )

    def test_gantt_label_names_the_substrate(self, config):
        result = run_auto_dag(config, {"workers": 4, "memory_mb": 2048})
        substrate = result.artifacts["sort"]["substrate"]
        spans = spans_from_tracker(result.tracker)
        assert any(
            span.label == f"[sort→{substrate}]" for span in spans
        ), [span.label for span in spans]

    def test_zero_time_value_dispatches_to_objectstore(self, config):
        result = run_auto_dag(
            config,
            {"workers": 4, "memory_mb": 2048,
             "time_value_usd_per_hour": 0.0},
        )
        assert result.artifacts["sort"]["substrate"] == "objectstore"

    @pytest.mark.parametrize(
        "workers, substrate", [(3, "relay"), (16, "cache"), (64, "sharded-relay")]
    )
    def test_time_value_steers_dispatch_onto_provisioned_substrates(
        self, config, workers, substrate
    ):
        """A high enough time value buys provisioned hardware, and the
        stage runs the priced configuration on it — every provisioned
        sort body is reachable from auto_sort."""
        result = run_auto_dag(
            config,
            {"workers": workers, "memory_mb": 2048,
             "time_value_usd_per_hour": 500.0},
        )
        artifact = result.artifacts["sort"]
        assert artifact["substrate"] == substrate
        assert artifact["workers"] == workers
        assert artifact["records"] > 0
        if substrate == "sharded-relay":
            assert artifact["relay_shards"] >= 1

    def test_executes_the_priced_worker_count(self, config):
        """Unpinned workers: the stage must execute with the count the
        winning estimate priced, not a default."""
        result = run_auto_dag(
            config,
            {"workers": None, "memory_mb": 2048, "max_workers": 16},
        )
        artifact = result.artifacts["sort"]
        assert artifact["workers"] == artifact["substrate_workers"]
        assert 1 <= artifact["workers"] <= 16


class TestAutoPipelineEndToEnd:
    def test_auto_supported_pipeline_runs(self, config):
        run = run_pipeline(config, AUTO_SUPPORTED)
        assert run.workflow.artifacts["encode"]["ratio"] > 5.0
        sort_artifact = run.workflow.artifacts["sort"]
        assert sort_artifact["substrate"] in EXCHANGE_SUBSTRATES
        assert sort_artifact["substrate_mode"] == "staged"

    def test_auto_matches_dedicated_pipeline_artifacts(self, config):
        """The adaptive pipeline must produce the same records as the
        substrate-pinned one it dispatched to."""
        auto = run_pipeline(config, AUTO_SUPPORTED)
        pinned = run_pipeline(config, "purely-serverless")
        assert (
            auto.workflow.artifacts["encode"]["records"]
            == pinned.workflow.artifacts["encode"]["records"]
        )

    def test_sharded_relay_pipeline_runs(self, config):
        dag = sort_pipeline(
            config, "sharded_relay_sort",
            instance_type=VM_INSTANCE_TYPE, shards=config.relay_shards,
            provisioning="warm",
        )
        _cloud, result = execute(config, dag)
        sort_artifact = result.artifacts["sort"]
        assert sort_artifact["relay_shards"] == config.relay_shards
        assert result.artifacts["encode"]["ratio"] > 5.0
