"""The streaming_sort stage kind and the streaming-supported pipeline.

Engine-level coverage of the streaming subsystem: the pipeline runs end
to end on every substrate param, its artifact carries the streaming
observables, the Gantt shows the wave overlap, auto_sort dispatches to
streaming_sort when the priced decision says streaming, and the sorted
output feeds the encode stage exactly like every staged incarnation.
"""

import pytest

from repro.cloud import Cloud
from repro.core import (
    PURE_SERVERLESS,
    STREAMING_SUPPORTED,
    ExperimentConfig,
    run_pipeline,
)
from repro.core.experiment import stage_input
from repro.core.pipelines import AUTO_SUPPORTED, pipeline_for
from repro.errors import WorkflowError
from repro.sim import Simulator
from repro.workflows.dag import StageSpec, WorkflowDag
from repro.workflows.engine import WorkflowEngine
from repro.workflows.gantt import spans_from_tracer, workflow_gantt

CONFIG = ExperimentConfig(size_gb=0.5, logical_scale=8192.0)


def run_streaming(config=None, substrate=None, spans=False, **sort_params):
    config = config if config is not None else CONFIG
    cloud = Cloud(Simulator(seed=config.seed, spans=spans), config.make_profile())
    stage_input(cloud, config, "pipeline", "input/methylome.bed")
    dag = pipeline_for(STREAMING_SUPPORTED, config)
    for stage in dag.topological_order():
        if stage.kind == "streaming_sort":
            if substrate is not None:
                stage.params["substrate"] = substrate
                if substrate in ("objectstore", "cache"):
                    stage.params.pop("instance_type", None)
                    stage.params.pop("shards", None)
                if substrate == "cache":
                    stage.params.update(
                        node_type=config.cache_node_type, nodes=0,
                        provisioning="warm",
                    )
            stage.params.update(sort_params)
    engine = WorkflowEngine(cloud, dag)
    engine.workload = config.workload
    return cloud, engine.execute()


class TestStreamingPipeline:
    def test_default_relay_pipeline_end_to_end(self):
        run = run_pipeline(CONFIG, STREAMING_SUPPORTED)
        sort = run.workflow.artifacts["sort"]
        assert sort["substrate"] == "relay"
        assert sort["mode"] == "streaming"
        assert sort["overlap_s"] > 0.0
        assert sort["stream_chunks"] >= sort["workers"]
        # The encode stage consumed the streamed runs like any other's.
        staged = run_pipeline(CONFIG, PURE_SERVERLESS)
        assert (
            run.workflow.artifacts["encode"]["records"]
            == staged.workflow.artifacts["encode"]["records"]
        )

    @pytest.mark.parametrize("substrate", ["objectstore", "cache", "sharded-relay"])
    def test_every_substrate_param_streams(self, substrate):
        _cloud, result = run_streaming(substrate=substrate)
        sort = result.artifacts["sort"]
        assert sort["substrate"] == substrate
        assert sort["mode"] == "streaming"
        assert sort["overlap_s"] > 0.0
        assert sort["records"] == result.artifacts["encode"]["records"]

    def test_bounded_buffer_surfaces_backpressure_in_artifact(self):
        _cloud, result = run_streaming(chunk_mb=2.0, buffer_mb=0.25)
        sort = result.artifacts["sort"]
        assert sort["buffer_backpressure_waits"] > 0
        assert sort["buffer_high_watermark_bytes"] > 0.0

    def test_unknown_substrate_rejected(self):
        with pytest.raises(WorkflowError, match="unknown substrate"):
            run_streaming(substrate="carrier-pigeon")

    def test_bad_provisioning_rejected(self):
        with pytest.raises(WorkflowError, match="provisioning"):
            run_streaming(provisioning="lukewarm")


class TestWaveOverlapInGantt:
    def test_streaming_run_draws_overlapping_wave_spans(self):
        cloud, result = run_streaming(spans=True)
        waves = [
            span for span in spans_from_tracer(cloud.sim.tracer)
            if span.kind == "wave"
        ]
        assert len(waves) == 2
        map_wave = next(span for span in waves if span.label.startswith("map"))
        reduce_wave = next(
            span for span in waves if span.label.startswith("reduce")
        )
        # The reduce wave started before the map wave ended: the overlap
        # is visible directly on the chart.
        assert reduce_wave.start < map_wave.end
        chart = workflow_gantt(result.tracker, cloud.sim.tracer)
        assert "+ wave" in chart
        # The stage bar names substrate *and* mode.
        assert "[sort→relay streaming]" in chart

    def test_staged_run_draws_disjoint_wave_spans(self):
        config = CONFIG
        cloud = Cloud(
            Simulator(seed=config.seed, spans=True), config.make_profile()
        )
        stage_input(cloud, config, "pipeline", "input/methylome.bed")
        engine = WorkflowEngine(
            cloud,
            WorkflowDag(
                "staged-waves",
                [
                    StageSpec("ingest", "dataset_ref",
                              params={"key": "input/methylome.bed"}),
                    StageSpec("sort", "shuffle_sort", after=("ingest",),
                              params={"workers": 4}),
                ],
                bucket="pipeline",
            ),
        )
        engine.workload = config.workload
        engine.execute()
        waves = [
            span for span in spans_from_tracer(cloud.sim.tracer)
            if span.kind == "wave"
        ]
        assert len(waves) == 2
        map_wave = next(span for span in waves if span.label.startswith("map"))
        reduce_wave = next(
            span for span in waves if span.label.startswith("reduce")
        )
        assert reduce_wave.start >= map_wave.end  # the barrier is real


class TestAutoSortStreamingDispatch:
    def test_auto_sort_executes_streaming_when_priced_to_win(self):
        config = ExperimentConfig(
            size_gb=0.5, logical_scale=8192.0, time_value_usd_per_hour=30.0
        )
        cloud = Cloud(Simulator(seed=config.seed), config.make_profile())
        stage_input(cloud, config, "pipeline", "input/methylome.bed")
        dag = pipeline_for(AUTO_SUPPORTED, config)
        for stage in dag.topological_order():
            if stage.kind == "auto_sort":
                stage.params["modes"] = ("staged", "streaming")
        engine = WorkflowEngine(cloud, dag)
        engine.workload = config.workload
        result = engine.execute()
        sort = result.artifacts["sort"]
        assert sort["substrate_mode"] == "streaming"
        # The dispatched stage really ran in streaming mode (not just
        # the decision record): the artifact has the streaming fields.
        assert sort["mode"] == "streaming"
        assert sort["overlap_s"] > 0.0
        assert "[streaming]" in sort["substrate_decision"]

    def test_auto_sort_defaults_stay_staged(self):
        config = ExperimentConfig(size_gb=0.5, logical_scale=8192.0)
        cloud = Cloud(Simulator(seed=config.seed), config.make_profile())
        stage_input(cloud, config, "pipeline", "input/methylome.bed")
        engine = WorkflowEngine(cloud, pipeline_for(AUTO_SUPPORTED, config))
        engine.workload = config.workload
        result = engine.execute()
        assert result.artifacts["sort"]["substrate_mode"] == "staged"
