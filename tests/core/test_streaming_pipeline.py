"""The streaming_sort stage kind, run as a pipeline.

Engine-level coverage of the streaming subsystem: the stage runs end to
end on every substrate param, its artifact carries the streaming
observables, auto_sort never dispatches to it (it prices staged
candidates only), and the sorted output feeds the encode stage exactly
like every staged incarnation.  Its wave bars on the Gantt are held by
``tests/workflows/test_gantt.py``.
"""

import pytest

from repro.core import PURE_SERVERLESS, ExperimentConfig, run_pipeline
from repro.core import stages
from repro.core.calibration import CACHE_NODE_TYPE, VM_INSTANCE_TYPE
from repro.core.pipelines import AUTO_SUPPORTED, pipeline_for
from repro.errors import WorkflowError
from repro.shuffle import choose_exchange_substrate
from tests.core.sort_pipeline import execute, sort_pipeline

CONFIG = ExperimentConfig(size_gb=0.5, logical_scale=8192.0)


def streaming_pipeline(config, substrate="relay", **sort_params):
    """ingest → streaming_sort on ``substrate`` (warm) → encode."""
    if substrate == "cache":
        resource = {"node_type": CACHE_NODE_TYPE, "nodes": 0}
    elif substrate == "objectstore":
        resource = {}
    else:
        resource = {"instance_type": VM_INSTANCE_TYPE}
    params = {"substrate": substrate, **resource, "provisioning": "warm"}
    return sort_pipeline(config, "streaming_sort", **{**params, **sort_params})


def run_streaming(substrate="relay", spans=False, **sort_params):
    return execute(
        CONFIG, streaming_pipeline(CONFIG, substrate, **sort_params), spans=spans
    )


class TestStreamingPipeline:
    def test_default_relay_pipeline_end_to_end(self):
        _cloud, result = run_streaming()
        sort = result.artifacts["sort"]
        assert sort["substrate"] == "relay"
        assert sort["mode"] == "streaming"
        assert sort["overlap_s"] > 0.0
        assert sort["stream_chunks"] >= sort["workers"]
        # The encode stage consumed the streamed runs like any other's.
        staged = run_pipeline(CONFIG, PURE_SERVERLESS)
        assert (
            result.artifacts["encode"]["records"]
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

    def test_bounded_buffer_surfaces_backpressure_in_artifact(self, monkeypatch):
        monkeypatch.setattr(stages, "STREAM_CHUNK_BYTES", 2.0 * (1 << 20))
        monkeypatch.setattr(stages, "STREAM_BUFFER_BYTES", 0.25 * (1 << 20))
        _cloud, result = run_streaming()
        sort = result.artifacts["sort"]
        assert sort["buffer_backpressure_waits"] > 0
        assert sort["buffer_high_watermark_bytes"] > 0.0

    def test_unknown_substrate_rejected(self):
        with pytest.raises(WorkflowError, match="unknown substrate"):
            run_streaming(substrate="carrier-pigeon")

    def test_bad_provisioning_rejected(self):
        with pytest.raises(WorkflowError, match="provisioning"):
            run_streaming(provisioning="lukewarm")


class TestAutoSortStreamingDispatch:
    def test_auto_sort_defaults_stay_staged(self):
        _cloud, result = execute(CONFIG, pipeline_for(AUTO_SUPPORTED, CONFIG))
        assert result.artifacts["sort"]["substrate_mode"] == "staged"

    def test_auto_sort_stays_staged_when_streaming_would_win(self):
        """At this time value a streaming candidate undercuts every
        staged one; auto_sort does not price it and runs staged."""
        dag = pipeline_for(AUTO_SUPPORTED, CONFIG)
        dag.stage("sort").params.update(time_value_usd_per_hour=30.0)
        cloud, result = execute(CONFIG, dag)
        priced_with_streaming = choose_exchange_substrate(
            result.artifacts["ingest"]["logical_bytes"],
            cloud.profile,
            workers=CONFIG.parallelism,
            time_value_usd_per_hour=30.0,
            modes=("staged", "streaming"),
            cost=CONFIG.workload.shuffle_cost_model(),
        )
        assert priced_with_streaming.chosen.mode == "streaming"
        sort = result.artifacts["sort"]
        assert sort["substrate_mode"] == "staged"
        assert "mode" not in sort
        assert "[streaming]" not in sort["substrate_decision"]
