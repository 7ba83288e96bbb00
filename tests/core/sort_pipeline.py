"""Run any sort stage kind as a pipeline, the way ``run_pipeline`` runs
a named variant: ingest → sort → encode on a freshly staged region."""

from repro.cloud import Cloud
from repro.core import ENCODE_STAGE, INGEST_STAGE, SORT_STAGE, ExperimentConfig
from repro.core.experiment import stage_input
from repro.sim import Simulator
from repro.workflows import StageSpec, WorkflowDag, WorkflowEngine

INPUT_KEY = "input/methylome.bed"


def sort_pipeline(config: ExperimentConfig, kind: str, **params) -> WorkflowDag:
    """ingest → ``kind`` → encode, with the sort params every
    function-driven variant shares and ``params`` on top."""
    sort_params = {
        "workers": config.parallelism,
        "memory_mb": config.function_memory_mb,
        "max_workers": 256,
        **params,
    }
    return WorkflowDag(
        f"{kind}-pipeline",
        [
            StageSpec(INGEST_STAGE, "dataset_ref", params={"key": INPUT_KEY}),
            StageSpec(SORT_STAGE, kind, after=(INGEST_STAGE,), params=sort_params),
            StageSpec(
                ENCODE_STAGE, "methcomp_encode", after=(SORT_STAGE,),
                params={"memory_mb": config.function_memory_mb},
            ),
        ],
        bucket="pipeline",
    )


def execute(config: ExperimentConfig, dag: WorkflowDag, spans: bool = False):
    """Stage the input on a fresh region and run ``dag``: ``(cloud, result)``."""
    cloud = Cloud(Simulator(seed=config.seed, spans=spans), config.make_profile())
    stage_input(cloud, config, "pipeline", INPUT_KEY)
    engine = WorkflowEngine(cloud, dag)
    engine.workload = config.workload
    return cloud, engine.execute()
