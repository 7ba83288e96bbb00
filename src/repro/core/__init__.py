"""The paper's core contribution: object-storage- vs VM-driven data exchange.

Public API::

    from repro.core import ExperimentConfig, run_table1
    result = run_table1(ExperimentConfig(logical_scale=512))
    print(result.to_table())
"""

from repro.core.calibration import ExperimentConfig, WorkloadParams
from repro.core.experiment import (
    ExchangeComparison,
    PipelineRun,
    Table1Result,
    run_exchange_comparison,
    run_pipeline,
    run_table1,
    stage_input,
)
from repro.core.pipelines import (
    AUTO_SUPPORTED,
    CACHE_SUPPORTED,
    ENCODE_STAGE,
    INGEST_STAGE,
    PURE_SERVERLESS,
    RELAY_SUPPORTED,
    SORT_STAGE,
    VERIFY_STAGE,
    VM_SUPPORTED,
    pipeline_for,
)
from repro.core.stages import register_builtin_stage_kinds

__all__ = [
    "AUTO_SUPPORTED",
    "CACHE_SUPPORTED",
    "ENCODE_STAGE",
    "ExchangeComparison",
    "ExperimentConfig",
    "INGEST_STAGE",
    "PURE_SERVERLESS",
    "PipelineRun",
    "RELAY_SUPPORTED",
    "SORT_STAGE",
    "Table1Result",
    "VERIFY_STAGE",
    "VM_SUPPORTED",
    "WorkloadParams",
    "pipeline_for",
    "register_builtin_stage_kinds",
    "run_exchange_comparison",
    "run_pipeline",
    "run_table1",
    "stage_input",
]
