"""Lithops-like function executors over the simulated cloud."""

from repro.executor.executor import (
    ALL_COMPLETED,
    ANY_COMPLETED,
    CpuModel,
    FunctionExecutor,
)
from repro.executor.futures import CallState, CallStats, ResponseFuture
from repro.executor.job import JobRecord
from repro.executor.speculation import AttemptHandle, JobSpeculator, SpeculationPolicy
from repro.executor.partitioner import (
    ByteRange,
    align_start_to_record,
    chunk_ranges,
    extend_end_to_record,
    split_range,
)

__all__ = [
    "ALL_COMPLETED",
    "ANY_COMPLETED",
    "AttemptHandle",
    "ByteRange",
    "CallState",
    "CallStats",
    "CpuModel",
    "FunctionExecutor",
    "JobRecord",
    "JobSpeculator",
    "SpeculationPolicy",
    "ResponseFuture",
    "align_start_to_record",
    "chunk_ranges",
    "extend_end_to_record",
    "split_range",
]
