"""Lithops-like function executors over the simulated cloud."""

from repro.executor.executor import (
    CpuModel,
    FunctionExecutor,
)
from repro.executor.futures import CallState, CallStats, ResponseFuture
from repro.executor.job import JobRecord
from repro.executor.speculation import AttemptHandle, JobSpeculator, SpeculationPolicy

__all__ = [
    "AttemptHandle",
    "CallState",
    "CallStats",
    "CpuModel",
    "FunctionExecutor",
    "JobRecord",
    "JobSpeculator",
    "SpeculationPolicy",
    "ResponseFuture",
]
