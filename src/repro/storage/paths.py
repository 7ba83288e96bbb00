"""Key-layout conventions for executor state in object storage.

Mirrors the Lithops layout: each job gets a prefix under which call
payloads, results and status markers live.  Keeping the layout in one
module makes the storage traffic of the executor auditable.
"""

from __future__ import annotations

JOBS_PREFIX = "jobs"


def job_prefix(executor_id: str, job_id: str) -> str:
    """Prefix under which all of a job's objects live."""
    return f"{JOBS_PREFIX}/{executor_id}/{job_id}"


def call_input_key(executor_id: str, job_id: str, call_id: int) -> str:
    """Key of the pickled input payload of one call."""
    return f"{job_prefix(executor_id, job_id)}/{call_id:05d}/input.pickle"


def call_output_key(executor_id: str, job_id: str, call_id: int) -> str:
    """Key of the pickled result of one call."""
    return f"{job_prefix(executor_id, job_id)}/{call_id:05d}/output.pickle"


def call_status_key(executor_id: str, job_id: str, call_id: int) -> str:
    """Key of the JSON status marker of one call."""
    return f"{job_prefix(executor_id, job_id)}/{call_id:05d}/status.json"


def shuffle_map_output_key(prefix: str, mapper_id: int) -> str:
    """Key of one mapper's combined (write-combined) partition object."""
    return f"{prefix}/shuffle/m{mapper_id:05d}/combined.bin"


def shuffle_output_key(prefix: str, reducer_id: int) -> str:
    """Key of one reducer's sorted output run."""
    return f"{prefix}/sorted/r{reducer_id:05d}.bin"
