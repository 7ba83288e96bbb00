"""Job bookkeeping for the executors."""

from __future__ import annotations

import dataclasses

from repro.executor.futures import ResponseFuture


@dataclasses.dataclass(slots=True)
class JobRecord:
    """One submitted job (a batch of calls sharing a function)."""

    job_id: str
    function_name: str
    call_count: int
    submitted_at: float
    futures: list[ResponseFuture] = dataclasses.field(default_factory=list)
    finished_at: float | None = None
