"""Futures returned by the function executors.

A :class:`ResponseFuture` tracks one call through its life cycle and
carries the timing/billing stats the job monitor displays.  Futures are
simulation-side objects: waiting on one means yielding
``future.done_event`` inside a process.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as t

from repro.errors import ExecutorError
from repro.sim import SimEvent


class CallState(enum.Enum):
    """Life cycle of one executor call."""

    NEW = "new"
    INVOKED = "invoked"
    SUCCESS = "success"
    ERROR = "error"


@dataclasses.dataclass(slots=True)
class CallStats:
    """Timings (virtual seconds) and sizes for one call."""

    submitted_at: float = 0.0
    finished_at: float = 0.0
    input_bytes: int = 0
    output_bytes: int = 0
    worker: str = ""


class ResponseFuture:
    """Handle to one asynchronous call (FaaS activation or VM task)."""

    def __init__(
        self,
        call_id: int,
        job_id: str,
        executor_id: str,
        done_event: SimEvent,
        output_ref: tuple[str, str] | None,
    ):
        self.call_id = call_id
        self.job_id = job_id
        self.executor_id = executor_id
        #: Triggers when the call finishes (value: worker status dict).
        self.done_event = done_event
        #: ``(bucket, key)`` of the pickled result, if stored remotely.
        self.output_ref = output_ref
        self.state = CallState.INVOKED
        self.stats = CallStats()
        self._result: object = None
        self._result_fetched = False
        done_event.add_callback(self._on_done)

    def _on_done(self, event: SimEvent) -> None:
        self.state = CallState.SUCCESS if event.ok else CallState.ERROR

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.done_event.triggered

    @property
    def error(self) -> BaseException | None:
        """The call's failure, if it failed."""
        if not self.done_event.triggered:
            return None
        return self.done_event.exception

    @property
    def status(self) -> dict:
        """Worker-reported status payload (raises if the call failed)."""
        if not self.done_event.triggered:
            raise ExecutorError(
                f"call {self.job_id}/{self.call_id} has not finished yet"
            )
        return t.cast(dict, self.done_event.value)

    def _store_result(self, value: object) -> None:
        self._result = value
        self._result_fetched = True

    @property
    def result_ready(self) -> bool:
        """Whether the result payload has been fetched from storage."""
        return self._result_fetched

    @property
    def result(self) -> object:
        """The call's return value, once fetched by the executor."""
        if not self._result_fetched:
            raise ExecutorError(
                f"result of call {self.job_id}/{self.call_id} not fetched yet; "
                "use executor.get_result(...)"
            )
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResponseFuture {self.executor_id}/{self.job_id}/{self.call_id} "
            f"{self.state.value}>"
        )
