"""The harness's own spans: name, start, end, parent.

Recorded around every call the benchmark makes into the program (stage
input, ``engine.execute``, digest, each sweep), kept in memory and
written out once at the end.  Off for the timed repetitions, so the
end-to-end metrics are measured with tracing off.
"""

from __future__ import annotations

import contextlib
import time


class SpanRecorder:
    """Nested host-clock spans; a disabled recorder records nothing."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attributes):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "id": index,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_s": time.perf_counter(),
            "end_s": None,
            **attributes,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter()
