"""Job tracking with per-stage cost breakdown.

The paper's demo includes "a IPython interface for job tracking in real
time, which displays the workflow progress and breaks the cost down at
each stage".  This is the headless equivalent: the engine feeds the
tracker stage events; the tracker renders progress tables and exposes
the same numbers programmatically.

Dollars come from the :class:`~repro.cloud.billing.CostMeter`: a
stage's cost is the in-order sum of the lines tagged ``stage=<name>``
plus the run's own tags (``tenant``, ...).  The engine's process owns
those tags for the span of the stage, and every process the stage
starts inherits them, so a line billed after the stage has ended (a
relay fleet terminated later) still reaches it, and a workflow running
beside others on the same region is charged only its own lines.
"""

from __future__ import annotations

import dataclasses
import typing as t


@dataclasses.dataclass(slots=True)
class StageReport:
    """Execution record of one stage."""

    name: str
    kind: str
    status: str = "pending"  # pending | running | done | failed
    started_at: float | None = None
    finished_at: float | None = None
    detail: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    @property
    def duration_s(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def drift(self) -> float | None:
        """Actual over predicted seconds for sort stages (None otherwise).

        1.0 is a perfect prediction; the S11 SLO gate allows a factor
        of two either way.
        """
        predicted = self.detail.get("predicted_s")
        actual = self.detail.get("actual_s")
        if not predicted or actual is None:
            return None
        return actual / predicted


class JobTracker:
    """Collects stage progress and renders it for humans."""

    def __init__(self, workflow_name: str, meter, tags: dict[str, str] | None = None):
        self.workflow_name = workflow_name
        #: :class:`~repro.cloud.billing.CostMeter` whose lines tagged
        #: ``stage=<name>`` and :attr:`tags` are a stage's dollars.
        self.meter = meter
        self.tags = dict(tags or {})
        self.reports: dict[str, StageReport] = {}
        self._order: list[str] = []
        self.log: list[str] = []

    # ------------------------------------------------------------------
    # engine-facing API
    # ------------------------------------------------------------------
    def stage_registered(self, name: str, kind: str) -> None:
        self.reports[name] = StageReport(name=name, kind=kind)
        self._order.append(name)

    def stage_started(self, name: str, time: float) -> None:
        report = self.reports[name]
        report.status = "running"
        report.started_at = time
        self.log.append(f"[{time:10.2f}s] {name}: started")

    def stage_finished(
        self,
        name: str,
        time: float,
        detail: dict[str, t.Any] | None = None,
    ) -> None:
        report = self.reports[name]
        report.status = "done"
        report.finished_at = time
        if detail:
            report.detail.update(detail)
        self.log.append(
            f"[{time:10.2f}s] {name}: done "
            f"({report.duration_s:.2f}s, ${self.stage_cost_usd(name):.6f})"
        )

    def stage_failed(self, name: str, time: float, error: BaseException) -> None:
        report = self.reports[name]
        report.status = "failed"
        report.finished_at = time
        self.log.append(f"[{time:10.2f}s] {name}: FAILED ({error!r})")

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def total_cost_usd(self) -> float:
        return sum(self.cost_breakdown().values())

    def stage_cost_usd(self, name: str) -> float:
        """Dollars of the meter's lines that stage ``name`` of this run owns."""
        lines = self.meter.filtered(**{**self.tags, "stage": name})
        return sum((line.usd for line in lines), 0.0)

    def cost_breakdown(self) -> dict[str, float]:
        """Stage name → dollars, in execution order."""
        return {name: self.stage_cost_usd(name) for name in self._order}

    def render(self) -> str:
        """Progress table: one row per stage, drift on sort stages."""
        costs = self.cost_breakdown()
        rows = [
            f"Workflow: {self.workflow_name}",
            f"{'stage':<22} {'kind':<18} {'status':<8} "
            f"{'duration':>10} {'cost ($)':>12} {'drift':>7}",
            "-" * 82,
        ]
        for name in self._order:
            report = self.reports[name]
            duration = (
                f"{report.duration_s:.2f}s" if report.duration_s is not None else "-"
            )
            drift = f"{report.drift:.2f}x" if report.drift is not None else "-"
            rows.append(
                f"{report.name:<22} {report.kind:<18} {report.status:<8} "
                f"{duration:>10} {costs[name]:>12.6f} {drift:>7}"
            )
        rows.append("-" * 82)
        rows.append(f"{'TOTAL':<50} {self.total_cost_usd:>23.6f}")
        return "\n".join(rows)
