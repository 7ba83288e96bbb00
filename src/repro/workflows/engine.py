"""Workflow execution engine.

Runs a :class:`~repro.workflows.dag.WorkflowDag` on a simulated
:class:`~repro.cloud.environment.Cloud`.  Stage *kinds* are resolved
against a registry of implementations (see
:func:`register_stage_kind`); the library pre-registers the kinds the
METHCOMP pipelines need in :mod:`repro.core.stages`.

Stages execute in deterministic topological order, one at a time — the
Lithops model, where parallelism lives *inside* a stage (its map jobs),
not across stages.

A run's dollars are attributed by owner, not by time window: the
engine's process owns the run's ``meter_tags`` over the owner it
inherited, plus ``stage=<name>`` while a stage runs, and every process
a stage starts inherits that owner (:mod:`repro.sim.process`).  A
stage's cost is therefore exact even for lines billed after it ended,
and even when other workflows share the region at the same time.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cloud.environment import Cloud
from repro.errors import WorkflowError
from repro.sim import SimEvent
from repro.workflows.dag import StageSpec, WorkflowDag
from repro.workflows.tracker import JobTracker

#: Stage implementation: generator taking (StageContext, inputs dict)
#: and returning the stage's artifact (any picklable value).
StageImpl = t.Callable[["StageContext", dict[str, t.Any]], t.Generator]

_STAGE_KINDS: dict[str, StageImpl] = {}


def register_stage_kind(kind: str, impl: StageImpl, replace: bool = False) -> None:
    """Register an implementation for stage ``kind``."""
    if kind in _STAGE_KINDS and not replace:
        raise WorkflowError(f"stage kind already registered: {kind!r}")
    _STAGE_KINDS[kind] = impl


def stage_kind(kind: str) -> StageImpl:
    """Look up a stage implementation."""
    try:
        return _STAGE_KINDS[kind]
    except KeyError:
        raise WorkflowError(
            f"unknown stage kind {kind!r}; registered: {sorted(_STAGE_KINDS)}"
        ) from None


def registered_kinds() -> list[str]:
    return sorted(_STAGE_KINDS)


class StageContext:
    """What a stage implementation may touch."""

    def __init__(self, engine: "WorkflowEngine", spec: StageSpec):
        self.engine = engine
        self.cloud: Cloud = engine.cloud
        self.sim = engine.cloud.sim
        self.bucket = engine.dag.bucket
        self.spec = spec
        self.params = dict(spec.params)

    def param(self, key: str, default: t.Any = None, required: bool = False) -> t.Any:
        if required and key not in self.params:
            raise WorkflowError(
                f"stage {self.spec.name!r} requires parameter {key!r}"
            )
        return self.params.get(key, default)


@dataclasses.dataclass(slots=True)
class WorkflowResult:
    """Outcome of one workflow run."""

    name: str
    makespan_s: float
    cost_usd: float
    artifacts: dict[str, t.Any]
    tracker: JobTracker

    def stage_duration(self, name: str) -> float:
        duration = self.tracker.reports[name].duration_s
        if duration is None:
            raise WorkflowError(f"stage {name!r} did not finish")
        return duration


class WorkflowEngine:
    """Executes one DAG on one simulated cloud region."""

    def __init__(
        self,
        cloud: Cloud,
        dag: WorkflowDag,
        meter_tags: dict[str, str] | None = None,
    ):
        self.cloud = cloud
        self.dag = dag
        #: Attribution tags stamped on every cost line of the whole run
        #: (tenant, experiment id, ...), over the owner the run's
        #: process inherits; a key a stage sets (``stage``) wins.
        self.meter_tags = dict(meter_tags or {})
        self.tracker = JobTracker(dag.name, cloud.meter, self.meter_tags)
        for stage in dag.topological_order():
            stage_kind(stage.kind)  # fail fast on unknown kinds
            self.tracker.stage_registered(stage.name, stage.kind)

    # ------------------------------------------------------------------
    def run(self) -> SimEvent:
        """Start the workflow; the event carries a :class:`WorkflowResult`."""
        return self.cloud.sim.process(
            self._run(), name=f"workflow.{self.dag.name}"
        ).completion

    def execute(self) -> WorkflowResult:
        """Convenience: run the simulation to workflow completion."""
        return t.cast(WorkflowResult, self.cloud.sim.run(until=self.run()))

    # ------------------------------------------------------------------
    def _run(self) -> t.Generator:
        sim = self.cloud.sim
        process = sim.active_process
        run_owner = tuple(sorted({**dict(process.owner), **self.meter_tags}.items()))
        process.owner = run_owner
        started_at = sim.now
        self.cloud.store.ensure_bucket(self.dag.bucket)
        artifacts: dict[str, t.Any] = {}
        run_span = sim.tracer.span(
            f"workflow:{self.dag.name}", category="workflow",
            stages=len(self.dag.stages),
        )
        with run_span:
            for spec in self.dag.topological_order():
                impl = stage_kind(spec.kind)
                context = StageContext(self, spec)
                inputs = {name: artifacts[name] for name in spec.after}
                process.owner = tuple(sorted({**dict(run_owner), "stage": spec.name}.items()))
                self.tracker.stage_started(spec.name, sim.now)
                stage_span = sim.tracer.span(
                    f"stage:{spec.name}", category="stage",
                    parent=run_span, kind=spec.kind,
                )
                try:
                    with stage_span:
                        artifact = yield from impl(context, inputs)
                except Exception as exc:
                    self.tracker.stage_failed(spec.name, sim.now, exc)
                    raise
                finally:
                    process.owner = run_owner
                detail = artifact if isinstance(artifact, dict) else {}
                self.tracker.stage_finished(
                    spec.name,
                    sim.now,
                    detail={k: v for k, v in detail.items() if isinstance(v, (int, float, str))},
                )
                artifacts[spec.name] = artifact
        return WorkflowResult(
            name=self.dag.name,
            makespan_s=sim.now - started_at,
            cost_usd=self.tracker.total_cost_usd,
            artifacts=artifacts,
            tracker=self.tracker,
        )
