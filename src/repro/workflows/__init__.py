"""Declarative DAG pipelines with cost tracking over the simulated cloud."""

from repro.workflows.dag import StageSpec, WorkflowDag
from repro.workflows.engine import (
    StageContext,
    StageImpl,
    WorkflowEngine,
    WorkflowResult,
    register_stage_kind,
    registered_kinds,
    stage_kind,
)
from repro.workflows.gantt import (
    GanttSpan,
    render_gantt,
    spans_from_tracer,
    spans_from_tracker,
    workflow_gantt,
)
from repro.workflows.render import (
    render_dag,
    render_side_by_side,
    substrate_label,
)
from repro.workflows.spec import dump_spec, load_spec_file, parse_spec
from repro.workflows.tracker import JobTracker, StageReport

__all__ = [
    "GanttSpan",
    "JobTracker",
    "StageContext",
    "StageImpl",
    "StageReport",
    "StageSpec",
    "WorkflowDag",
    "WorkflowEngine",
    "WorkflowResult",
    "dump_spec",
    "load_spec_file",
    "parse_spec",
    "register_stage_kind",
    "registered_kinds",
    "render_dag",
    "render_gantt",
    "spans_from_tracer",
    "spans_from_tracker",
    "workflow_gantt",
    "render_side_by_side",
    "stage_kind",
    "substrate_label",
]
