"""ASCII rendering of workflow DAGs (Figure 1 reproduction).

The paper's Figure 1 is an architecture diagram of the two METHCOMP
incarnations: purely serverless (A) and hybrid/VM-supported (B).  The
renderer draws any :class:`~repro.workflows.dag.WorkflowDag` as a
top-down ASCII diagram, annotating each stage with the substrate it
runs on — the textual equivalent of the figure.
"""

from __future__ import annotations

from repro.workflows.dag import WorkflowDag

#: stage kind → substrate label shown in the box.  Every registered
#: sort kind must have an entry here (regression-tested): a sort stage
#: falling back to the generic "cloud" label hides exactly the
#: substrate distinction Figure 1 exists to show.
_SUBSTRATE_LABELS = {
    "dataset_ref": "object storage",
    "shuffle_sort": "cloud functions",
    "vm_sort": "virtual machine",
    "cache_sort": "cloud functions + cache cluster",
    "relay_sort": "cloud functions + VM relay",
    "sharded_relay_sort": "cloud functions + VM relay fleet",
    "streaming_sort": "cloud functions + streaming exchange (pipelined waves)",
    "auto_sort": "cloud functions + adaptive exchange substrate",
    "methcomp_encode": "cloud functions",
    "methcomp_verify": "cloud functions",
}


def substrate_label(kind: str) -> str:
    """Substrate annotation for a stage kind ("cloud" for an unknown one)."""
    return _SUBSTRATE_LABELS.get(kind, "cloud")


def _box(lines: list[str]) -> list[str]:
    width = max(len(line) for line in lines)
    top = "+" + "-" * (width + 2) + "+"
    body = [f"| {line.ljust(width)} |" for line in lines]
    return [top, *body, top]


def render_dag(dag: WorkflowDag, title: str | None = None) -> str:
    """Draw the DAG top-down with substrate-annotated stage boxes.

    Data always flows through object storage between stages (the paper's
    data-passing mechanism), so edges are annotated with it.
    """
    out: list[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    order = dag.topological_order()
    for index, stage in enumerate(order):
        label = substrate_label(stage.kind)
        lines = [f"{stage.name}", f"kind: {stage.kind}", f"runs on: {label}"]
        interesting = {
            key: value
            for key, value in stage.params.items()
            if isinstance(value, (int, float, str))
        }
        if interesting:
            lines.append(
                "params: "
                + ", ".join(f"{key}={value}" for key, value in sorted(interesting.items()))
            )
        box = _box(lines)
        indent = "    "
        out.extend(indent + line for line in box)
        if index < len(order) - 1:
            out.append(indent + "        |")
            out.append(indent + "        |  (intermediate data via object storage)")
            out.append(indent + "        v")
    return "\n".join(out)


def render_side_by_side(left: str, right: str, gap: int = 6) -> str:
    """Join two rendered diagrams horizontally (Figure 1's A | B layout)."""
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    height = max(len(left_lines), len(right_lines))
    left_lines += [""] * (height - len(left_lines))
    right_lines += [""] * (height - len(right_lines))
    width = max((len(line) for line in left.splitlines()), default=0)
    return "\n".join(
        f"{l.ljust(width + gap)}{r}" for l, r in zip(left_lines, right_lines)
    )
