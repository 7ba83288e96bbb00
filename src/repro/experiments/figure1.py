"""Figure 1 regenerator: the two pipeline architectures, side by side.

The paper's Figure 1 is a diagram of the purely serverless (A) and
hybrid (B) incarnations of the genomics compression pipeline.  We render
the exact DAGs the experiment executes as annotated ASCII — same
content, headless medium.
"""

from __future__ import annotations

from repro.core.calibration import ExperimentConfig
from repro.core.pipelines import PURE_SERVERLESS, VM_SUPPORTED, pipeline_for
from repro.workflows.render import render_dag, render_side_by_side


def render_figure1(config: ExperimentConfig | None = None) -> str:
    """The Figure 1 reproduction as a printable string."""
    config = config if config is not None else ExperimentConfig()
    serverless = render_dag(
        pipeline_for(PURE_SERVERLESS, config),
        title="(B) Purely serverless",
    )
    hybrid = render_dag(
        pipeline_for(VM_SUPPORTED, config),
        title="(A) VM-supported (hybrid)",
    )
    header = (
        "Figure 1: implementations of the genomics compression pipeline\n"
        "(all intermediate data flows through object storage)\n"
    )
    return header + render_side_by_side(hybrid, serverless)


def main() -> None:  # pragma: no cover - CLI shim
    print(render_figure1())


if __name__ == "__main__":  # pragma: no cover
    main()
