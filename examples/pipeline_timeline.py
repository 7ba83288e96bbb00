#!/usr/bin/env python3
"""Draw where the time goes: Gantt charts of both pipeline incarnations.

The paper's demo shows a live job-tracking UI; this example renders the
equivalent offline picture from the run's span tracer.  Side by side,
the two charts make the paper's Table 1 visually obvious:

* the purely serverless pipeline is a wall of short, parallel function
  bars (cold starts marked with ``*``);
* the hybrid pipeline is dominated by one long VM bar — the instance's
  billed lifetime span — whose first ~100 seconds are provisioning,
  before any byte is sorted.

Run: ``python examples/pipeline_timeline.py [logical_scale]``
"""

import sys

from repro.cloud import Cloud
from repro.core import (
    PURE_SERVERLESS,
    VM_SUPPORTED,
    ExperimentConfig,
    run_pipeline,
)
from repro.sim import Simulator
from repro.workflows import workflow_gantt


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 2048.0
    config = ExperimentConfig(logical_scale=scale, parallelism=4)

    for variant in (PURE_SERVERLESS, VM_SUPPORTED):
        cloud = Cloud(
            Simulator(seed=config.seed, spans=True), config.make_profile()
        )
        run = run_pipeline(config, variant, cloud=cloud)
        print(workflow_gantt(run.workflow.tracker, cloud.sim.tracer,
                             max_rows=28))
        print(f"end-to-end: {run.latency_s:.2f} s, ${run.cost_usd:.4f}")
        print()


if __name__ == "__main__":
    main()
