"""Golden Gantt charts: every pipeline incarnation's bars, pinned.

For each of the five pipeline variants at logical scale 2048 and the
default seed, ``gantt_golden.json`` holds the rendered
:func:`~repro.workflows.gantt.workflow_gantt` text and the traced
:class:`~repro.workflows.gantt.GanttSpan` list (function, VM, cache and
wave bars; label, start, end and kind, floats bit for bit).  It is the
oracle for changes to where the chart reads its bars from: the same
run must draw the same picture.

Regenerate (only when the set of bars is meant to change)::

    PYTHONPATH=src python tests/workflows/test_gantt_golden.py --write
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys

import pytest

from repro.cloud import Cloud
from repro.core import (
    AUTO_SUPPORTED,
    CACHE_SUPPORTED,
    PURE_SERVERLESS,
    RELAY_SUPPORTED,
    VM_SUPPORTED,
    ExperimentConfig,
    run_pipeline,
)
from repro.sim import Simulator
from repro.workflows.gantt import spans_from_tracer, workflow_gantt

GOLDEN_PATH = pathlib.Path(__file__).with_name("gantt_golden.json")
CONFIG = ExperimentConfig(logical_scale=2048.0)
VARIANTS = (
    PURE_SERVERLESS,
    VM_SUPPORTED,
    AUTO_SUPPORTED,
    CACHE_SUPPORTED,
    RELAY_SUPPORTED,
)


@functools.cache
def run_cell(variant: str) -> dict:
    """One traced run of ``variant``: its chart lines and its bars."""
    cloud = Cloud(Simulator(seed=CONFIG.seed, spans=True), CONFIG.make_profile())
    run = run_pipeline(CONFIG, variant, cloud=cloud)
    return {
        "chart": workflow_gantt(run.workflow.tracker, cloud.sim.tracer).splitlines(),
        "spans": [
            [span.label, span.start, span.end, span.kind]
            for span in spans_from_tracer(cloud.sim.tracer)
        ],
    }


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_variant():
    assert list(golden()) == list(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_gantt_spans_are_bit_equal(variant):
    assert run_cell(variant)["spans"] == golden()[variant]["spans"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_rendered_chart_is_equal(variant):
    assert run_cell(variant)["chart"] == golden()[variant]["chart"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN_PATH.write_text(
        json.dumps({variant: run_cell(variant) for variant in VARIANTS}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
