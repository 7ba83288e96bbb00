"""Every example script must run clean (examples are executable docs).

Each example is executed in a subprocess with scaled-down parameters
where supported, and its output is sanity-checked.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "word counts: [4, 5, 4, 6]" in out
        assert "itemized bill" in out

    def test_methcomp_pipeline(self):
        out = run_example("methcomp_pipeline.py", "8192")
        assert "purely-serverless" in out
        assert "vm-supported" in out
        assert "METHCOMP compressed" in out

    def test_shuffle_sort(self):
        out = run_example("shuffle_sort.py")
        assert "output globally sorted: True" in out
        assert "planner optimum" in out

    def test_declarative_workflow(self):
        out = run_example("declarative_workflow.py")
        assert "verified" in out
        assert "cost breakdown" in out

    def test_worker_sweep(self):
        out = run_example("worker_sweep.py", "16384")
        assert "measured optimum" in out

    def test_cache_exchange(self):
        out = run_example("cache_exchange.py")
        assert "cache-supported" in out
        assert "node_second" in out
        assert "peak fill" in out

    def test_fault_tolerance(self):
        out = run_example("fault_tolerance.py")
        assert "crashy (p=0.2), speculation" in out
        assert "verified correct" in out

    def test_autotune_probe(self):
        out = run_example("autotune_probe.py")
        assert "static calibration picks" in out
        assert "online tuner picks" in out
        assert "MB/s" in out

    def test_pipeline_timeline(self):
        out = run_example("pipeline_timeline.py", "8192")
        assert "Workflow timeline: purely-serverless" in out
        assert "Workflow timeline: vm-supported" in out
        assert "%" in out  # the VM bar
        assert "cold start" in out
