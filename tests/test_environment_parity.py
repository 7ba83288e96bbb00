"""Simulated outcomes do not depend on the environment they run in.

The executor pickles every ``(func, task)`` it ships and the store bills
the pickled bytes, so anything the environment can reach through that
wire moves simulated seconds and dollars.  Each case below runs three
``sim_golden`` cells in a fresh interpreter under one change of
environment — a retired kernel switch, tracing on, a random hash seed,
the package imported from a copy one directory deeper — and holds every
outcome field to ``sim_golden.json``.

The last test keeps new environment knobs out of ``src/repro``: the
``REPRO_TRACE`` flag in ``obs/trace.py`` is the only variable the
package reads.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

from tests.shuffle.test_sim_golden import GOLDEN_PATH, split_schedule

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
CELLS = ("staged-objectstore", "streaming-objectstore", "table1-serverless")

#: Every variable a case sets, scrubbed from the inherited environment
#: so each case differs from the golden run in exactly one respect.
CASE_VARIABLES = ("REPRO_KERNELS", "REPRO_TRACE", "PYTHONHASHSEED")

RUNNER = """
import json, sys
import repro
from tests.shuffle.test_sim_golden import run_cell
cells = {name: run_cell(name) for name in sys.argv[1:]}
print(json.dumps({"package": repro.__file__, "cells": cells}))
"""


def run_cells(src: pathlib.Path, cwd: pathlib.Path, **variables: str) -> dict:
    """``CELLS`` run in a fresh interpreter importing ``repro`` from ``src``."""
    env = {key: value for key, value in os.environ.items() if key not in CASE_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(REPO)])
    completed = subprocess.run(
        [sys.executable, "-c", RUNNER, *CELLS],
        env=env, cwd=cwd, capture_output=True, text=True, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert pathlib.Path(report["package"]).is_relative_to(src)
    return report["cells"]


@pytest.mark.parametrize(
    "case", ["REPRO_KERNELS=scalar", "REPRO_TRACE=1", "PYTHONHASHSEED=random", "deeper-src"]
)
def test_simulated_outcome_ignores_the_environment(case, tmp_path):
    src, variables = SRC, {}
    if case == "deeper-src":
        src = tmp_path / "one" / "deeper" / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    elif case == "PYTHONHASHSEED=random":
        variables["PYTHONHASHSEED"] = str(random.SystemRandom().randrange(1, 2**32))
    else:
        name, value = case.split("=")
        variables[name] = value
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    observed = run_cells(src, tmp_path, **variables)
    for name in CELLS:
        assert split_schedule(observed[name])[0] == split_schedule(golden[name])[0], (
            name, variables,
        )


#: Modules allowed to read the environment.
ENVIRONMENT_READERS = {"obs/trace.py"}


def environment_reads(path: pathlib.Path) -> list[int]:
    """Lines of ``path`` that touch ``os.environ`` or ``os.getenv``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in ("environ", "getenv") for alias in node.names)
        ):
            lines.append(node.lineno)
    return lines


def test_only_the_trace_flag_reads_the_environment():
    package = SRC / "repro"
    reads = [
        f"{path.relative_to(package).as_posix()}:{line}"
        for path in sorted(package.rglob("*.py"))
        for line in environment_reads(path)
    ]
    assert [site for site in reads if site.split(":")[0] not in ENVIRONMENT_READERS] == []
    assert any(site.startswith("obs/trace.py:") for site in reads)
