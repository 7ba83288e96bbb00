"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts (or
a supporting ablation).  Since pytest captures stdout, each bench also
writes its regenerated table to ``benchmarks/results/<name>.txt`` so the
artifacts survive a plain ``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import collections
import json
import pathlib
import time

import pytest

from repro.core import ExperimentConfig
from repro.experiments import EXPERIMENTS, render_experiment, run_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_DIR = pathlib.Path(__file__).parent

#: Per-module wall-clock of the bench items that actually ran, written
#: to ``results/bench_wallclock.json`` at session end so CI can hold the
#: harness against the committed baseline (``check_wallclock.py``).
_module_wallclock: dict[str, float] = collections.defaultdict(float)


def _calibration_seconds() -> float:
    """Wall-clock of a fixed pure-python busy loop.

    A machine-speed yardstick stored next to the measured totals:
    ``check_wallclock.py`` scales the baseline by the calibration ratio
    so a slower CI runner is not mistaken for a code regression.
    """
    start = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value
    assert total > 0
    return time.perf_counter() - start


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    start = time.perf_counter()
    yield
    path = pathlib.Path(str(item.fspath))
    # This conftest is loaded whenever benchmarks/ is collected, but the
    # hook then fires for *every* item in the run — only bench modules
    # belong in the bench wall-clock.
    if path.is_relative_to(BENCH_DIR):
        _module_wallclock[path.stem] += time.perf_counter() - start


def pytest_sessionfinish(session, exitstatus):
    if session.config.option.collectonly or not _module_wallclock:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    modules = {name: round(seconds, 4) for name, seconds in sorted(_module_wallclock.items())}
    payload = {
        "total_s": round(sum(_module_wallclock.values()), 4),
        "modules": modules,
        "calibration_s": round(_calibration_seconds(), 4),
    }
    (RESULTS_DIR / "bench_wallclock.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


@pytest.fixture(scope="session")
def record_result():
    """``record_result(name, text)`` — print and persist an artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n=== {name} ===")
        print(text)

    return _record


@pytest.fixture(scope="session")
def _regenerated() -> dict[str, list[dict]]:
    """Rows of the experiments this session has regenerated, by name."""
    return {}


@pytest.fixture
def regenerate(request, record_result, bench_scale, _regenerated):
    """``regenerate(name)`` — the rows of one ``EXPERIMENTS`` row.

    The first call for a name runs the experiment at ``bench_scale``
    under ``benchmark.pedantic`` (one round) and records its table under
    the row's result stem; later calls — the other tests of the module
    asserting on the same rows — get those rows back without a re-run.
    """

    def _regenerate(name: str) -> list[dict]:
        if name not in _regenerated:
            experiment = EXPERIMENTS[name]
            config = ExperimentConfig(logical_scale=bench_scale)
            rows = request.getfixturevalue("benchmark").pedantic(
                lambda: run_experiment(experiment, config), rounds=1, iterations=1
            )
            record_result(
                experiment.result, render_experiment(experiment, rows, result=True)
            )
            _regenerated[name] = rows
        return _regenerated[name]

    return _regenerate


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Logical-to-real scale used by the simulation-heavy benchmarks.

    1024 keeps real data at ~3.4 MB for the 3.5 GB experiments: heavy
    enough to exercise every real code path, light enough for CI.
    """
    return 1024.0
