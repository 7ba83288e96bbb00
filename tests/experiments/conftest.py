"""One simulation per experiment cell per session.

A cell is an ``EXPERIMENTS`` row at one (scale, seed).  ``experiment_cell``
simulates each cell once and hands it to every test that asks; the CLI's
dispatch of a row reads from the same cache, so the dispatch test, the
claims test and the sweep smoke tests share one run per cell.  The guard
counts every run of an ``EXPERIMENTS`` row in this package, cached or
not, and fails the test that simulates a cell a second time.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import typing as t

import pytest

from repro.core import ExperimentConfig
from repro.experiments import EXPERIMENTS, cli, run_experiment
from repro.obs.metrics import registry, reset_registry

#: The scale the CLI's tier-1 tests run at, and the CLI's default seed.
SCALE, SEED = 16384.0, 2021


class SimulationCounter(collections.Counter):
    """Simulations per (row, scale, seed); a second one is an error."""

    def record(self, key: tuple[str, float, int]) -> None:
        self[key] += 1
        if self[key] > 1:
            raise AssertionError(f"cell {key} simulated twice in one session")


@dataclasses.dataclass
class Cell:
    rows: list[dict]
    #: Metric name → the metric as the cell's run left it, from empty.
    metrics: dict[str, t.Any]


@pytest.fixture(scope="session", autouse=True)
def simulations() -> t.Iterator[SimulationCounter]:
    """Every ``EXPERIMENTS`` row, counting its runs by cell."""
    counter = SimulationCounter()

    def counted(experiment):
        @functools.wraps(experiment.run)
        def run(config):
            counter.record((experiment.name, config.logical_scale, config.seed))
            return experiment.run(config)

        return dataclasses.replace(experiment, run=run)

    with pytest.MonkeyPatch.context() as patch:
        for name, experiment in EXPERIMENTS.items():
            patch.setitem(EXPERIMENTS, name, counted(experiment))
        yield counter


@pytest.fixture(scope="session")
def experiment_cell(simulations) -> t.Callable[..., Cell]:
    """``experiment_cell(name, scale, seed)``: the cell, simulated on first use."""
    cells: dict[tuple[str, float, int], Cell] = {}

    def cell(name: str, scale: float = SCALE, seed: int = SEED) -> Cell:
        if (name, scale, seed) not in cells:
            reset_registry()
            rows = run_experiment(
                EXPERIMENTS[name], ExperimentConfig(logical_scale=scale, seed=seed)
            )
            metrics = {metric.name: metric for metric in registry().metrics()}
            cells[name, scale, seed] = Cell(rows, metrics)
        return cells[name, scale, seed]

    return cell


@pytest.fixture(scope="session", autouse=True)
def cli_reads_the_cache(experiment_cell) -> t.Iterator[None]:
    """Route the CLI's dispatch of a row through ``experiment_cell``."""

    def cached(experiment, config):
        return experiment_cell(experiment.name, config.logical_scale, config.seed).rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_experiment", cached)
        yield
