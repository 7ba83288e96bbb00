"""Exact-parity goldens for the experiment sweeps: every row value pinned.

The per-sweep tests check shapes (row counts, orderings, tolerances) at
tiny scale; ``sweep_online``, ``sweep_service``, ``sweep_startup``,
``sweep_exchange_faults`` and ``sweep_exchange_speculation`` had no
tier-1 test at all.  This suite runs every sweep once at
``logical_scale=16384``, seed 2021, and holds it to a sha256 over the
``repr`` of every row value in key order, the row keys themselves, and
the event schedule the run popped (``recorded_schedule`` of
``tests/shuffle/test_sim_golden.py``) — so a refactor of the
experiments layer shows here, in seconds, that not one simulated
float, digest, row key or event moved.  As in ``test_sim_golden.py``,
rows and schedule are separate tests over one run of the sweep.

Sweeps are called with their defaults, which are the committed
artifacts' axes, except where an axis is trimmed for tier-1
(:data:`TRIMMED`).  An untrimmed sweep whose ``EXPERIMENTS`` row pins
no field is the very cell tier-1's CLI tests run, so its golden reads
that cell from the session cache (``experiment_cell`` in
``conftest.py``, which records the schedule during its one run)
instead of simulating it again; the trimmed sweeps and S8b (golden at
3.5 GB, the row pins 14 GB) run on their own.  ``_report`` is left out
of the hash: it renders host throughput (``records_per_sec``).

Regenerate (only for an intended model change, never for a refactor)::

    PYTHONPATH=src:. python tests/experiments/test_sweeps_golden.py --write
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import pathlib
import sys
import typing as t

import pytest

from repro.core import ExperimentConfig
from repro.experiments import EXPERIMENTS, sweeps
from tests.experiments.conftest import SCALE, SEED
from tests.shuffle.test_sim_golden import recorded_schedule, split_schedule

GOLDEN_PATH = pathlib.Path(__file__).with_name("sweeps_golden.json")
CONFIG = ExperimentConfig(logical_scale=SCALE, seed=SEED)

#: Every sweep the golden holds.
SWEEPS = (
    "sweep_workers", "sweep_size", "sweep_storage_ops", "sweep_startup",
    "sweep_codec", "sweep_memory", "sweep_io_ablation", "sweep_exchange",
    "sweep_relay_shards", "sweep_streaming", "sweep_skew", "sweep_online",
    "sweep_fault_rate", "sweep_speculation", "sweep_exchange_faults",
    "sweep_exchange_speculation", "sweep_tuner", "sweep_service",
)

#: Sweep → the axes its golden run passes beyond ``CONFIG``: trims of a
#: sweep too heavy for tier-1.
TRIMMED: dict[str, dict[str, t.Any]] = {
    "sweep_storage_ops": {"ops_rates": (100, 1000, 8000)},
    "sweep_codec": {"record_counts": (10_000, 50_000)},
    "sweep_exchange": {"worker_counts": (4, 16)},
    "sweep_tuner": {"worker_candidates": (4, 8, 16, 32)},
}


def row_of(name: str):
    """The ``EXPERIMENTS`` row that runs sweep ``name``."""
    [row] = [
        row for row in EXPERIMENTS.values()
        if inspect.unwrap(row.run) is getattr(sweeps, name)
    ]
    return row


def shares_cell(name: str) -> bool:
    """Whether the golden run of ``name`` is its row's tier-1 cell: the
    same sweep at the same scale, seed and axes (no trim, and the row
    pins no field)."""
    return name not in TRIMMED and row_of(name).configure(CONFIG) == CONFIG


#: Row keys that carry host timings and so cannot be pinned.
HOST_TIMED_KEYS = ("_report",)


def summary(rows: list[dict], schedule: dict) -> dict:
    """What the golden pins of one run of a sweep."""
    digest = hashlib.sha256()
    for row in rows:
        for key, value in row.items():
            if key not in HOST_TIMED_KEYS:
                digest.update(f"{key}={value!r};".encode())
    return {
        "rows": len(rows),
        "keys": [key for key in rows[0] if key not in HOST_TIMED_KEYS],
        "sha256": digest.hexdigest(),
        **schedule,
    }


def observe(name: str) -> dict:
    """Run sweep ``name`` for its golden."""
    with recorded_schedule() as schedule:
        rows = getattr(sweeps, name)(CONFIG, **TRIMMED.get(name, {}))
    return summary(rows, schedule)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def observed(experiment_cell) -> t.Callable[[str], dict]:
    """``observe``, run once per sweep per session, or read off the
    shared cell."""

    @functools.cache
    def observe_once(name: str) -> dict:
        if shares_cell(name):
            cell = experiment_cell(row_of(name).name)
            return summary(cell.rows, cell.schedule)
        return observe(name)

    return observe_once


def test_golden_covers_exactly_the_sweeps(golden):
    assert sorted(golden) == sorted(SWEEPS)


def test_only_trimmed_sweeps_and_s8b_run_their_own_cells():
    own = [name for name in SWEEPS if not shares_cell(name)]
    assert own == [
        "sweep_storage_ops", "sweep_codec", "sweep_exchange",
        "sweep_relay_shards", "sweep_tuner",
    ]


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_rows_are_bit_equal(golden, observed, name):
    assert split_schedule(observed(name))[0] == split_schedule(golden[name])[0]


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_schedule_is_bit_equal(golden, observed, name):
    assert split_schedule(observed(name))[1] == split_schedule(golden[name])[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(
        json.dumps({name: observe(name) for name in SWEEPS}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
