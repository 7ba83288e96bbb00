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

Sweeps are called with their defaults wherever those are the committed
artifact's axes; an axis is passed only to name the committed one where
the default has drifted from it (``sweep_startup``'s 99 s boot,
``sweep_io_ablation``'s W=64) or to trim a sweep too heavy for tier-1.
``_report`` is left out of the hash: it renders host throughput
(``records_per_sec``).

Regenerate (only for an intended model change, never for a refactor)::

    PYTHONPATH=src:. python tests/experiments/test_sweeps_golden.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys
import typing as t

import pytest

from repro.core import ExperimentConfig
from repro.experiments import sweeps
from tests.shuffle.test_sim_golden import recorded_schedule, split_schedule

GOLDEN_PATH = pathlib.Path(__file__).with_name("sweeps_golden.json")
CONFIG = ExperimentConfig(logical_scale=16384.0, seed=2021)

#: Sweep name → the call that regenerates its rows.
SWEEPS: dict[str, t.Callable[[], list[dict]]] = {
    "sweep_workers": lambda: sweeps.sweep_workers(CONFIG),
    "sweep_size": lambda: sweeps.sweep_size(CONFIG),
    "sweep_storage_ops": lambda: sweeps.sweep_storage_ops(
        CONFIG, ops_rates=(100, 1000, 8000)
    ),
    "sweep_startup": lambda: sweeps.sweep_startup(
        CONFIG, boot_times=(30.0, 60.0, 99.0, 180.0)
    ),
    "sweep_codec": lambda: sweeps.sweep_codec(record_counts=(10_000, 50_000)),
    "sweep_memory": lambda: sweeps.sweep_memory(CONFIG),
    "sweep_io_ablation": lambda: sweeps.sweep_io_ablation(
        CONFIG, worker_counts=(8, 16, 32, 64)
    ),
    "sweep_exchange": lambda: sweeps.sweep_exchange(CONFIG, worker_counts=(4, 16)),
    "sweep_relay_shards": lambda: sweeps.sweep_relay_shards(CONFIG),
    "sweep_streaming": lambda: sweeps.sweep_streaming(CONFIG),
    "sweep_skew": lambda: sweeps.sweep_skew(CONFIG),
    "sweep_online": lambda: sweeps.sweep_online(CONFIG),
    "sweep_fault_rate": lambda: sweeps.sweep_fault_rate(CONFIG),
    "sweep_speculation": lambda: sweeps.sweep_speculation(CONFIG),
    "sweep_exchange_faults": lambda: sweeps.sweep_exchange_faults(CONFIG),
    "sweep_exchange_speculation": lambda: sweeps.sweep_exchange_speculation(CONFIG),
    "sweep_tuner": lambda: sweeps.sweep_tuner(
        CONFIG, worker_candidates=(4, 8, 16, 32)
    ),
    "sweep_service": lambda: sweeps.sweep_service(CONFIG),
}

#: Row keys that carry host timings and so cannot be pinned.
HOST_TIMED_KEYS = ("_report",)


def observe(name: str) -> dict:
    with recorded_schedule() as schedule:
        rows = SWEEPS[name]()
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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def observed() -> t.Callable[[str], dict]:
    """``observe``, run once per sweep per session."""
    return functools.cache(observe)


def test_golden_covers_exactly_the_sweeps(golden):
    assert sorted(golden) == sorted(SWEEPS)


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
