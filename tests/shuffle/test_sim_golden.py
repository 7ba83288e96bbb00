"""Exact-parity goldens: simulated outcomes pinned bit for bit.

The other suites check byte parity between substrates and tolerances on
simulated time; none pins *bit-equal* simulated time, dollars and
request counts.  This one does, at one small scale and seed, for every
exchange substrate in both execution modes through its stage kind, the
adaptive sort, the in-VM sort, the online sort benchmark S12 runs and
both Table 1 pipelines — public surfaces only (stage kinds via
``parse_spec``, ``OnlineShuffleSort``, ``run_pipeline``).

It is the seconds-fast oracle for refactors of the exchange layer and
the standing guard on the *wire format*: the executor pickles every
``(func, task)`` it ships and the object store charges the pickled
size, so renaming a worker entry point or adding a task-dict key moves
``makespan_s`` in its last digits and fails here.

Each cell also pins the *event schedule*: how many events the kernel
fired (``sim_events``) and a hash over the popped ``(time, seq)``
sequence (``sim_schedule``), so a change meant only to make the
simulator faster shows here that no event moved.  Outcome and schedule
are separate tests over one run of the cell: a change that drops
events on purpose (fewer processes per request) rewrites only the
schedule fields and must leave every outcome test green.

Regenerate (only for an intended model change, never for a refactor)::

    PYTHONPATH=src python tests/shuffle/test_sim_golden.py --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import pathlib
import sys
import typing as t

import pytest

from repro.cloud import Cloud
from repro.core import PURE_SERVERLESS, VM_SUPPORTED, ExperimentConfig, run_pipeline
from repro.core.experiment import stage_input
from repro.core.stages import (
    STREAM_BUFFER_BYTES,
    STREAM_CHUNK_BYTES,
    STREAM_POLL_INTERVAL_S,
)
from repro.executor import FunctionExecutor
from repro.methcomp.pipeline import bed_record_codec
from repro.shuffle import OnlineShuffleSort, StreamConfig
from repro.sim import Simulator
from repro.workflows import WorkflowEngine, parse_spec

GOLDEN_PATH = pathlib.Path(__file__).with_name("sim_golden.json")
BUCKET = "pipeline"
INPUT_KEY = "input/methylome.bed"
CONFIG = ExperimentConfig(logical_scale=4096.0, seed=2021)

SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")

#: Cell name → (sort stage kind, params).  Workers are pinned at 8,
#: except in the two ``-planned`` cells: they run at the counts their
#: substrate's planner chose for this input (40 staged on object
#: storage, 30 streaming on the relay) back when a sort could plan its
#: own, and keep their names so the golden holds them unchanged.
SORT_CELLS: dict[str, tuple[str, dict]] = {
    "staged-objectstore": ("shuffle_sort", {"workers": 8}),
    "staged-cache": ("cache_sort", {"workers": 8}),
    "staged-relay": ("relay_sort", {"workers": 8}),
    "staged-sharded-relay": ("sharded_relay_sort", {"workers": 8}),
    **{
        f"streaming-{substrate}": (
            "streaming_sort", {"substrate": substrate, "workers": 8}
        )
        for substrate in SUBSTRATES
    },
    "staged-objectstore-planned": ("shuffle_sort", {"workers": 40}),
    "streaming-relay-planned": (
        "streaming_sort", {"substrate": "relay", "workers": 30}
    ),
    "staged-cache-cold-cleanup": (
        "cache_sort", {"workers": 8, "provisioning": "cold", "cleanup": True}
    ),
    "staged-sharded-relay-cold-autosized": (
        "sharded_relay_sort",
        {"workers": 8, "provisioning": "cold", "shards": 0, "consume": True},
    ),
    "auto": ("auto_sort", {"workers": 8}),
    "vm": ("vm_sort", {"partitions": 8}),
}

#: The online selector has no stage kind: its cell drives the operator
#: directly, as benchmark S12 does, at the streaming stage's constants.
ONLINE_CELL = "online"

PIPELINE_CELLS = {"table1-serverless": PURE_SERVERLESS, "table1-vm": VM_SUPPORTED}


def _digest(cloud: Cloud, runs: t.Iterable[dict]) -> str:
    digest = hashlib.sha256()
    for run in runs:
        digest.update(cloud.store.peek(run["bucket"], run["key"]))
    return digest.hexdigest()[:16]


def _observe(cloud: Cloud, runs: t.Iterable[dict], makespan_s: float, cost: float) -> dict:
    return {
        "digest": _digest(cloud, runs),
        "makespan_s": repr(makespan_s),
        "cost_usd": repr(cost),
        "store_requests": cloud.store.stats.total_requests,
        "faas_invocations": cloud.faas.stats.invocations,
    }


@contextlib.contextmanager
def recorded_schedule() -> t.Iterator[dict]:
    """Count fired events and hash the popped ``(time, seq)`` sequence.

    Wraps ``Simulator.step`` on the class for the duration, so every
    simulator a cell creates is seen and the kernel needs no counter of
    its own.  On exit the dict holds ``sim_events`` and ``sim_schedule``.
    """
    original = Simulator.step
    schedule = hashlib.sha256()
    observed = {"sim_events": 0}

    def step(sim: Simulator) -> bool:
        head = sim._heap[0] if sim._heap else None
        fired = original(sim)
        if fired:
            observed["sim_events"] += 1
            schedule.update(f"{head[0]!r},{head[1]};".encode())
        return fired

    Simulator.step = step
    try:
        yield observed
    finally:
        Simulator.step = original
        observed["sim_schedule"] = schedule.hexdigest()[:16]


def run_sort_cell(kind: str, params: dict, config: ExperimentConfig = CONFIG) -> dict:
    cloud = Cloud(Simulator(seed=config.seed), config.make_profile())
    stage_input(cloud, config, BUCKET, INPUT_KEY)
    dag = parse_spec(
        {
            "name": "golden",
            "bucket": BUCKET,
            "stages": [
                {"name": "ingest", "kind": "dataset_ref", "params": {"key": INPUT_KEY}},
                {"name": "sort", "kind": kind, "after": ["ingest"],
                 "params": {"memory_mb": 2048, "max_workers": 256, **params}},
            ],
        }
    )
    engine = WorkflowEngine(cloud, dag)
    engine.workload = config.workload
    marker = cloud.meter.snapshot()
    result = engine.execute()
    cloud.finalize()
    return _observe(
        cloud,
        result.artifacts["sort"]["runs"],
        result.makespan_s,
        cloud.meter.since(marker).total_usd,
    )


def run_online_cell(config: ExperimentConfig = CONFIG) -> dict:
    cloud = Cloud(Simulator(seed=config.seed), config.make_profile())
    stage_input(cloud, config, BUCKET, INPUT_KEY)
    executor = FunctionExecutor(cloud, runtime_memory_mb=2048, bucket=BUCKET)
    operator = OnlineShuffleSort(
        executor,
        bed_record_codec(),
        stream=StreamConfig(
            STREAM_CHUNK_BYTES, STREAM_BUFFER_BYTES, STREAM_POLL_INTERVAL_S
        ),
        cost=config.workload.shuffle_cost_model(),
    )

    def driver() -> t.Generator:
        return (
            yield operator.sort(
                BUCKET, INPUT_KEY, out_bucket=BUCKET, out_prefix="sort",
                workers=8,
            )
        )

    marker = cloud.meter.snapshot()
    result = cloud.sim.run_process(driver())
    cloud.finalize()
    runs = [{"bucket": run.bucket, "key": run.key} for run in result.runs]
    return _observe(
        cloud, runs, result.duration_s, cloud.meter.since(marker).total_usd
    )


def run_pipeline_cell(variant: str) -> dict:
    run = run_pipeline(CONFIG, variant)
    return _observe(
        run.cloud, run.workflow.artifacts["sort"]["runs"], run.latency_s, run.cost_usd
    )


def run_cell(name: str) -> dict:
    with recorded_schedule() as schedule:
        if name in PIPELINE_CELLS:
            observed = run_pipeline_cell(PIPELINE_CELLS[name])
        elif name == ONLINE_CELL:
            observed = run_online_cell()
        else:
            observed = run_sort_cell(*SORT_CELLS[name])
    return {**observed, **schedule}


ALL_CELLS = (*SORT_CELLS, ONLINE_CELL, *PIPELINE_CELLS)

#: The fields ``recorded_schedule`` adds; every other field is an outcome.
SCHEDULE_FIELDS = ("sim_events", "sim_schedule")


def split_schedule(record: dict) -> tuple[dict, dict]:
    """``(outcome fields, schedule fields)`` of one golden record."""
    outcome = {key: value for key, value in record.items() if key not in SCHEDULE_FIELDS}
    schedule = {key: value for key, value in record.items() if key in SCHEDULE_FIELDS}
    return outcome, schedule


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def cell() -> t.Callable[[str], dict]:
    """``run_cell``, run once per cell per session: the outcome and the
    schedule test of a cell read the same run."""
    return functools.cache(run_cell)


def test_golden_covers_exactly_the_cells(golden):
    assert sorted(golden) == sorted(ALL_CELLS)


@pytest.mark.parametrize("name", ALL_CELLS)
def test_simulated_outcome_is_bit_equal(golden, cell, name):
    assert split_schedule(cell(name))[0] == split_schedule(golden[name])[0]


@pytest.mark.parametrize("name", ALL_CELLS)
def test_event_schedule_is_bit_equal(golden, cell, name):
    assert split_schedule(cell(name))[1] == split_schedule(golden[name])[1]


def test_every_sort_cell_has_the_same_digest(golden):
    digests = {name: golden[name]["digest"] for name in ALL_CELLS}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("workers", [28, 32])
def test_wide_objectstore_streaming_sort_terminates(workers):
    """Regression (TokenBucket livelock): above W=24 the manifest
    pollers used to park ``cos.ops`` on a shortfall below the clock's
    float resolution and the sort never finished."""
    config = ExperimentConfig(logical_scale=1024.0, seed=2021)
    staged = run_sort_cell("shuffle_sort", {"workers": 8}, config)
    streaming = run_sort_cell(
        "streaming_sort", {"substrate": "objectstore", "workers": workers}, config
    )
    assert streaming["digest"] == staged["digest"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN_PATH.write_text(
        json.dumps({name: run_cell(name) for name in ALL_CELLS}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
