"""Benchmark S16: content-addressed exchange — dedup, lineage, replay.

Three claims of the content-addressing work, held against the paper's
3.5 GB methylome sort:

* **dedup matrix** — the same sort run cold then warm on one cloud, for
  every substrate × execution mode.  The warm run must save wire bytes
  through content dedup (``dedup_bytes > 0``) while staying
  byte-identical to the cold run on every cell;
* **lineage cache** — re-running an identical ``auto_sort`` workflow
  stage must hit the warm-run lineage cache and come back at least an
  order of magnitude cheaper in *both* dollars and latency;
* **verifiable replay** — every warm run's hash-chained
  :class:`~repro.shuffle.content.RunManifest` must replay-verify clean
  (offline and against the store), and a tampered manifest must FAIL
  loudly through the CLI.  One manifest is persisted to
  ``benchmarks/results/s16_run_manifest.json`` as the CI artifact.
"""

import json
import pathlib

import pytest

from repro.core import ExperimentConfig, stage_input
from repro.experiments import format_rows
from repro.experiments.sweeps import _fresh_cloud, exchange_operator
from repro.executor import FunctionExecutor
from repro.shuffle.content import verify_manifest, verify_manifest_file
from repro.shuffle.streaming import StreamConfig

SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")
MODES = ("staged", "streaming")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _run_cell(config, substrate, mode):
    """Cold + warm identical sorts on one cloud; one matrix row."""
    cloud = _fresh_cloud(config)
    stage_input(cloud, config, "pipeline", "input/methylome.bed")
    executor = FunctionExecutor(
        cloud, runtime_memory_mb=config.function_memory_mb, bucket="pipeline"
    )
    stream = StreamConfig() if mode == "streaming" else None
    operator, provisioned = exchange_operator(
        executor, config, substrate, stream=stream
    )

    def one(prefix):
        marker = cloud.meter.snapshot()
        started = cloud.sim.now

        def driver():
            return (
                yield operator.sort(
                    "pipeline", "input/methylome.bed",
                    workers=16, out_prefix=prefix,
                )
            )

        result = cloud.sim.run_process(driver())
        return {
            "result": result,
            "latency_s": cloud.sim.now - started,
            "cost_usd": cloud.meter.since(marker).total_usd,
            "dedup_bytes": operator.report.extra.get("dedup_bytes", 0.0),
            "digest": _digest(cloud, result),
            "manifest": operator.run_manifest,
        }

    cold = one("cold")
    warm = one("warm")
    if provisioned is not None:
        provisioned.terminate()
    return cloud, cold, warm


def _digest(cloud, result):
    from repro.cas import output_digest

    return output_digest(cloud, result)


@pytest.fixture(scope="module")
def cas_matrix(bench_scale):
    config = ExperimentConfig(logical_scale=bench_scale)
    cells = {}
    for substrate in SUBSTRATES:
        for mode in MODES:
            cells[(substrate, mode)] = _run_cell(config, substrate, mode)
    return cells


def test_dedup_matrix(benchmark, record_result, cas_matrix):
    cells = benchmark.pedantic(lambda: cas_matrix, rounds=1, iterations=1)
    rows = []
    for (substrate, mode), (_cloud, cold, warm) in cells.items():
        rows.append([
            substrate,
            mode,
            round(cold["latency_s"], 2),
            round(warm["latency_s"], 2),
            round(cold["cost_usd"], 4),
            round(warm["cost_usd"], 4),
            round(warm["dedup_bytes"] / (1 << 20), 1),
            cold["digest"],
            warm["digest"],
        ])
    text = format_rows(
        ["substrate", "mode", "cold_s", "warm_s", "cold_usd", "warm_usd",
         "warm_dedup_mb", "cold_digest", "warm_digest"],
        rows,
        title="S16: content-addressed exchange — cold vs warm dedup (3.5 GB)",
    )
    record_result("s16_cas", text)

    for (substrate, mode), (_cloud, cold, warm) in cells.items():
        cell = f"{substrate}/{mode}"
        # The warm run saved wire bytes through content dedup (a cold
        # streaming run may self-dedup repeated chunks; the warm run
        # must save at least that plus the cross-run hits)...
        assert warm["dedup_bytes"] > 0, cell
        assert warm["dedup_bytes"] >= cold["dedup_bytes"], cell
        # ...at exact byte parity with the cold run.
        assert warm["digest"] == cold["digest"], cell


def test_every_run_replay_verifies(cas_matrix):
    """Each cell's manifests re-derive offline and against the store."""
    for (substrate, mode), (cloud, cold, warm) in cas_matrix.items():
        cell = f"{substrate}/{mode}"
        for run in (cold, warm):
            manifest = run["manifest"]
            assert manifest is not None, cell
            assert verify_manifest(manifest) == [], cell
            assert verify_manifest(manifest, store=cloud.store) == [], cell


def test_manifest_artifact_and_tamper_detection(cas_matrix, tmp_path):
    """Persist the CI artifact; PASS clean, FAIL on a mutated chunk."""
    from repro.experiments.cli import main

    manifest = cas_matrix[("objectstore", "staged")][2]["manifest"]
    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = RESULTS_DIR / "s16_run_manifest.json"
    artifact.write_text(manifest.to_json() + "\n", encoding="utf-8")
    assert verify_manifest_file(str(artifact)) == []
    assert main(["replay-verify", "--manifest", str(artifact)]) == 0

    tampered = manifest.to_dict()
    assert tampered["chunks"], "heavy-dup sort must log exchange chunks"
    tampered["chunks"][0]["sha256"] = "0" * 64
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered), encoding="utf-8")
    assert main(["replay-verify", "--manifest", str(bad)]) == 1


def test_lineage_warm_rerun_order_of_magnitude_cheaper(
    record_result, bench_scale
):
    """An identical ``auto_sort`` stage re-run hits the lineage cache and
    returns the prior manifest at control-plane cost: ≥10× cheaper in
    dollars *and* latency."""
    from repro.workflows import WorkflowEngine
    from repro.workflows.dag import StageSpec, WorkflowDag

    config = ExperimentConfig(logical_scale=bench_scale)
    cloud = _fresh_cloud(config)
    stage_input(cloud, config, "pipeline", "input/methylome.bed")

    def run(name):
        dag = WorkflowDag(
            name,
            [
                StageSpec("ingest", "dataset_ref",
                          params={"key": "input/methylome.bed"}),
                StageSpec("sort", "auto_sort", after=("ingest",),
                          params={"workers": 16}),
            ],
            bucket="pipeline",
        )
        engine = WorkflowEngine(cloud, dag)
        engine.workload = config.workload
        marker = cloud.meter.snapshot()
        started = cloud.sim.now
        outcome = engine.execute()
        return (
            outcome,
            cloud.meter.since(marker).total_usd,
            cloud.sim.now - started,
        )

    cold, cold_usd, cold_s = run("s16-lineage-cold")
    warm, warm_usd, warm_s = run("s16-lineage-warm")

    assert cold.artifacts["sort"]["lineage"] == "miss"
    assert warm.artifacts["sort"]["lineage"] == "hit"
    assert warm.artifacts["sort"]["runs"] == cold.artifacts["sort"]["runs"]
    assert warm_usd * 10 <= cold_usd, (warm_usd, cold_usd)
    assert warm_s * 10 <= cold_s, (warm_s, cold_s)

    text = format_rows(
        ["run", "usd", "latency_s", "lineage"],
        [
            ["cold", round(cold_usd, 4), round(cold_s, 2), "miss"],
            ["warm", round(warm_usd, 6), round(warm_s, 4), "hit"],
        ],
        title="S16: warm-run lineage cache (3.5 GB auto_sort)",
    )
    record_result("s16_lineage", text)
