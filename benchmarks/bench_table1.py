"""Benchmark: regenerate the paper's Table 1, and its four-way extension.

Paper values (3.5 GB input, parallelism 8):

    purely serverless:  83.32 s   $0.008
    VM-supported:      142.77 s   $0.010

We assert the *shape*: the purely serverless pipeline wins on latency by
roughly the paper's factor while both configurations cost the same
order of magnitude.  The wall-clock measured by pytest-benchmark is the
simulator's own cost of regenerating the table.
"""

import pytest

from repro.core import ExperimentConfig, run_exchange_comparison, run_table1


@pytest.fixture(scope="module")
def table1_result(bench_scale):
    return run_table1(ExperimentConfig(logical_scale=bench_scale))


def test_table1_regeneration(benchmark, record_result, bench_scale):
    result = benchmark.pedantic(
        lambda: run_table1(ExperimentConfig(logical_scale=bench_scale)),
        rounds=1,
        iterations=1,
    )
    record_result("table1", result.to_table())

    # --- shape assertions against the paper ---------------------------
    assert result.serverless.latency_s < result.vm.latency_s
    assert result.latency_speedup == pytest.approx(142.77 / 83.32, rel=0.25)
    assert result.serverless.latency_s == pytest.approx(83.32, rel=0.2)
    assert result.vm.latency_s == pytest.approx(142.77, rel=0.2)
    assert 0.5 < result.cost_ratio < 1.5  # "similar costs"


def test_table1_stage_breakdowns(benchmark, table1_result, record_result):
    # Rendering is the benchmarked operation; the artifacts are the point.
    serverless_render = benchmark(
        table1_result.serverless.workflow.tracker.render
    )
    record_result("table1_breakdown_serverless", serverless_render)
    record_result(
        "table1_breakdown_vm",
        table1_result.vm.workflow.tracker.render(),
    )
    # VM provisioning dominates the hybrid sort stage.
    vm_sort = table1_result.vm.stage_durations["sort"]
    boot = table1_result.vm.cloud.profile.vm.boot.mean
    assert vm_sort > boot * 0.8


def test_exchange_pipeline_comparison(benchmark, record_result, bench_scale):
    """S8's end-to-end table: the Table 1 pipeline with its sort's
    exchange on each substrate (``s8_exchange_pipelines.txt``)."""
    result = benchmark.pedantic(
        lambda: run_exchange_comparison(ExperimentConfig(logical_scale=bench_scale)),
        rounds=1,
        iterations=1,
    )
    record_result("s8_exchange_pipelines", result.to_table())

    # Every variant sorted and encoded the same records.
    records = {
        run.variant: run.workflow.artifacts["encode"]["records"]
        for run in result.runs()
    }
    assert len(set(records.values())) == 1
    # All serverless-compute variants beat the VM pipeline end to end.
    assert result.serverless.latency_s < result.vm.latency_s
    assert result.cache.latency_s < result.vm.latency_s
    assert result.relay.latency_s < result.vm.latency_s
    # The provisioned substrates make their sorts costlier than COS.
    assert result.cache.stage_costs["sort"] > result.serverless.stage_costs["sort"]
    assert result.relay.stage_costs["sort"] > result.serverless.stage_costs["sort"]
