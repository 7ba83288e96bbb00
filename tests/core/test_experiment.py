"""Integration tests: the Table 1 experiment reproduces the paper's shape.

These run the full stack (data generation → shuffle/VM sort → real
METHCOMP compression) at a large ``logical_scale`` so real data stays
small while the performance model sees the paper's 3.5 GB.
"""

import dataclasses

import pytest

from repro.core import (
    ENCODE_STAGE,
    PURE_SERVERLESS,
    SORT_STAGE,
    VM_SUPPORTED,
    ExperimentConfig,
    run_pipeline,
    run_table1,
)
from tests.core.sort_pipeline import execute, sort_pipeline

#: Scaled-down config: ~1.7 MB real data modelling 3.5 GB.
SMALL = ExperimentConfig(logical_scale=2048.0)


@pytest.fixture(scope="module")
def table1():
    return run_table1(SMALL)


class TestTable1Shape:
    def test_serverless_beats_vm_on_latency(self, table1):
        assert table1.serverless.latency_s < table1.vm.latency_s

    def test_speedup_in_paper_band(self, table1):
        """Paper: 1.71x. Accept a generous band around it."""
        assert 1.3 < table1.latency_speedup < 2.3

    def test_latencies_near_paper_values(self, table1):
        assert table1.serverless.latency_s == pytest.approx(83.32, rel=0.15)
        assert table1.vm.latency_s == pytest.approx(142.77, rel=0.15)

    def test_costs_are_similar_across_configs(self, table1):
        """Paper: 'both configurations deliver similar costs'."""
        ratio = table1.cost_ratio
        assert 0.5 < ratio < 1.5

    def test_costs_are_sub_cent_scale(self, table1):
        assert table1.serverless.cost_usd < 0.1
        assert table1.vm.cost_usd < 0.1

    def test_to_table_mentions_paper_numbers(self, table1):
        rendered = table1.to_table()
        assert "83.32" in rendered
        assert "142.77" in rendered
        assert "purely-serverless" in rendered

    def test_vm_pays_for_instance(self, table1):
        services = table1.vm.cloud.meter.total_by_service()
        assert services.get("vm", 0) > 0

    def test_serverless_pays_no_vm(self, table1):
        services = table1.serverless.cloud.meter.total_by_service()
        assert services.get("vm", 0) == 0

    def test_sort_dominates_vm_latency(self, table1):
        """The VM variant's penalty is in its sort stage (provisioning)."""
        vm_sort = table1.vm.stage_durations[SORT_STAGE]
        serverless_sort = table1.serverless.stage_durations[SORT_STAGE]
        assert vm_sort > serverless_sort * 1.5

    def test_encode_stage_comparable_across_variants(self, table1):
        """Encode runs on functions in both configs — it should not differ
        much (warm-up effects aside)."""
        vm_encode = table1.vm.stage_durations[ENCODE_STAGE]
        serverless_encode = table1.serverless.stage_durations[ENCODE_STAGE]
        assert vm_encode == pytest.approx(serverless_encode, rel=0.35)


class TestPipelineInternals:
    def test_compression_actually_happened(self, table1):
        encode = table1.serverless.workflow.artifacts[ENCODE_STAGE]
        assert encode["ratio"] > 10.0
        assert encode["compressed_bytes"] < encode["raw_bytes"] / 10

    def test_no_records_lost_in_either_variant(self, table1):
        for run in (table1.serverless, table1.vm):
            sort_records = run.workflow.artifacts[SORT_STAGE]["records"]
            encode_records = run.workflow.artifacts[ENCODE_STAGE]["records"]
            assert sort_records == encode_records > 0

    def test_requested_parallelism_respected(self, table1):
        assert table1.serverless.sort_workers == SMALL.parallelism
        assert len(table1.vm.workflow.artifacts[SORT_STAGE]["runs"]) == SMALL.parallelism

    def test_sorted_runs_are_globally_ordered(self, table1):
        from repro.methcomp.bed import bed_sort_key

        run = table1.serverless
        cloud = run.cloud
        merged = b"".join(
            cloud.store.peek(r["bucket"], r["key"])
            for r in run.workflow.artifacts[SORT_STAGE]["runs"]
        )
        lines = merged.split(b"\n")[:-1]
        keys = [bed_sort_key(line) for line in lines]
        assert keys == sorted(keys)

    def test_vm_variant_output_matches_serverless_output(self, table1):
        """Both sort paths must produce identical sorted content."""
        contents = {}
        for run in (table1.serverless, table1.vm):
            cloud = run.cloud
            merged = b"".join(
                cloud.store.peek(r["bucket"], r["key"])
                for r in run.workflow.artifacts[SORT_STAGE]["runs"]
            )
            contents[run.variant] = sorted(merged.split(b"\n"))
        assert contents[PURE_SERVERLESS] == contents[VM_SUPPORTED]


class TestVerification:
    def test_verify_stage_passes(self):
        config = dataclasses.replace(SMALL, logical_scale=4096.0)
        run = run_pipeline(config, PURE_SERVERLESS, verify=True)
        assert run.workflow.artifacts["verify"]["verified"] is True


class TestDeterminism:
    def test_same_seed_reproduces_exactly(self):
        config = dataclasses.replace(SMALL, logical_scale=4096.0)
        first = run_pipeline(config, PURE_SERVERLESS)
        second = run_pipeline(config, PURE_SERVERLESS)
        assert first.latency_s == second.latency_s
        assert first.cost_usd == second.cost_usd

    def test_different_seed_changes_timing(self):
        config_a = dataclasses.replace(SMALL, logical_scale=4096.0, seed=1)
        config_b = dataclasses.replace(SMALL, logical_scale=4096.0, seed=2)
        run_a = run_pipeline(config_a, PURE_SERVERLESS)
        run_b = run_pipeline(config_b, PURE_SERVERLESS)
        assert run_a.latency_s != run_b.latency_s


class TestAutoWorkers:
    def test_planner_driven_sort_completes(self):
        config = dataclasses.replace(SMALL, logical_scale=4096.0)
        _cloud, result = execute(
            config, sort_pipeline(config, "shuffle_sort", workers=None)
        )
        sort = result.artifacts[SORT_STAGE]
        assert sort["workers"] >= 1
        assert sort["planned_workers"] == sort["workers"]
