"""Integration tests: the cache-supported pipeline variant (experiment S8)."""

import pytest

from repro.core import (
    CACHE_SUPPORTED,
    ENCODE_STAGE,
    SORT_STAGE,
    ExperimentConfig,
    pipeline_for,
    run_exchange_comparison,
)
from repro.core.calibration import CACHE_NODE_TYPE
from repro.errors import WorkflowError
from tests.core.sort_pipeline import execute

#: Scaled-down config: ~1.7 MB real data modelling 3.5 GB.
SMALL = ExperimentConfig(logical_scale=2048.0)


def run_cache_pipeline(provisioning):
    """The cache-supported variant with its cluster brought up
    ``provisioning`` (the variant itself always asks for ``"warm"``)."""
    dag = pipeline_for(CACHE_SUPPORTED, SMALL)
    dag.stage(SORT_STAGE).params["provisioning"] = provisioning
    return execute(SMALL, dag)


@pytest.fixture(scope="module")
def comparison():
    return run_exchange_comparison(SMALL)


class TestCachePipeline:
    def test_pipeline_for_builds_cache_variant(self):
        dag = pipeline_for(CACHE_SUPPORTED, SMALL)
        assert dag.name == CACHE_SUPPORTED
        kinds = {spec.name: spec.kind for spec in dag.topological_order()}
        assert kinds[SORT_STAGE] == "cache_sort"
        assert kinds[ENCODE_STAGE] == "methcomp_encode"

    def test_verify_stage_optional(self):
        with_verify = pipeline_for(CACHE_SUPPORTED, SMALL, verify=True)
        without = pipeline_for(CACHE_SUPPORTED, SMALL, verify=False)
        assert len(list(with_verify.topological_order())) == 4
        assert len(list(without.topological_order())) == 3

    def test_cache_run_compresses_same_records(self, comparison):
        encode = comparison.cache.workflow.artifacts[ENCODE_STAGE]
        baseline = comparison.serverless.workflow.artifacts[ENCODE_STAGE]
        assert encode["records"] == baseline["records"]
        assert encode["ratio"] > 5.0

    def test_cache_sort_reports_cluster_metadata(self, comparison):
        sort = comparison.cache.workflow.artifacts[SORT_STAGE]
        assert sort["cache_nodes"] >= 1
        assert sort["cache_node_type"] == CACHE_NODE_TYPE
        assert 0 < sort["cache_peak_fill"] <= 1

    def test_cluster_terminated_after_stage(self, comparison):
        clusters = comparison.cache.cloud.cache.clusters
        assert clusters
        assert all(c.state == "terminated" for c in clusters.values())

    def test_cache_cost_includes_node_seconds(self, comparison):
        lines = comparison.cache.cloud.meter.filtered(service="memstore")
        assert lines
        assert sum(line.usd for line in lines) > 0

    def test_cache_sort_is_fastest_sort(self, comparison):
        assert (
            comparison.cache.stage_durations[SORT_STAGE]
            <= comparison.serverless.stage_durations[SORT_STAGE] * 1.05
        )
        assert (
            comparison.cache.stage_durations[SORT_STAGE]
            < comparison.vm.stage_durations[SORT_STAGE]
        )

    def test_cache_sort_is_costliest_sort(self, comparison):
        assert (
            comparison.cache.stage_costs[SORT_STAGE]
            > comparison.serverless.stage_costs[SORT_STAGE]
        )

    def test_cold_provisioning_pays_cluster_creation(self):
        _cloud, cold = run_cache_pipeline("cold")
        cloud, warm = run_cache_pipeline("warm")
        provision = cloud.profile.memstore.provision.mean
        assert cold.makespan_s > warm.makespan_s + 0.5 * provision

    def test_invalid_provisioning_mode_rejected(self):
        with pytest.raises(WorkflowError, match="provisioning"):
            run_cache_pipeline("lukewarm")

    def test_table_renders_all_variants(self, comparison):
        table = comparison.to_table()
        assert "purely-serverless" in table
        assert "vm-supported" in table
        assert "cache-supported" in table
