"""Benchmark S11: does the paper's conclusion survive a provider change?

Lithops is multi-cloud (the paper's reference [3]); the experiment
re-runs the Table 1 comparison on the AWS-flavoured profile (Lambda +
S3 + EC2 m5) next to the paper's IBM one.  The absolute numbers move —
Lambda starts faster, S3 sustains more requests, EC2 boots quicker —
but the conclusion must not: purely serverless wins on latency at
comparable cost on both providers.
"""

import pytest


def test_multicloud_comparison(regenerate):
    rows = regenerate("sweep-multicloud")

    by_provider = {row["provider"]: row for row in rows}
    for provider, row in by_provider.items():
        # The paper's qualitative claim holds on every provider.
        assert row["speedup"] > 1.2, provider
        cost_ratio = row["serverless_cost_usd"] / row["vm_cost_usd"]
        assert 0.4 < cost_ratio < 1.6, provider

    # Provider differences show where expected: faster Lambda cold
    # starts and higher function-to-storage throughput make the AWS
    # serverless pipeline faster in absolute terms.
    assert (
        by_provider["aws-us-east"]["serverless_latency_s"]
        < by_provider["ibm-us-east"]["serverless_latency_s"]
    )
    # The paper's own setting stays calibrated to its Table 1.
    ibm = by_provider["ibm-us-east"]
    assert ibm["serverless_latency_s"] == pytest.approx(83.32, rel=0.2)
    assert ibm["vm_latency_s"] == pytest.approx(142.77, rel=0.2)
