"""Benchmark S13: shared multi-tenant exchange service vs fleet-per-job.

The same open-loop arrival schedule — three tenants bursting full-size
sorts, then a small-job tail — served two ways on identical clouds: one
shared :class:`~repro.service.ExchangeService` (bounded admission queue,
per-tenant token buckets, demand-driven fleet autoscaling, per-tenant
cost attribution) versus the provision-per-job shape every earlier
experiment used (each arrival cold-boots its own right-sized fleet and
terminates it).  The service must strictly beat the baseline on total
dollars at no worse p95 latency, actually resize in both directions,
keep every job byte-identical to its per-job twin, starve nobody, and
bill tenants dollars that sum to the fleet total.
"""

import pytest

from repro.obs.metrics import reset_registry
from repro.obs.slo import SloGate


@pytest.fixture(scope="module", autouse=True)
def clean_registry():
    # Start from a clean registry so the latency histogram the SLO gate
    # reads describes this sweep alone, not earlier runs in the session.
    reset_registry()


@pytest.fixture
def service_rows(regenerate):
    return regenerate("sweep-service")


def _only(rows, strategy, kind):
    return [r for r in rows if r["strategy"] == strategy and r["kind"] == kind]


def test_service_sweep(service_rows):
    rows = service_rows

    service = _only(rows, "service", "total")[0]
    perjob = _only(rows, "per-job", "total")[0]

    # The shared, right-sized substrate is strictly cheaper in total...
    assert service["total_usd"] < perjob["total_usd"]
    assert service["fleet_usd"] < perjob["fleet_usd"]
    # ... at no worse p95 latency (the baseline pays a VM boot per job;
    # the service's queue waits must not eat that advantage).  The gate
    # reads the service's own latency histogram from the metrics
    # registry rather than the sweep's ad-hoc row list, so the SLO is
    # checked against what the service actually observed per job.
    gate = SloGate("s13-service")
    gate.p95(
        "service-p95-latency",
        "repro_service_job_latency_seconds",
        threshold_s=perjob["p95_latency_s"],
    )
    gate.assert_ok()

    # The fleet actually breathed: grew for the burst, shrank after.
    assert service["scale_ups"] >= 1
    assert service["scale_downs"] >= 1


def test_service_byte_parity(service_rows):
    """Sharing the substrate moves bytes differently, never changes them."""
    service_jobs = {r["job"]: r for r in _only(service_rows, "service", "job")}
    perjob_jobs = {r["job"]: r for r in _only(service_rows, "per-job", "job")}
    assert set(service_jobs) == set(perjob_jobs)
    for job_id, row in service_jobs.items():
        assert row["output_digest"] == perjob_jobs[job_id]["output_digest"], job_id
    # Distinct inputs produced distinct outputs (the digests mean something).
    assert len({r["output_digest"] for r in service_jobs.values()}) == len(
        service_jobs
    )


def test_service_fairness(service_rows):
    """No tenant starves: every job ran, and its queue wait is bounded
    by the schedule (token refill) rather than by other tenants' load."""
    jobs = _only(service_rows, "service", "job")
    assert len(jobs) == 5
    for row in jobs:
        # sweep_service raises on a non-"done" job; the wait bound here
        # pins the fairness property the admission queue promises.
        assert row["wait_s"] < 120.0, (row["job"], row["wait_s"])


def test_service_cost_attribution(service_rows):
    """Per-tenant billed totals sum to the service totals to the cent."""
    tenants = _only(service_rows, "service", "tenant")
    total = _only(service_rows, "service", "total")[0]
    assert {r["tenant"] for r in tenants} == {"alice", "bob", "carol"}
    assert sum(r["faas_usd"] for r in tenants) == pytest.approx(
        total["faas_usd"]
    )
    assert sum(r["fleet_usd"] for r in tenants) == pytest.approx(
        total["fleet_usd"]
    )
    assert sum(r["total_usd"] for r in tenants) == pytest.approx(
        total["total_usd"]
    )
