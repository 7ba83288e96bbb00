"""Every claim the experiment table makes at scale 16384, on the cells
the CLI test runs (no simulation of its own: see ``conftest.py``)."""

import copy

import pytest

from repro.core import ExperimentConfig
from repro.experiments import EXPERIMENTS
from repro.obs.metrics import nearest_rank
from tests.experiments.conftest import SCALE, SEED, SimulationCounter

CONFIG = ExperimentConfig(logical_scale=SCALE, seed=SEED)

#: (row, claim) for every claim whose domain includes ``SCALE``.
CLAIMS = [
    pytest.param(name, claim, id=f"{name}.{claim.name}")
    for name, experiment in EXPERIMENTS.items()
    for claim in experiment.claims
    if claim.holds_at(SCALE)
]


@pytest.mark.parametrize(("name", "claim"), CLAIMS)
def test_claim_holds(experiment_cell, name, claim):
    config = EXPERIMENTS[name].configure(CONFIG)
    assert claim.verdict(experiment_cell(name).rows, config) is None


def test_claim_names_are_unique_and_narrowed_claims_say_why():
    for experiment in EXPERIMENTS.values():
        names = [claim.name for claim in experiment.claims]
        assert len(set(names)) == len(names), experiment.name
        for claim in experiment.claims:
            assert (claim.scale is None) == (not claim.finding), claim.name


def test_a_broken_row_fails_its_claim(experiment_cell):
    rows = copy.deepcopy(experiment_cell("sweep-service").rows)
    experiment = EXPERIMENTS["sweep-service"]
    assert experiment.failed_claims(rows, CONFIG) == {}
    service = next(r for r in rows if r["strategy"] == "service" and r["kind"] == "total")
    service["total_usd"] *= 100.0
    failed = experiment.failed_claims(rows, CONFIG)
    cheaper = "service_cheaper_at_no_worse_p95_and_scales"
    assert set(failed) == {cheaper, "tenant_dollars_sum_to_total"}
    assert failed[cheaper].startswith("total_usd: $")


def test_service_p95_is_the_registry_histogram(experiment_cell):
    """S13's p95 claim reads the rows; they hold what the service's own
    latency histogram reports, with the same nearest-rank rule."""
    cell = experiment_cell("sweep-service")
    service = next(
        row for row in cell.rows if row["strategy"] == "service" and row["kind"] == "total"
    )
    histogram = cell.metrics["repro_service_job_latency_seconds"]
    [(_labels, latencies)] = histogram.samples()
    assert service["p95_latency_s"] == nearest_rank(latencies, 0.95)


def test_a_cell_simulated_twice_fails():
    counter = SimulationCounter()
    counter.record(("sweep-codec", SCALE, SEED))
    counter.record(("sweep-codec", SCALE, SEED + 1))
    with pytest.raises(AssertionError, match="simulated twice"):
        counter.record(("sweep-codec", SCALE, SEED))
