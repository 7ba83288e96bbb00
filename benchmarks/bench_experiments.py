"""Every ``EXPERIMENTS`` row regenerated at the harness's scale, and its claims checked.

What each table shows lives on its row (:mod:`repro.experiments.claims`);
this module regenerates the row's committed table through ``regenerate``
and fails with every claim the rows do not bear out.
"""

import pytest

from repro.core import ExperimentConfig
from repro.experiments import EXPERIMENTS


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_claims(regenerate, bench_scale, name):
    rows = regenerate(name)
    config = ExperimentConfig(logical_scale=bench_scale)
    assert EXPERIMENTS[name].failed_claims(rows, config) == {}
