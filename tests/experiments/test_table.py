"""The experiment table is the one definition its readers share."""

import dataclasses
import importlib.util
import itertools
import pathlib
import re

import pytest

import repro.experiments as experiments
from repro.core import ExperimentConfig
from repro.experiments import EXPERIMENTS, render_experiment, sweeps
from repro.obs.slo import SloViolation

ROOT = pathlib.Path(__file__).parents[2]
TINY = ExperimentConfig(size_gb=0.5, logical_scale=8192.0)


def test_all_is_derived_from_the_table():
    """Every row's sweep is exported by the package, under its own name."""
    for experiment in EXPERIMENTS.values():
        name = experiment.run.__name__
        assert name in experiments.__all__
        assert getattr(experiments, name) is getattr(sweeps, name)
    # ...and every public sweep has a row.
    public = {name for name in vars(sweeps) if name.startswith("sweep_")}
    assert public == {experiment.run.__name__ for experiment in EXPERIMENTS.values()}


def test_rows_are_distinct_and_their_overrides_are_config_fields():
    rows = list(EXPERIMENTS.values())
    assert len({row.result for row in rows}) == len(rows)
    assert len({row.title for row in rows}) == len(rows)
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    for row in rows:
        assert set(row.overrides) <= fields, row.name


def test_every_experiment_has_its_own_label():
    """No two titles share an ``S<n>`` label: the label is how README,
    ROADMAP and the result files refer to an experiment."""
    labels = [re.match(r"S\d+[a-z]?:", row.title).group() for row in EXPERIMENTS.values()]
    assert len(set(labels)) == len(labels), labels


def test_readme_indexes_every_experiment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    index = readme.split("## Experiments", 1)[1].split("\n## ", 1)[0]
    for experiment in EXPERIMENTS.values():
        assert f"`{experiment.name}`" in index, experiment.name
        assert f"`{experiment.result}.txt`" in index, experiment.name


def load_check_results():
    spec = importlib.util.spec_from_file_location(
        "check_results", ROOT / "benchmarks" / "check_results.py"
    )
    check_results = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_results)
    return check_results


def test_results_lint_fails_on_a_row_without_claims(monkeypatch):
    check_results = load_check_results()
    assert check_results.unclaimed() == []
    codec = EXPERIMENTS["sweep-codec"]
    monkeypatch.setitem(EXPERIMENTS, codec.name, dataclasses.replace(codec, claims=()))
    assert check_results.unclaimed() == ["sweep-codec: its table row makes no claims"]
    assert check_results.main() == 1


def test_results_lint_fails_on_an_orphaned_row(monkeypatch, tmp_path):
    check_results = load_check_results()
    assert check_results.orphaned() == []
    monkeypatch.setattr(check_results, "RESULTS_DIR", tmp_path)
    (tmp_path / "s99_stray.txt").write_text("S99: no producer\n", encoding="utf-8")
    problems = check_results.orphaned()
    assert len(problems) == len(EXPERIMENTS) + 1
    assert problems[-1].startswith("s99_stray.txt: ")
    assert check_results.main() == 1


def test_host_timed_epilogue_stays_out_of_the_result_file():
    rows = [{"workers": 4, "_report": "exchange report (relay):\n  records_per_sec 1e6"}]
    exchange = EXPERIMENTS["sweep-exchange"]
    assert "records_per_sec" in render_experiment(exchange, rows)
    assert "records_per_sec" not in render_experiment(exchange, rows, result=True)
    online = EXPERIMENTS["sweep-online"]
    rows = [{"workers": 8, "_timeline": ["wave 0 @ 0.39s [initial]"]}]
    assert render_experiment(online, rows, result=True).endswith(
        "\n\nonline decision timeline:\n  wave 0 @ 0.39s [initial]"
    )


@pytest.mark.parametrize(
    "sweep", [sweeps.sweep_exchange_faults, sweeps.sweep_exchange_speculation]
)
def test_a_diverging_digest_fails_the_in_sweep_gate(monkeypatch, sweep):
    """The byte-parity checks inside the sweeps are ``SloGate`` checks,
    not ``assert`` statements ``python -O`` would drop."""
    serial = itertools.count()
    monkeypatch.setattr(
        sweeps,
        "output_digest",
        lambda cloud, result, full=False: f"{next(serial):016x}" * 4,
    )
    with pytest.raises(SloViolation, match="byte-parity"):
        sweep(TINY)
