"""Lint for the committed benchmark tables in ``benchmarks/results``.

Two properties every ``*.txt`` there must keep, checked by
``make collect``:

* no line wider than ``MAX_WIDTH`` columns — a table that wide is a
  sweep leaking a rendered blob into a cell, not a table anyone reads;
* no column whose header starts with ``_`` — those keys are private to
  the sweep that produced the row (``format_table`` drops them), and
  they are where host timings live, so a leaked one also breaks the
  byte-identical regeneration of the file.

Both happened at once when ``bench_exchange`` wrote ``sweep_exchange``'s
``_report`` column into ``s8_exchange_worker_sweep.txt``.

And one the directory as a whole must keep, both ways round: every row
of ``repro.experiments.EXPERIMENTS`` names a result stem that has a
file here, and every ``*.txt`` here has a stem that an ``EXPERIMENTS``
row or a ``benchmarks/bench_*.py`` names, so neither a renamed artifact
nor a deleted producer can leave a table behind silently.

And one the table must keep: every ``EXPERIMENTS`` row makes claims
(``repro.experiments.claims``), since a table nobody checks shows
nothing — ``bench_experiments.py`` checks them against each
regenerated table.
"""

from __future__ import annotations

import pathlib
import re
import sys

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
MAX_WIDTH = 200


def lint(path: pathlib.Path) -> list[str]:
    problems = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        if len(line) > MAX_WIDTH:
            problems.append(
                f"{path.name}:{number}: {len(line)} columns wide (max {MAX_WIDTH})"
            )
        # A header row is the line above a rule of dashes.
        rule = lines[number] if number < len(lines) else ""
        if rule.strip() and not rule.replace("-", "").strip():
            private = [cell for cell in line.split() if cell.startswith("_")]
            if private:
                problems.append(f"{path.name}:{number}: private column(s) {private}")
    return problems


def orphaned() -> list[str]:
    """``EXPERIMENTS`` rows whose result file is missing, and result
    files that no ``EXPERIMENTS`` row and no bench module produces."""
    from repro.experiments import EXPERIMENTS

    stems = {experiment.result for experiment in EXPERIMENTS.values()}
    benches = "\n".join(
        path.read_text(encoding="utf-8") for path in sorted(BENCH_DIR.glob("bench_*.py"))
    )
    return [
        f"{experiment.name}: no {experiment.result}.txt for its table row"
        for experiment in EXPERIMENTS.values()
        if not (RESULTS_DIR / f"{experiment.result}.txt").is_file()
    ] + [
        f"{path.name}: no EXPERIMENTS row or bench_*.py produces it"
        for path in sorted(RESULTS_DIR.glob("*.txt"))
        if path.stem not in stems
        and not re.search(rf"[\"']{re.escape(path.stem)}(\.txt)?[\"']", benches)
    ]


def unclaimed() -> list[str]:
    """``EXPERIMENTS`` rows that make no claim about their table."""
    from repro.experiments import EXPERIMENTS

    return [
        f"{experiment.name}: its table row makes no claims"
        for experiment in EXPERIMENTS.values()
        if not experiment.claims
    ]


def main() -> int:
    problems = [
        problem for path in sorted(RESULTS_DIR.glob("*.txt")) for problem in lint(path)
    ] + orphaned() + unclaimed()
    for problem in problems:
        print(f"results lint: {problem}")
    if not problems:
        print("results lint OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
