"""Checks on the benchmark itself.

    python3 benchmarks/ledger/selfcheck.py [--static] [--seed N]

Static part (under a second): ``BENCHMARK.json`` is within the driver's
limits and says what ``metrics.py`` says; every per-layer metric names
the end-to-end metric and workload it should move; every
``src/repro/**/*.py`` maps to exactly one layer and no rule is dead;
every profile call counter still resolves to a function.

Measured part (about six minutes): runs the whole benchmark twice with
``--trace`` and asserts that the traced ``*.self_s`` sum to the traced
wall within 1 %, that no op failed, that the two sets agree — host
metrics within their bounds; simulated metrics, ``sim.events`` and every
count exactly — and, for the pinned seed, that ``expected.json`` holds.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import pathlib
import re
import subprocess

import layers
import metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "repro"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Files the catch-all rule is meant for; anything else landing in
#: ``other`` is a new module that needs a rule.
UNLAYERED = {"__init__.py", "_version.py", "errors.py"}
#: Per-layer units that must repeat exactly between two runs of a seed
#: (everything but host seconds and the ratios derived from them).
EXACT_UNITS = {"count", "usd", "sim_s", "MB", "GB.s", "%", "ratio"}


class Failures(list):
    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)


def check_benchmark_json(failures: Failures) -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures.check(
        set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"},
        f"BENCHMARK.json keys: {sorted(benchmark)}",
    )
    failures.check(benchmark["paths"] == ["benchmarks/ledger"], "paths")
    failures.check(
        isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60,
        "run_seconds must be a whole number from 1 to 60",
    )
    workloads = benchmark["workloads"]
    failures.check(2 <= len(workloads) <= 8, "2 to 8 workloads")
    failures.check(
        [workload["name"] for workload in workloads] == list(metrics.WORKLOAD_OPS),
        "workload names differ from metrics.WORKLOAD_OPS",
    )
    for workload in workloads:
        failures.check(set(workload) == {"name", "why"}, f"workload keys: {workload}")
        failures.check(
            len(workload["why"]) <= 200 and "\n" not in workload["why"],
            f"{workload['name']}: why is one line of at most 200 characters",
        )

    end_to_end = benchmark["end_to_end"]
    failures.check(1 <= len(end_to_end) <= 16, "1 to 16 end-to-end metrics")
    failures.check(
        end_to_end == [
            {"name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound}
            for m in metrics.END_TO_END
        ],
        "end_to_end differs from metrics.END_TO_END",
    )
    failures.check(
        {"name": "setup_s", "unit": "s", "better": "lower"}.items()
        <= next((m for m in end_to_end if m["name"] == "setup_s"), {}).items(),
        "setup_s [s, lower is better] must be an end-to-end metric",
    )
    failures.check(
        all(0 < m["bound"] <= 0.25 for m in end_to_end), "bounds are in (0, 0.25]"
    )
    failures.check(
        max(m["bound"] for m in end_to_end)
        == next(m.bound for m in metrics.END_TO_END if m.name == "setup_s"),
        "setup_s has the largest bound",
    )

    per_layer = benchmark["per_layer"]
    failures.check(1 <= len(per_layer) <= 128, "1 to 128 per-layer metrics")
    failures.check(
        per_layer == [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
        ],
        "per_layer differs from metrics.PER_LAYER",
    )
    names = [m["name"] for m in workloads + end_to_end + per_layer]
    failures.check(len(names) == len(set(names)), "a name is used twice")
    for metric in end_to_end + per_layer:
        failures.check(bool(NAME.fullmatch(metric["name"])), f"name {metric['name']!r}")
        failures.check(bool(UNIT.fullmatch(metric["unit"])), f"unit {metric['unit']!r}")
        failures.check(metric["better"] in ("lower", "higher"), f"better {metric}")


def check_predictions(failures: Failures) -> None:
    """Each layer metric names what it should move, and where."""
    targets = {
        f"{metric.name}@{workload}"
        for metric in metrics.END_TO_END for workload in metrics.WORKLOAD_OPS
    }
    for metric in metrics.PER_LAYER:
        failures.check(bool(metric.moves), f"{metric.name}: moves nothing")
        for move in metric.moves:
            failures.check(move in targets, f"{metric.name}: unknown target {move!r}")
    self_s = {f"{layer}.self_s" for layer in layers.LAYERS}
    failures.check(
        self_s <= {metric.name for metric in metrics.PER_LAYER},
        "a layer has no .self_s metric",
    )


def check_layer_map(failures: Failures) -> None:
    files = sorted(
        path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py")
    )
    failures.check(bool(files), f"no source under {PACKAGE}")
    used = set()
    for relative in files:
        rule = next(
            (rule for rule in layers.LAYER_RULES if relative.startswith(rule[0])), None
        )
        used.add(rule)
        if rule is not None and rule[0] == "":
            failures.check(
                relative in UNLAYERED, f"{relative} has no layer rule (falls to 'other')"
            )
    for rule in layers.LAYER_RULES:
        failures.check(rule in used, f"layer rule {rule} matches no file")
    unresolved = layers.resolve_counters(PACKAGE)[1]
    failures.check(not unresolved, f"call counters no longer resolve: {unresolved}")


def run_benchmark(seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--trace", "--seed", str(seed)],
        check=True, cwd=ROOT,
    )
    return json.loads((HERE / "out" / "ledger.json").read_text(encoding="utf-8"))


def check_runs(failures: Failures, seed: int) -> None:
    first, second = run_benchmark(seed), run_benchmark(seed)
    bounds = {metric.name: metric.bound for metric in metrics.END_TO_END}
    units = {metric.name: metric.unit for metric in metrics.PER_LAYER}
    for workload in metrics.WORKLOAD_OPS:
        one, two = first["workloads"][workload], second["workloads"][workload]
        for entry in (one, two):
            failures.check(entry["failed"] == 0, f"{workload}: {entry['failures']}")
            failures.check(not entry["pinned"], f"{workload}: drift {entry['pinned']}")
            failures.check(
                not entry["trace"]["unresolved_counters"], f"{workload}: counters"
            )
            traced = entry["trace"]["traced_wall_s"]
            layered = sum(
                value for name, value in entry["per_layer"].items()
                if name.endswith(".self_s")
            )
            failures.check(
                abs(layered - traced) <= 0.01 * traced,
                f"{workload}: self_s sum to {layered:.3f} s, traced wall {traced:.3f} s",
            )
            unattributed = traced - entry["trace"]["profiled_s"]
            failures.check(
                unattributed <= 0.10 * traced,
                f"{workload}: cProfile attributed {unattributed:.3f} s of "
                f"{traced:.3f} s to no function",
            )
        for name, bound in bounds.items():
            a, b = one["metrics"][name], two["metrics"][name]
            if name.startswith("sim_"):
                failures.check(a == b, f"{workload} {name}: {a!r} != {b!r}")
            else:
                failures.check(
                    abs(a - b) <= bound * min(a, b),
                    f"{workload} {name}: {a:.4f} vs {b:.4f} differ by more than {bound:.0%}",
                )
        for name, unit in units.items():
            if unit in EXACT_UNITS:
                a, b = one["per_layer"][name], two["per_layer"][name]
                failures.check(a == b, f"{workload} {name}: {a!r} != {b!r}")
        failures.check(one["digests"] == two["digests"], f"{workload}: digests differ")
    produced = {
        name
        for entry in first["workloads"].values()
        for name, value in entry["per_layer"].items() if value
    }
    never = [m.name for m in metrics.PER_LAYER if m.name not in produced]
    print(f"per-layer metrics that read 0 on every workload: {never}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--static", action="store_true",
                        help="skip the two measured runs")
    parser.add_argument("--seed", type=int, default=2021)
    args = parser.parse_args()
    failures = Failures()
    check_benchmark_json(failures)
    check_predictions(failures)
    check_layer_map(failures)
    if not args.static and not failures:
        check_runs(failures, args.seed)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
