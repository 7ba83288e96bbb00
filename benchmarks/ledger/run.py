"""The ledger: this repo's benchmark.  One command prints every metric.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
                                     [--seconds S] [--trace [0|1]]

Runs each workload in its own fresh subprocess (``worker.py``), one at a
time, single-threaded; checks the outputs; prints every metric by name
with its unit; writes ``out/ledger.json`` (and ``out/trace.json`` with
``--trace``).  With ``--workload`` the last stdout line is the one JSON
object the driver reads: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Two clocks: *host* seconds / MB (what a performance change moves) and
*simulated* seconds / dollars (what the model says; exact for a seed).
``README.md`` has the definitions, the bounds and the protocol.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ beside the harness

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import time

import metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Scrubbed from the child's environment, so the defaults are measured.
SCRUBBED_ENV = ("REPRO_TRACE", "REPRO_CAS", "REPRO_KERNELS")
#: Fresh processes whose set-up is timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A run must end within the driver's 180 s; leave it room to report.
RUN_DEADLINE_S = 165.0
WATCHDOG_FACTOR = 10.0


def calibration_seconds() -> float:
    """Wall-clock of a fixed pure-python busy loop.

    The machine-speed yardstick of ``benchmarks/conftest.py``, stored
    beside the measurements so ledgers from two machines can be scaled.
    """
    start = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value
    return time.perf_counter() - start


def child_environment() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    # Never write bytecode: every child then compiles ``repro`` on
    # import, so ``setup_s`` does not depend on a cache left by an
    # earlier run, and the checkout stays clean.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload: str, mode: str, seed: int, seconds: float, deadline: float) -> dict | None:
    """Run one worker to completion; None if the watchdog had to kill it."""
    timeout = min(
        WATCHDOG_FACTOR * metrics.EXPECTED_CHILD_S[workload], deadline - time.monotonic()
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command, env=child_environment(), cwd=ROOT, timeout=max(1.0, timeout),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"[{workload}] watchdog: {mode} worker killed after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"[{workload}] {mode} worker exited {done.returncode}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, modes: list[str]) -> dict:
    """The subprocesses of one workload, folded into one ledger entry."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    entry: dict = {"attempted": 0, "failed": 0, "failures": [], "metrics": {}}
    setups = []
    for mode in modes:
        child = spawn(workload, mode, seed, seconds, deadline)
        if child is None:
            # Killed or crashed: every op of a repetition failed, and the
            # remaining workers of this workload would only hang again.
            ops = metrics.WORKLOAD_OPS[workload]
            entry["attempted"] += ops
            entry["failed"] += ops
            entry["failures"].append(f"{mode} worker did not finish")
            break
        entry["attempted"] += child["attempted"]
        entry["failed"] += child["failed"]
        entry["failures"] += child["failures"]
        entry["digests"] = child["digests"]
        entry["numpy"] = child["numpy"]
        entry.setdefault("sim", {}).update(
            {key: child[key] for key in ("sim_latency_s", "sim_cost_usd") if key in child}
        )
        if mode != "trace":
            setups.append(child["setup_s"])
        if mode == "timed":
            entry["metrics"].update(
                wall_s=statistics.median(child["wall_s"]),
                cpu_s=statistics.median(child["cpu_s"]),
                peak_rss_mb=child["peak_rss_mb"],
                sim_latency_s=child["sim_latency_s"],
                sim_cost_usd=child["sim_cost_usd"],
            )
            entry["repetitions"] = {"wall_s": child["wall_s"], "cpu_s": child["cpu_s"]}
        elif mode == "trace":
            entry["per_layer"] = {
                metric.name: child["per_layer"].get(metric.name, 0.0)
                for metric in metrics.PER_LAYER
            }
            entry["trace"] = {
                key: child[key]
                for key in ("profiled_s", "traced_wall_s", "plain_wall_s",
                            "unresolved_counters", "spans")
            }
    if setups:
        entry["metrics"]["setup_s"] = statistics.median(setups)
        entry["setup_samples_s"] = setups
    entry["failed_share"] = entry["failed"] / entry["attempted"]
    entry["pinned"] = compare_with_pinned(workload, seed, entry)
    return entry


def compare_with_pinned(workload: str, seed: int, entry: dict) -> list[str] | None:
    """Differences from ``expected.json`` (None when the seed is not pinned).

    Informational here — a change that means to alter the model is not a
    wrong answer — and enforced by ``selfcheck.py``.
    """
    pinned = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    if seed != pinned["seed"]:
        return None
    want = pinned["workloads"][workload]
    have = {
        "digests": entry.get("digests"),
        "sim.events": entry.get("per_layer", {}).get("sim.events"),
        **entry.get("sim", {}),
    }
    return [
        f"{key}: {have[key]!r} != pinned {want[key]!r}"
        for key in want
        if have.get(key) is not None and have[key] != want[key]
    ]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_entry(workload: str, entry: dict) -> None:
    values = entry["metrics"]
    print(f"== {workload}: failed_share = {entry['failed']}/{entry['attempted']}"
          f" = {entry['failed_share']:g}")
    for failure in entry["failures"][:5]:
        print(f"   FAILED {failure}")
    for metric in metrics.END_TO_END:
        if metric.name not in values:
            continue
        line = f"   {metric.name:<16}{values[metric.name]:>14.6f} {metric.unit}"
        if metric.name in ("wall_s", "cpu_s"):
            samples = entry["repetitions"][metric.name]
            line += (f"   (median of n={len(samples)}, min {min(samples):.3f},"
                     f" max {max(samples):.3f})")
        if metric.name == "setup_s":
            line += f"   (median of {len(entry['setup_samples_s'])} fresh processes)"
        print(line)
    if "per_layer" in entry:
        traced = entry["trace"]["traced_wall_s"]
        print(f"   per-layer, one traced repetition ({traced:.3f} s under cProfile):")
        for metric in metrics.PER_LAYER:
            value = entry["per_layer"][metric.name]
            share = f"{value / traced:7.1%}" if metric.name.endswith(".self_s") else " " * 7
            print(f"     {metric.name:<40}{value:>16.6f} {metric.unit:<6}{share}")
    for difference in entry["pinned"] or ():
        print(f"   DRIFT from expected.json: {difference}")


def driver_line(entry: dict, trace: bool) -> str:
    """The one JSON object the driver reads off the last stdout line."""
    if trace:
        units = {metric.name: metric.unit for metric in metrics.PER_LAYER}
        values = entry.get("per_layer", {})
    else:
        units = {metric.name: metric.unit for metric in metrics.END_TO_END}
        values = entry["metrics"]
    return json.dumps({
        "correct": entry["failed"] == 0 and set(values) == set(units),
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    })


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=2021,
                        help="ExperimentConfig.seed: payloads and latency jitter")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: one traced repetition per workload, per-layer metrics")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not here: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    ledger = {
        "seed": args.seed,
        "seconds": args.seconds,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "calibration_s": calibration_seconds(),
            "scrubbed": list(SCRUBBED_ENV),
        },
        "workloads": {},
    }
    # The driver's traced run asks for the per-layer metrics alone; a
    # run of the whole set with --trace measures first, then traces.
    if args.workload and args.trace:
        modes = ["trace"]
    else:
        modes = ["setup"] * (SETUP_SAMPLES - 1) + ["timed"] + ["trace"] * args.trace
    for workload in [args.workload] if args.workload else names:
        entry = measure(workload, args.seed, args.seconds, modes)
        ledger["env"]["numpy"] = entry.pop("numpy", None)
        ledger["workloads"][workload] = entry
        print_entry(workload, entry)

    OUT.mkdir(exist_ok=True)
    spans = {
        name: entry["trace"].pop("spans")
        for name, entry in ledger["workloads"].items() if "trace" in entry
    }
    if spans:
        (OUT / "trace.json").write_text(json.dumps(spans, indent=1) + "\n", encoding="utf-8")
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT / 'ledger.json'}" + (f" and {OUT / 'trace.json'}" if spans else ""))
    if args.workload:
        print(driver_line(ledger["workloads"][args.workload], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
