"""Wall-clock guard for the benchmark harness.

``benchmarks/conftest.py`` writes ``results/bench_wallclock.json``
(per-module wall-clock of whatever bench modules just ran, plus a
machine-speed calibration) after every bench session.  This script
compares that fresh measurement against the committed baseline
``results/bench_wallclock_baseline.json`` and exits non-zero when the
shared modules' total regresses more than 20% — the CI tripwire that
holds the vectorized-kernel speedups (and every other bench's budget)
across future PRs.  The other direction is reported, not failed: a
module that runs 20% or more *under* its adjusted baseline prints a
``STALE BASELINE`` line, so a gain nobody locked in shows in CI output
before a later regression can hide inside it.

Only modules present in *both* files are compared, so running a single
module (``make bench-kernels``, ``make bench-sim``, ``make bench-codec``)
guards that module without penalizing the baseline's wider coverage,
and a brand-new bench module does not fail CI before its baseline
lands.  The tolerance is scaled by the calibration ratio so a slower
runner is not mistaken for a slower repo.

Refresh the baseline deliberately after an accepted slowdown or a
machine change — run every guarded module in one session so they share
one calibration::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_kernels.py \
        benchmarks/bench_sim_kernel.py benchmarks/bench_codec.py
    cp benchmarks/results/bench_wallclock.json \
       benchmarks/results/bench_wallclock_baseline.json
"""

from __future__ import annotations

import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CURRENT = RESULTS_DIR / "bench_wallclock.json"
BASELINE = RESULTS_DIR / "bench_wallclock_baseline.json"
TOLERANCE = 0.20


def main() -> int:
    if not CURRENT.exists():
        print(f"wallclock guard: {CURRENT} missing — run a bench module first")
        return 1
    if not BASELINE.exists():
        print(f"wallclock guard: no committed baseline at {BASELINE}; skipping")
        return 0

    current = json.loads(CURRENT.read_text(encoding="utf-8"))
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    shared = sorted(set(current["modules"]) & set(baseline["modules"]))
    if not shared:
        print("wallclock guard: no modules shared with the baseline; skipping")
        return 0

    # Machine-speed normalization: the baseline's budget stretches (or
    # shrinks) with the runner's measured python throughput.
    scale = max(current["calibration_s"], 1e-9) / max(baseline["calibration_s"], 1e-9)

    current_total = sum(current["modules"][name] for name in shared)
    budget_total = sum(baseline["modules"][name] for name in shared) * scale
    limit = budget_total * (1.0 + TOLERANCE)

    print(f"wallclock guard: calibration ratio {scale:.2f}x "
          f"(this machine vs baseline machine)")
    for name in shared:
        budget = baseline["modules"][name] * scale
        print(f"  {name:<28} {current['modules'][name]:8.2f}s "
              f"(baseline {budget:8.2f}s adj)")
        if current["modules"][name] <= budget * (1.0 - TOLERANCE):
            print(f"  STALE BASELINE: {name} runs "
                  f"{1.0 - current['modules'][name] / budget:.0%} under its baseline — "
                  f"refresh it to hold the gain")
    print(f"  {'total':<28} {current_total:8.2f}s "
          f"(limit {limit:8.2f}s = baseline +{TOLERANCE:.0%})")

    if current_total > limit:
        print("wallclock guard: FAIL — bench wall-clock regressed beyond 20%")
        return 1
    print("wallclock guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
