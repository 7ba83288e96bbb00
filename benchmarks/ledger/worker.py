"""One workload, measured in this (fresh, single-threaded) process.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:

``setup``  import, generate the payload, run the checked warm-up
           repetition, report ``setup_s`` and exit — a set-up sample.
``timed``  the same set-up, ``gc.collect()``, then timed repetitions
           with tracing off for ``--seconds`` (at least two).
``trace``  the same set-up, one plain repetition, then one repetition
           under ``cProfile`` with the harness spans on: the per-layer
           numbers.  No end-to-end metric is taken from this mode.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import sys
import time

MIN_TIMED_REPETITIONS = 2


def repeat_key(rep) -> tuple:
    """What must repeat exactly between repetitions of one seed."""
    return (rep.sim_latency_s, rep.sim_cost_usd, sorted(rep.counts.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    args = parser.parse_args()

    # Imported here, not at module top: the import of ``repro`` is part
    # of the set-up time this process reports.
    import numpy

    import layers
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    warmup = workload.repetition(SpanRecorder(), check=True)
    setup_s = time.time() - args.spawned_at - warmup.check_s

    attempted = len(warmup.ops)
    failures = [f"warm-up {op.name}: {op.error}" for op in warmup.ops if op.failed]
    out: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "check_s": warmup.check_s,
        "numpy": numpy.__version__,
        "digests": {op.name: op.digest for op in warmup.ops},
    }

    def run_repetition(spans, reference):
        """One unchecked repetition; an inexact repeat fails all its ops."""
        nonlocal attempted
        wall, cpu = time.perf_counter(), time.process_time()
        rep = workload.repetition(spans, check=False)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        attempted += len(rep.ops)
        failures.extend(f"{op.name}: {op.error}" for op in rep.ops if op.failed)
        if reference is not None and repeat_key(rep) != repeat_key(reference):
            failures.extend(
                f"{op.name}: simulated results did not repeat exactly"
                for op in rep.ops if not op.failed
            )
        return rep, wall, cpu

    if args.mode == "timed":
        gc.collect()
        walls, cpus, first = [], [], None
        started = time.perf_counter()
        while (len(walls) < MIN_TIMED_REPETITIONS
               or time.perf_counter() - started < args.seconds):
            rep, wall, cpu = run_repetition(SpanRecorder(), first)
            first = first or rep
            walls.append(wall)
            cpus.append(cpu)
        out.update(
            wall_s=walls, cpu_s=cpus,
            sim_latency_s=first.sim_latency_s, sim_cost_usd=first.sim_cost_usd,
        )
    elif args.mode == "trace":
        gc.collect()
        plain, plain_wall, _cpu = run_repetition(SpanRecorder(), None)
        spans = SpanRecorder(enabled=True)
        profiler = cProfile.Profile()
        profiler.enable()
        traced, traced_wall, _cpu = run_repetition(spans, plain)
        profiler.disable()
        package_root = pathlib.Path(sys.modules["repro"].__file__).parent
        stats = pstats.Stats(profiler).stats
        self_s, calls, unresolved = layers.fold_profile(stats, package_root)
        # cProfile's per-function times can sum to less than the wall it
        # ran for (table1: ~7 %, while the encode workers' frames are torn
        # down); that remainder is nobody's, so ``other`` takes it and
        # the layers sum to the traced wall.
        profiled_s = sum(entry[2] for entry in stats.values())
        self_s[layers.OTHER] += traced_wall - profiled_s
        per_layer = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
        per_layer.update(traced.counts)
        vectorized = calls.pop("shuffle.kernels.vectorized_calls")
        per_layer.update(calls)
        sim_s = sum(self_s[layer] for layer in ("sim.kernel", "sim.links", "sim.resources"))
        per_layer.update({
            # Host time under the profiler, so compare it between two
            # commits, not with ``wall_s``.
            "sim.us_per_event": sim_s / max(1, calls["sim.events"]) * 1e6,
            "shuffle.kernels.vectorized_share":
                vectorized / max(1, calls["shuffle.kernels.calls"]),
            "trace.overhead_x": traced_wall / plain_wall,
        })
        out.update(
            per_layer=per_layer,
            profiled_s=profiled_s,
            traced_wall_s=traced_wall,
            plain_wall_s=plain_wall,
            sim_latency_s=traced.sim_latency_s,
            sim_cost_usd=traced.sim_cost_usd,
            unresolved_counters=unresolved,
            spans=spans.spans,
        )

    out.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
