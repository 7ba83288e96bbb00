"""Command-line entry point for the experiment regenerators.

Usage::

    repro-experiments table1 [--scale 256] [--seed 2021]
    repro-experiments figure1
    repro-experiments sweep-workers
    repro-experiments sweep-size
    repro-experiments sweep-storage
    repro-experiments sweep-startup
    repro-experiments sweep-codec
    repro-experiments sweep-memory
    repro-experiments sweep-exchange
    repro-experiments sweep-relay-shards
    repro-experiments sweep-streaming
    repro-experiments sweep-skew
    repro-experiments sweep-online
    repro-experiments sweep-faults
    repro-experiments sweep-speculation
    repro-experiments sweep-exchange-faults
    repro-experiments sweep-exchange-speculation
    repro-experiments sweep-tuner
    repro-experiments sweep-multicloud
    repro-experiments sweep-service
    repro-experiments exchange
    repro-experiments trace [--out s8_trace.json]
    repro-experiments metrics [--out s8_metrics.txt]

The last two run one adaptive (``auto_sort``) pipeline with the
unified observability plane enabled and export it: ``trace`` writes
Perfetto-loadable Chrome trace-event JSON (open at ui.perfetto.dev),
``metrics`` writes a Prometheus text-format snapshot of the substrate
metrics registry plus the run's SLO verdicts.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.calibration import ExperimentConfig
from repro.experiments import sweeps
from repro.experiments.figure1 import render_figure1
from repro.experiments.format import format_table
from repro.experiments.table1 import regenerate_table1


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(logical_scale=args.scale, seed=args.seed)


def _print_rows(title: str, rows: list[dict]) -> None:
    if not rows:
        print(f"{title}: no rows")
        return
    print(format_table(rows, title))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables/figures and the ablation sweeps.",
    )
    parser.add_argument("--scale", type=float, default=256.0,
                        help="logical-to-real byte scale (default 256)")
    parser.add_argument("--seed", type=int, default=2021)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "table1",
        "figure1",
        "sweep-workers",
        "sweep-size",
        "sweep-storage",
        "sweep-startup",
        "sweep-codec",
        "sweep-memory",
        "sweep-io",
        "sweep-exchange",
        "sweep-relay-shards",
        "sweep-streaming",
        "sweep-skew",
        "sweep-online",
        "sweep-faults",
        "sweep-speculation",
        "sweep-exchange-faults",
        "sweep-exchange-speculation",
        "sweep-tuner",
        "sweep-multicloud",
        "sweep-service",
        "exchange",
    ):
        sub.add_parser(name)
    trace_parser = sub.add_parser(
        "trace", help="export one traced auto_sort run as Chrome trace JSON"
    )
    trace_parser.add_argument("--out", default="s8_trace.json")
    metrics_parser = sub.add_parser(
        "metrics", help="export one run's metrics registry as Prometheus text"
    )
    metrics_parser.add_argument("--out", default="s8_metrics.txt")
    replay_parser = sub.add_parser(
        "replay-verify",
        help="re-derive a RunManifest's hash chain offline and PASS/FAIL it",
    )
    replay_parser.add_argument(
        "--manifest", required=True,
        help="path to a RunManifest JSON file (e.g. the S16 artifact)",
    )
    args = parser.parse_args(argv)

    if args.command == "table1":
        result = regenerate_table1(logical_scale=args.scale, seed=args.seed)
        print(result.to_table())
        print()
        print(result.serverless.workflow.tracker.render())
        print()
        print(result.vm.workflow.tracker.render())
    elif args.command == "figure1":
        print(render_figure1())
    elif args.command == "sweep-workers":
        _print_rows("S1: shuffle worker-count sweep", sweeps.sweep_workers(_config(args)))
    elif args.command == "sweep-size":
        _print_rows("S2: data-size scaling", sweeps.sweep_size(_config(args)))
    elif args.command == "sweep-storage":
        _print_rows(
            "S3: object-store ops/s sensitivity", sweeps.sweep_storage_ops(_config(args))
        )
    elif args.command == "sweep-startup":
        _print_rows("S4: startup-time sensitivity", sweeps.sweep_startup(_config(args)))
    elif args.command == "sweep-codec":
        _print_rows("S5: codec ratio vs gzip", sweeps.sweep_codec(seed=args.seed))
    elif args.command == "sweep-memory":
        _print_rows("S6: function-memory sweep", sweeps.sweep_memory(_config(args)))
    elif args.command == "sweep-io":
        _print_rows(
            "S7: write-combining ablation", sweeps.sweep_io_ablation(_config(args))
        )
    elif args.command == "sweep-exchange":
        rows = sweeps.sweep_exchange(_config(args))
        _print_rows("S8: exchange-substrate worker sweep", rows)
        last_report = next(
            (row["_report"] for row in reversed(rows) if row.get("_report")), None
        )
        if last_report:
            print()
            print(last_report)
    elif args.command == "sweep-relay-shards":
        _print_rows(
            "S8b: relay shard-count sweep",
            sweeps.sweep_relay_shards(_config(args)),
        )
    elif args.command == "sweep-streaming":
        _print_rows(
            "S10: streaming vs staged exchange",
            sweeps.sweep_streaming(_config(args)),
        )
    elif args.command == "sweep-skew":
        _print_rows(
            "S11: skew-aware shuffle (CRC vs rebalanced fleet routing)",
            sweeps.sweep_skew(_config(args)),
        )
    elif args.command == "sweep-online":
        rows = sweeps.sweep_online(_config(args))
        timeline = next(
            (row["_timeline"] for row in rows if row.get("_timeline")), []
        )
        _print_rows(
            "S12: online mid-stream re-selection vs static decisions", rows
        )
        print()
        print("online decision timeline:")
        for line in timeline:
            print(f"  {line}")
    elif args.command == "sweep-faults":
        _print_rows(
            "S9a: crash-rate overhead", sweeps.sweep_fault_rate(_config(args))
        )
    elif args.command == "sweep-speculation":
        _print_rows(
            "S9b: straggler mitigation", sweeps.sweep_speculation(_config(args))
        )
    elif args.command == "sweep-exchange-faults":
        _print_rows(
            "S9c: crash injection by exchange substrate",
            sweeps.sweep_exchange_faults(_config(args)),
        )
    elif args.command == "sweep-exchange-speculation":
        _print_rows(
            "S9d: speculation by exchange substrate",
            sweeps.sweep_exchange_speculation(_config(args)),
        )
    elif args.command == "sweep-tuner":
        _print_rows(
            "S10a: on-the-fly tuning vs static calibration",
            sweeps.sweep_tuner(_config(args)),
        )
    elif args.command == "sweep-multicloud":
        _print_rows(
            "S11: multi-cloud portability", sweeps.sweep_multicloud(_config(args))
        )
    elif args.command == "sweep-service":
        _print_rows(
            "S13: shared exchange service vs provision-per-job",
            sweeps.sweep_service(_config(args)),
        )
    elif args.command == "exchange":
        from repro.core.experiment import run_exchange_comparison

        print(run_exchange_comparison(_config(args)).to_table())
    elif args.command == "trace":
        from repro.obs.cli import export_trace

        summary = export_trace(args.out, logical_scale=args.scale, seed=args.seed)
        if summary["problems"]:
            print("trace problems:")
            for problem in summary["problems"]:
                print(f"  {problem}")
            return 1
        print(
            f"wrote {summary['path']}: {summary['spans']} spans, "
            f"{summary['timeline_records']} timeline records "
            f"(latency {summary['latency_s']:.2f}s, "
            f"${summary['cost_usd']:.6f}); open at ui.perfetto.dev"
        )
    elif args.command == "replay-verify":
        from repro.shuffle.content import verify_manifest_file

        problems = verify_manifest_file(args.manifest)
        if problems:
            print(f"FAIL: {args.manifest}")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"PASS: {args.manifest} (hash chain verified)")
    elif args.command == "metrics":
        from repro.obs.cli import export_metrics

        summary = export_metrics(args.out, logical_scale=args.scale, seed=args.seed)
        print(
            f"wrote {summary['path']}: {summary['metrics']} metrics "
            f"(latency {summary['latency_s']:.2f}s, "
            f"${summary['cost_usd']:.6f})"
        )
        print(summary["slo"])
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
