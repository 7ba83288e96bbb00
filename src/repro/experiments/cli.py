"""Command-line entry point for the experiment regenerators.

Every row of :data:`repro.experiments.EXPERIMENTS` is a sub-command
that prints its table as ``benchmarks/results`` holds it (at the
harness's ``--scale 1024``); the rest are below it in the usage block,
which is generated from the table and appended to this docstring.

``trace`` and ``metrics`` run one adaptive (``auto_sort``) pipeline with
the unified observability plane enabled and export it: ``trace`` writes
Perfetto-loadable Chrome trace-event JSON (open at ui.perfetto.dev),
``metrics`` writes a Prometheus text-format snapshot of the substrate
metrics registry plus the run's SLO verdicts.  ``replay-verify``
re-derives a RunManifest's hash chain offline.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.calibration import ExperimentConfig
from repro.experiments import (
    EXPERIMENTS,
    render_experiment,
    render_figure1,
    run_experiment,
)

#: The sub-commands that are not table rows: (name, flags, help).
OTHER_COMMANDS = (
    ("table1", "", "Table 1 and both per-stage breakdowns"),
    ("figure1", "", "Figure 1: the two pipeline DAGs, side by side"),
    ("exchange", "", "S8: the four-way end-to-end pipeline comparison"),
    ("trace", "[--out s8_trace.json]",
     "export one traced auto_sort run as Chrome trace JSON"),
    ("metrics", "[--out s8_metrics.txt]",
     "export one run's metrics registry as Prometheus text"),
    ("replay-verify", "--manifest PATH",
     "re-derive a RunManifest's hash chain offline and PASS/FAIL it"),
)

USAGE = "\n".join(
    ["    repro-experiments [--scale 256] [--seed 2021] <command>", ""]
    + [f"    repro-experiments {name}" for name in EXPERIMENTS]
    + [f"    repro-experiments {name} {flags}".rstrip() for name, flags, _ in OTHER_COMMANDS]
)
__doc__ = (__doc__ or "") + "\nUsage::\n\n" + USAGE + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables/figures and the ablation sweeps.",
    )
    parser.add_argument("--scale", type=float, default=256.0,
                        help="logical-to-real byte scale (default 256)")
    parser.add_argument("--seed", type=int, default=2021)
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment in EXPERIMENTS.values():
        sub.add_parser(experiment.name, help=experiment.title)
    others = {name: sub.add_parser(name, help=text) for name, _, text in OTHER_COMMANDS}
    others["trace"].add_argument("--out", default="s8_trace.json")
    others["metrics"].add_argument("--out", default="s8_metrics.txt")
    others["replay-verify"].add_argument(
        "--manifest", required=True,
        help="path to a RunManifest JSON file (e.g. the S16 artifact)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(logical_scale=args.scale, seed=args.seed)

    if args.command in EXPERIMENTS:
        experiment = EXPERIMENTS[args.command]
        print(render_experiment(experiment, run_experiment(experiment, config)))
    elif args.command == "table1":
        from repro.core.experiment import run_table1

        result = run_table1(config)
        print(result.to_table())
        print()
        print(result.serverless.workflow.tracker.render())
        print()
        print(result.vm.workflow.tracker.render())
    elif args.command == "figure1":
        print(render_figure1())
    elif args.command == "exchange":
        from repro.core.experiment import run_exchange_comparison

        print(run_exchange_comparison(config).to_table())
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
            f"{summary['events']} span events "
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
