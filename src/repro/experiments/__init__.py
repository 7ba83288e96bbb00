"""Regenerators for the paper's evaluation artifacts.

* :data:`EXPERIMENTS` — the experiment table: one row per sweep
  artifact (sub-command, sweep function, committed title,
  ``benchmarks/results`` stem and the claims its rows must bear out).
  The CLI's sweep sub-commands, the bench harness's ``regenerate``
  fixture and claim loop, the results lint and the README index are
  all read off it;
* :mod:`repro.experiments.claims` — what each row shows, as named
  predicates over its rows;
* :mod:`repro.experiments.sweeps` — the sweeps themselves (S1-S13);
* :mod:`repro.experiments.figure1` — Figure 1 (architecture diagrams);
* :mod:`repro.experiments.cli` — the ``repro-experiments`` command
  (Table 1 is :func:`repro.core.run_table1`).
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.core.calibration import ExperimentConfig
from repro.experiments import claims, sweeps
from repro.experiments.claims import Claim
from repro.experiments.figure1 import render_figure1
from repro.experiments.format import format_rows, format_table


def _last_report(rows: list[dict]) -> str:
    """S8: the last substrate's rendered exchange report."""
    return rows[-1]["_report"]


def _decision_timeline(rows: list[dict]) -> str:
    """S12: the online row's decision timeline, one indented line each."""
    timeline = next((row["_timeline"] for row in rows if row.get("_timeline")), [])
    return "\n".join(["online decision timeline:", *(f"  {line}" for line in timeline)])


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One sweep artifact: how to run it, title it and where it is kept."""

    #: ``repro-experiments`` sub-command.
    name: str
    #: ``run(config) -> rows``.
    run: t.Callable[[ExperimentConfig], list[dict]]
    #: Stem of the committed table, ``benchmarks/results/<result>.txt``.
    result: str
    #: Title line of that table.
    title: str
    #: ``ExperimentConfig`` fields the artifact pins.
    overrides: dict[str, t.Any] = dataclasses.field(default_factory=dict)
    #: Renders what follows the table (after a blank line), from the rows.
    epilogue: t.Callable[[list[dict]], str] | None = None
    #: False for an epilogue that carries host timings: the CLI prints
    #: it, the committed table (regenerated byte for byte) leaves it out.
    epilogue_in_result: bool = True
    #: What the rows show (:mod:`repro.experiments.claims`).
    claims: tuple[Claim, ...] = ()

    def configure(self, config: ExperimentConfig) -> ExperimentConfig:
        """``config`` with the fields this artifact pins."""
        return dataclasses.replace(config, **self.overrides)

    def failed_claims(self, rows: list[dict], config: ExperimentConfig) -> dict[str, str]:
        """Claim name → message, for each claim made at ``config``'s
        scale that ``rows`` (run on ``config``) do not bear out."""
        config = self.configure(config)
        verdicts = {
            claim.name: claim.verdict(rows, config)
            for claim in self.claims
            if claim.holds_at(config.logical_scale)
        }
        return {name: message for name, message in verdicts.items() if message}


#: Sub-command → experiment, in S-number order.
EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment("sweep-workers", sweeps.sweep_workers, "s1_worker_sweep",
                   "S1: sort latency vs worker count (3.5 GB)", claims=claims.WORKERS),
        Experiment("sweep-size", sweeps.sweep_size, "s2_size_sweep",
                   "S2: latency vs input size (parallelism 8)", claims=claims.SIZE),
        Experiment("sweep-storage", sweeps.sweep_storage_ops, "s3_storage_sensitivity",
                   "S3: naive 32-worker all-to-all vs store ops/s", claims=claims.STORAGE),
        Experiment("sweep-startup", sweeps.sweep_startup, "s4_startup_sensitivity",
                   "S4: latency vs startup knobs", claims=claims.STARTUP),
        Experiment("sweep-codec", sweeps.sweep_codec, "s5_codec_ratio",
                   "S5: METHCOMP-style codec vs gzip", claims=claims.CODEC),
        Experiment("sweep-memory", sweeps.sweep_memory, "s6_memory_sweep",
                   "S6: serverless pipeline vs function memory", claims=claims.MEMORY),
        Experiment("sweep-io", sweeps.sweep_io_ablation, "s7_io_ablation",
                   "S7: Primula write-combining vs naive all-to-all", claims=claims.IO),
        Experiment("sweep-exchange", sweeps.sweep_exchange, "s8_exchange_worker_sweep",
                   "S8: sort latency by exchange substrate (3.5 GB)",
                   epilogue=_last_report, epilogue_in_result=False,
                   claims=claims.EXCHANGE),
        # The sharding win needs the exchange waves to genuinely saturate
        # one instance NIC, which takes both a high worker count AND a
        # large dataset (at 3.5 GB the per-worker transfers are short
        # enough that dispatch stagger keeps concurrency — and thus
        # aggregate demand — below one line rate).  14 GB at W=64 holds
        # ~60 concurrent 44 MB/s flows against a 16 Gb/s NIC.
        Experiment("sweep-relay-shards", sweeps.sweep_relay_shards, "s8b_relay_shards",
                   "S8b: relay fleet shard-count sweep (14 GB, W=64)",
                   overrides={"size_gb": 14.0}, claims=claims.RELAY_SHARDS),
        Experiment("sweep-faults", sweeps.sweep_fault_rate, "s9_fault_rate",
                   "S9a: map-job overhead vs injected crash rate", claims=claims.FAULTS),
        Experiment("sweep-speculation", sweeps.sweep_speculation, "s9_speculation",
                   "S9b: straggler mitigation under heavy-tailed cold starts",
                   claims=claims.SPECULATION),
        Experiment("sweep-exchange-faults", sweeps.sweep_exchange_faults,
                   "s9c_exchange_faults",
                   "S9c: crash injection by exchange substrate "
                   "(byte parity asserted in-sweep)", claims=claims.EXCHANGE_FAULTS),
        Experiment("sweep-exchange-speculation", sweeps.sweep_exchange_speculation,
                   "s9d_exchange_speculation",
                   "S9d: speculation by exchange substrate "
                   "(identical digests asserted in-sweep)",
                   claims=claims.EXCHANGE_SPECULATION),
        Experiment("sweep-streaming", sweeps.sweep_streaming, "s10_streaming",
                   "S10: streaming vs staged exchange (3.5 GB, W=16, 32 MB chunks)",
                   claims=claims.STREAMING),
        Experiment("sweep-tuner", sweeps.sweep_tuner, "s10a_autotune",
                   "S10a: planner regret by region scenario (3.5 GB)", claims=claims.TUNER),
        Experiment("sweep-skew", sweeps.sweep_skew, "s11_skew",
                   "S11: skew-aware shuffle "
                   "(3.5 GB, W=12, 2 shards, Zipf s=2 over 4 keys)", claims=claims.SKEW),
        Experiment("sweep-online", sweeps.sweep_online, "s12_online",
                   "S12: online mid-stream re-selection vs static decisions (3.5 GB)",
                   epilogue=_decision_timeline, claims=claims.ONLINE),
        Experiment("sweep-service", sweeps.sweep_service, "s13_service",
                   "S13: shared exchange service vs provision-per-job (3.5 GB)",
                   claims=claims.SERVICE),
    )
}


def run_experiment(experiment: Experiment, config: ExperimentConfig) -> list[dict]:
    """The experiment's rows on ``config`` with its pinned fields applied."""
    return experiment.run(experiment.configure(config))


def render_experiment(
    experiment: Experiment, rows: list[dict], *, result: bool = False
) -> str:
    """The titled table plus the epilogue — as the CLI prints it, or
    (``result``) as ``benchmarks/results/<result>.txt`` holds it."""
    text = format_table(rows, experiment.title)
    if experiment.epilogue is not None and (
        experiment.epilogue_in_result or not result
    ):
        text += "\n\n" + experiment.epilogue(rows)
    return text


_SWEEPS = {experiment.run.__name__: experiment.run for experiment in EXPERIMENTS.values()}
globals().update(_SWEEPS)  # ``from repro.experiments import sweep_workers``

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "format_rows",
    "format_table",
    "render_experiment",
    "render_figure1",
    "run_experiment",
    *sorted(_SWEEPS),
]
