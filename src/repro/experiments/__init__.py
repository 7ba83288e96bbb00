"""Regenerators for the paper's evaluation artifacts.

* :mod:`repro.experiments.table1` — Table 1 (latency/cost, both configs);
* :mod:`repro.experiments.figure1` — Figure 1 (architecture diagrams);
* :mod:`repro.experiments.sweeps` — supplementary sweeps S1-S11;
* :mod:`repro.experiments.cli` — ``repro-experiments`` command.
"""

from repro.experiments.figure1 import render_figure1
from repro.experiments.format import format_rows, format_table
from repro.experiments.sweeps import (
    sweep_codec,
    sweep_exchange,
    sweep_exchange_faults,
    sweep_exchange_pipelines,
    sweep_exchange_speculation,
    sweep_fault_rate,
    sweep_io_ablation,
    sweep_memory,
    sweep_multicloud,
    sweep_relay_shards,
    sweep_size,
    sweep_skew,
    sweep_speculation,
    sweep_startup,
    sweep_storage_ops,
    sweep_streaming,
    sweep_tuner,
    sweep_workers,
)
from repro.experiments.table1 import regenerate_table1

__all__ = [
    "format_rows",
    "format_table",
    "regenerate_table1",
    "render_figure1",
    "sweep_codec",
    "sweep_exchange",
    "sweep_exchange_faults",
    "sweep_exchange_pipelines",
    "sweep_exchange_speculation",
    "sweep_fault_rate",
    "sweep_io_ablation",
    "sweep_memory",
    "sweep_multicloud",
    "sweep_relay_shards",
    "sweep_size",
    "sweep_skew",
    "sweep_speculation",
    "sweep_startup",
    "sweep_storage_ops",
    "sweep_streaming",
    "sweep_tuner",
    "sweep_workers",
]
