"""repro — reproduction of "A Milestone for FaaS Pipelines" (Middleware '21).

A simulation-backed reimplementation of the paper's full stack:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.cloud` — object storage, FaaS platform, VM service,
  in-memory cache service, billing, the calibrated IBM profile;
* :mod:`repro.storage` — object-store key layout and the payload codec;
* :mod:`repro.executor` — Lithops-like ``FunctionExecutor`` (+ VM mode,
  crash retries, speculative execution);
* :mod:`repro.shuffle` — Primula-like shuffle/sort through object
  storage, a cache cluster or VM relays, analytic planners and the
  probe-based on-the-fly tuner;
* :mod:`repro.methcomp` — METHCOMP genomics workload (data + codec);
* :mod:`repro.workflows` — declarative DAG pipelines with cost tracking
  and Gantt timelines;
* :mod:`repro.core` — the paper's comparison: object-storage- vs VM- vs
  cache-driven data exchange for the METHCOMP pipeline;
* :mod:`repro.experiments` — regenerators for Table 1, Figure 1 and the
  supplementary sweeps S1-S13.

Quickstart::

    from repro.core import ExperimentConfig, run_table1
    results = run_table1(ExperimentConfig())
    print(results.to_table())
"""

from repro._version import __version__

__all__ = ["__version__"]
