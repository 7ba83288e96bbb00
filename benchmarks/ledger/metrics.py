"""Every metric the ledger reports, by name, with its unit.

``BENCHMARK.json`` carries the same names, units and bounds in the form
the driver reads; ``selfcheck.py`` asserts the two agree.  What only
lives here is the prediction written down before measuring: which
end-to-end metric each per-layer metric should move, and on which
workload (``README.md`` has the prose).

Two clocks are kept apart.  *Host* metrics (``s``, ``MB``) are what a
performance change moves and are noisy.  *Simulated* metrics
(``sim_s``, ``usd``) are what the model says; they repeat exactly for a
seed, so for one seed any drift is a behaviour change, not noise.
"""

from __future__ import annotations

import typing as t


#: Ops (pipeline / sort / job runs) in one repetition of each workload.
#: Fixed, so a watchdog kill can mark every op of a repetition failed.
WORKLOAD_OPS = {"table1": 2, "fanout": 3, "dataplane": 4, "control": 20}

#: Host seconds one subprocess is expected to take at most; the watchdog
#: kills it at ten times that.
EXPECTED_CHILD_S = {"table1": 20.0, "fanout": 20.0, "dataplane": 25.0, "control": 30.0}


class EndToEnd(t.NamedTuple):
    name: str
    unit: str
    #: Share of the parent's median by which the metric may get worse.
    #: Sized from the spread across seeds on this machine (README), not
    #: from the same-seed repeatability, which for the simulated metrics
    #: is exact.
    bound: float
    definition: str


#: Lower is better for all of them.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", 0.25,
             "median perf_counter time of one timed repetition"),
    EndToEnd("cpu_s", "s", 0.25,
             "median process_time (user+sys) of the same repetitions"),
    EndToEnd("setup_s", "s", 0.25,
             "process start to first timed repetition: import, payload "
             "generation, warm-up repetition (its output checks excluded); "
             "median over three fresh processes"),
    EndToEnd("peak_rss_mb", "MB", 0.25,
             "ru_maxrss of the timed subprocess at exit"),
    EndToEnd("sim_latency_s", "sim_s", 0.25,
             "the workload's sum of simulated latencies"),
    EndToEnd("sim_cost_usd", "usd", 0.20,
             "the workload's sum of simulated dollars"),
)


class PerLayer(t.NamedTuple):
    name: str
    unit: str
    better: str
    #: ``end-to-end metric @ workload`` pairs this metric should move.
    moves: tuple[str, ...]


def _self_s(layer: str, *moves: str) -> PerLayer:
    return PerLayer(f"{layer}.self_s", "s", "lower", moves)


_SIM = ("wall_s@fanout", "cpu_s@fanout", "wall_s@control")
_DATAPLANE = ("wall_s@dataplane",)
_CONTROL = ("wall_s@control", "sim_latency_s@control", "sim_cost_usd@control")

PER_LAYER: tuple[PerLayer, ...] = (
    # -- host self-time by layer (cProfile, folded by layers.py) -------
    _self_s("sim.kernel", *_SIM),
    _self_s("sim.links", *_SIM),
    _self_s("sim.resources", *_SIM),
    _self_s("cloud.objectstore", "wall_s@fanout"),
    _self_s("cloud.faas", "wall_s@fanout", "wall_s@table1"),
    _self_s("cloud.vm", "wall_s@dataplane", "wall_s@control"),
    _self_s("cloud.memstore", "wall_s@dataplane"),
    _self_s("cloud.billing", "wall_s@fanout"),
    _self_s("cloud.region", "wall_s@fanout"),
    _self_s("executor", "wall_s@fanout"),
    _self_s("storage", "wall_s@fanout"),
    _self_s("shuffle.kernels", "wall_s@dataplane", "peak_rss_mb@dataplane"),
    _self_s("shuffle.planner", *_CONTROL),
    _self_s("shuffle.online", *_CONTROL),
    _self_s("shuffle.exchange", *_DATAPLANE),
    _self_s("service", *_CONTROL),
    _self_s("cas", *_DATAPLANE),
    _self_s("methcomp.codec", "wall_s@table1"),
    _self_s("methcomp.datagen", "wall_s@table1", "wall_s@control",
            "setup_s@fanout", "setup_s@dataplane"),
    _self_s("methcomp.bed", "wall_s@table1", "wall_s@dataplane"),
    _self_s("core", "wall_s@table1"),
    _self_s("workflows", "wall_s@table1"),
    _self_s("experiments", "wall_s@control"),
    _self_s("obs", "wall_s@fanout"),
    _self_s("other", "wall_s@table1"),
    # -- simulator -----------------------------------------------------
    PerLayer("sim.events", "count", "lower", _SIM),
    PerLayer("sim.us_per_event", "us", "lower", _SIM),
    # -- object store --------------------------------------------------
    PerLayer("cloud.objectstore.requests", "count", "lower",
             ("sim_cost_usd@fanout", "wall_s@fanout")),
    PerLayer("cloud.objectstore.gets", "count", "lower", ("sim_cost_usd@fanout",)),
    PerLayer("cloud.objectstore.puts", "count", "lower", ("sim_cost_usd@fanout",)),
    PerLayer("cloud.objectstore.bytes_out_mb", "MB", "lower",
             ("sim_latency_s@fanout",)),
    PerLayer("cloud.objectstore.dedup_ops", "count", "higher",
             ("sim_cost_usd@fanout",)),
    PerLayer("cloud.objectstore.slowdowns", "count", "lower",
             ("sim_latency_s@fanout",)),
    # -- functions -----------------------------------------------------
    PerLayer("cloud.faas.invocations", "count", "lower",
             ("sim_cost_usd@table1", "sim_cost_usd@fanout")),
    PerLayer("cloud.faas.cold_starts", "count", "lower",
             ("sim_latency_s@table1", "sim_latency_s@fanout")),
    PerLayer("cloud.faas.failed", "count", "lower",
             ("sim_latency_s@table1", "sim_latency_s@fanout")),
    PerLayer("cloud.faas.billed_gb_s", "GB.s", "lower",
             ("sim_cost_usd@table1", "sim_cost_usd@fanout")),
    # -- relay VMs and cache clusters ----------------------------------
    PerLayer("cloud.vm.relay_in_mb", "MB", "lower",
             ("sim_latency_s@dataplane", "sim_latency_s@control")),
    PerLayer("cloud.vm.relay_out_mb", "MB", "lower",
             ("sim_latency_s@dataplane", "sim_latency_s@control")),
    PerLayer("cloud.vm.backpressure_waits", "count", "lower",
             ("sim_latency_s@dataplane", "sim_latency_s@control")),
    PerLayer("cloud.vm.rendezvous_waits", "count", "lower",
             ("sim_latency_s@dataplane", "sim_latency_s@control")),
    PerLayer("cloud.memstore.ops", "count", "lower", ("wall_s@dataplane",)),
    PerLayer("cloud.memstore.evictions", "count", "lower",
             ("sim_latency_s@dataplane",)),
    PerLayer("cloud.memstore.dedup_restores", "count", "lower",
             ("sim_latency_s@dataplane",)),
    # -- the bill, by CostLine.service ---------------------------------
    PerLayer("cloud.billing.faas_usd", "usd", "lower",
             ("sim_cost_usd@table1", "sim_cost_usd@fanout")),
    PerLayer("cloud.billing.objectstore_usd", "usd", "lower",
             ("sim_cost_usd@fanout",)),
    PerLayer("cloud.billing.vm_usd", "usd", "lower",
             ("sim_cost_usd@table1", "sim_cost_usd@control")),
    PerLayer("cloud.billing.cache_usd", "usd", "lower", ("sim_cost_usd@dataplane",)),
    PerLayer("cloud.billing.other_usd", "usd", "lower", ("sim_cost_usd@table1",)),
    # -- executor ------------------------------------------------------
    PerLayer("executor.calls", "count", "lower", ("wall_s@fanout",)),
    # -- shuffle -------------------------------------------------------
    PerLayer("shuffle.kernels.calls", "count", "lower", _DATAPLANE),
    PerLayer("shuffle.kernels.vectorized_share", "ratio", "higher",
             ("wall_s@dataplane", "peak_rss_mb@dataplane")),
    PerLayer("shuffle.streaming.overlap_s", "sim_s", "higher",
             ("sim_latency_s@dataplane",)),
    PerLayer("shuffle.streaming.backpressure_waits", "count", "lower",
             ("sim_latency_s@dataplane",)),
    PerLayer("shuffle.online.switches", "count", "lower", ("sim_latency_s@control",)),
    PerLayer("shuffle.online.reroutes", "count", "lower", ("sim_latency_s@control",)),
    # -- service -------------------------------------------------------
    PerLayer("service.jobs", "count", "higher", ("sim_latency_s@control",)),
    PerLayer("service.queue_wait_p95_s", "sim_s", "lower", ("sim_latency_s@control",)),
    PerLayer("service.scale_events", "count", "lower", ("sim_cost_usd@control",)),
    # -- content addressing --------------------------------------------
    PerLayer("cas.hash_calls", "count", "lower", _DATAPLANE),
    # -- METHCOMP and the paper's table --------------------------------
    PerLayer("methcomp.codec.ratio", "ratio", "higher", ("sim_cost_usd@table1",)),
    PerLayer("core.sort.sim_s", "sim_s", "lower", ("sim_latency_s@table1",)),
    PerLayer("core.encode.sim_s", "sim_s", "lower", ("sim_latency_s@table1",)),
    PerLayer("core.paper_latency_err_pct", "%", "lower", ("sim_latency_s@table1",)),
    PerLayer("core.paper_cost_ratio", "ratio", "lower", ("sim_cost_usd@table1",)),
    # -- the tracing itself --------------------------------------------
    PerLayer("trace.overhead_x", "x", "lower", ("wall_s@table1",)),
)
