"""Exact-parity goldens of the analytic planner: every float by ``repr``.

The shuffle cost model is arithmetic over profile constants, so a
refactor of it must not move one bit of one prediction — the worker
counts the backends plan, the substrate the selector picks and every
``predicted_s`` column in ``benchmarks/results`` all hang off it.  This
suite pins, as generated at the commit *before* the three per-substrate
predictors were collapsed into one (the JSON is that commit's):

* ``predict`` — per substrate configuration (flavour × count ×
  ``fetch_parallelism``) a digest over ``repr(total_s)`` and ``repr`` of
  every breakdown entry *in key order* (key order is summation order:
  ``sum(breakdown.values())``) on a size × W × skew grid, staged and
  streaming (32 MB chunks, ``chunked_input`` both ways), plus a handful
  of cells spelled out in full so a failure shows a number;
* ``plans`` — the worker count and ``repr(predicted_s)`` each
  substrate's planner picks;
* ``select`` — ``choose_exchange_substrate``'s full ``estimates`` tuple
  (every field) and ``describe()`` over pinned/unpinned workers × modes ×
  time value × skew × candidate subsets, infeasible pins, the raised
  no-feasible-substrate message, a probe refit and a mid-stream refit;
* ``refit`` — ``fit_stream_profiles`` on one sample per substrate and
  the per-chunk readiness overhead.

Regenerate (only for an intended model change, never for a refactor)::

    PYTHONPATH=src python tests/shuffle/test_planner_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
import sys
import typing as t

import pytest

from repro.cloud.profiles import GB, MB, ibm_us_east
from repro.core.calibration import WorkloadParams
from repro.errors import ShuffleError
from repro.shuffle.adaptive import (
    ProbeReport,
    StreamRateSample,
    choose_exchange_substrate,
    fit_profile,
    fit_stream_profiles,
)
from repro.shuffle.planner import (
    PlanPoint,
    ShuffleCostModel,
    plan_shuffle,
    predict_shuffle_time,
    predict_streaming_shuffle_time,
    streaming_chunk_count,
)
from repro.shuffle.substrates import exchange_terms

GOLDEN_PATH = pathlib.Path(__file__).with_name("planner_golden.json")
PROFILE = ibm_us_east(deterministic=True)
WORKLOAD = WorkloadParams()

SIZES_GB = (0.5, 3.5, 14.0, 40.0)
WORKERS = (1, 2, 7, 8, 64, 255, 256)
SKEWS = (1.0, 1.37, 2.9)
CHUNK_BYTES = 32.0 * MB


# ----------------------------------------------------------------------
# The planner surface under test — the one section a planner refactor
# touches; everything below it, and the JSON, stays as generated.
# ----------------------------------------------------------------------
def staged_point(
    substrate: str, size: float, workers: int, flavour: str, count: int,
    fetch_parallelism: int, skew: float,
) -> PlanPoint:
    """One substrate configuration's staged prediction."""
    cost = ShuffleCostModel(fetch_parallelism=fetch_parallelism)
    terms = exchange_terms(substrate, PROFILE, cost, flavour, count)
    return predict_shuffle_time(size, workers, PROFILE, cost, skew=skew, terms=terms)


def staged_plan(substrate: str, size: float, flavour: str, count: int, skew: float):
    """The worker count one substrate configuration's planner picks."""
    terms = exchange_terms(substrate, PROFILE, None, flavour, count)
    return plan_shuffle(size, PROFILE, skew=skew, terms=terms)


def chunk_overhead_s(substrate: str) -> float:
    """The per-chunk readiness overhead streaming pays on a substrate."""
    return exchange_terms(substrate, PROFILE).chunk_overhead_s


def selector_costs(workload: WorkloadParams | None, rebalance: bool = True) -> dict:
    """The cost keyword argument of ``choose_exchange_substrate``."""
    cost = ShuffleCostModel() if workload is None else workload.shuffle_cost_model()
    cost.rebalance = rebalance
    return {"cost": cost}


def probed(profile, report: ProbeReport | None):
    """The profile a selector call prices on: refit from the probe
    ``report`` when there is one."""
    return profile if report is None else fit_profile(profile, report)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_point(point: PlanPoint) -> list:
    """``[workers, repr(total), [key, repr(value)]...]`` in key order."""
    return [
        point.workers,
        repr(point.total_s),
        *([key, repr(value)] for key, value in point.breakdown.items()),
    ]


def render_modes(substrate: str, size: float, staged: PlanPoint) -> list:
    """A staged point plus its streaming transforms, both input shapes."""
    chunks = streaming_chunk_count(size, staged.workers, CHUNK_BYTES)
    overhead = chunk_overhead_s(substrate)
    return [
        render_point(staged),
        *(
            render_point(
                predict_streaming_shuffle_time(
                    staged, chunks, overhead, chunked_input=chunked_input
                )
            )
            for chunked_input in (False, True)
        ),
    ]


def digest(value: t.Any) -> str:
    return hashlib.sha256(
        json.dumps(value, separators=(",", ":")).encode()
    ).hexdigest()


def render_estimate(estimate) -> dict:
    return {
        field.name: (
            repr(value)
            if isinstance(value := getattr(estimate, field.name), float)
            else value
        )
        for field in dataclasses.fields(estimate)
    }


def render_decision(decision) -> dict:
    return {
        "chosen": [
            decision.chosen.substrate,
            decision.chosen.mode,
            decision.chosen.workers,
            decision.chosen.shards,
            decision.chosen.instance_type,
            repr(decision.chosen.score_usd),
        ],
        "partition_skew": repr(decision.partition_skew),
        "estimates": [render_estimate(e) for e in decision.estimates],
        "describe": decision.describe(),
    }


def select(
    size: float, profile=PROFILE, workload=None, rebalance=True, report=None, **kwargs
) -> dict:
    """One selector call rendered, or the message it raises."""
    try:
        decision = choose_exchange_substrate(
            size, probed(profile, report), **selector_costs(workload, rebalance),
            **kwargs,
        )
    except ShuffleError as exc:
        return {"raises": str(exc)}
    return render_decision(decision)


# ----------------------------------------------------------------------
# the grids
# ----------------------------------------------------------------------
def predictor_configs() -> list[tuple[str, str, int, int]]:
    """(substrate, flavour, count, fetch_parallelism) of every cell."""
    configs = [("objectstore", "", 1, fp) for fp in (1, 4)]
    configs += [
        ("cache", name, nodes, fp)
        for name in PROFILE.memstore.catalog
        for nodes in (1, 3)
        for fp in (1, 4)
    ]
    for name in PROFILE.vm.catalog:
        for shards in (1, 2, 8):
            substrate = "relay" if shards == 1 else "sharded-relay"
            configs += [(substrate, name, shards, fp) for fp in (1, 4)]
    return configs


def config_name(substrate: str, flavour: str, count: int, fp: int) -> str:
    return f"{substrate}|{flavour}|{count}|fp{fp}"


def predict_cell(substrate: str, flavour: str, count: int, fp: int) -> list:
    """Every grid point of one configuration, rendered."""
    return [
        render_modes(
            substrate,
            size_gb * GB,
            staged_point(substrate, size_gb * GB, workers, flavour, count, fp, skew),
        )
        for size_gb, workers, skew in itertools.product(SIZES_GB, WORKERS, SKEWS)
    ]


#: Cells spelled out in full (the rest are digests).
EXPLICIT = (
    ("objectstore", "", 1, 4),
    ("objectstore", "", 1, 1),
    ("cache", "cache.r5.large", 3, 4),
    ("relay", "bx2-8x32", 1, 4),
    ("sharded-relay", "bx2-4x16", 8, 4),
)


def explicit_cell(substrate: str, flavour: str, count: int, fp: int) -> list:
    return [
        render_modes(
            substrate,
            3.5 * GB,
            staged_point(substrate, 3.5 * GB, workers, flavour, count, fp, skew),
        )
        for workers, skew in ((1, 1.0), (8, 1.0), (8, 2.9), (256, 1.37))
    ]


def plan_cells() -> dict:
    cells = {}
    for substrate, flavour, count in (
        ("objectstore", "", 1),
        ("cache", "cache.r5.large", 1),
        ("cache", "cache.r5.4xlarge", 3),
        ("relay", "bx2-8x32", 1),
        ("relay", "bx2-48x192", 1),
        ("sharded-relay", "bx2-2x8", 8),
        ("sharded-relay", "bx2-16x64", 2),
    ):
        for size_gb, skew in itertools.product((0.5, 3.5, 40.0), (1.0, 2.9)):
            plan = staged_plan(substrate, size_gb * GB, flavour, count, skew)
            cells[f"{substrate}|{flavour}|{count}|{size_gb}GB|skew{skew}"] = [
                plan.workers,
                repr(plan.predicted_s),
                len(plan.curve),
                digest([render_point(point) for point in plan.curve]),
            ]
    return cells


SUBSETS: tuple[tuple[str, ...] | None, ...] = (
    None,
    ("objectstore", "relay"),
    ("sharded-relay",),
    ("cache", "objectstore"),
)
BOTH_MODES = ("staged", "streaming")


def selector_cells() -> dict:
    cells: dict[str, dict] = {}

    def add(name: str, size_gb: float, **kwargs) -> None:
        cells[name] = select(size_gb * GB, **kwargs)

    # Pinned worker counts: the whole cross product.
    for size_gb, workers, modes, value, skew, subset in itertools.product(
        (0.5, 3.5, 40.0), (8, 64), (("staged",), BOTH_MODES), (0.0, 1.0, 50.0),
        (1.0, 2.9), SUBSETS,
    ):
        add(
            f"pinned|{size_gb}GB|W{workers}|{'+'.join(modes)}|tv{value}"
            f"|skew{skew}|{subset}",
            size_gb, workers=workers, modes=modes,
            time_value_usd_per_hour=value, partition_skew=skew, substrates=subset,
        )
    # Unpinned: each substrate plans its own count from a 1..256 curve.
    for size_gb, modes, value, skew in itertools.product(
        (3.5, 40.0), (("staged",), BOTH_MODES), (0.0, 1.0, 50.0), (1.0, 2.9)
    ):
        add(
            f"planned|{size_gb}GB|{'+'.join(modes)}|tv{value}|skew{skew}",
            size_gb, modes=modes, time_value_usd_per_hour=value,
            partition_skew=skew,
        )
    for size_gb, subset in itertools.product((3.5, 40.0), SUBSETS[1:]):
        add(
            f"planned|{size_gb}GB|staged+streaming|tv1.0|skew1.0|{subset}",
            size_gb, modes=BOTH_MODES, substrates=subset,
        )
    # The other knobs, one at a time.
    add("planned|max_workers64", 3.5, max_workers=64, modes=BOTH_MODES)
    add("pinned|chunked_input", 3.5, workers=16, modes=BOTH_MODES,
        stream_chunked_input=True, time_value_usd_per_hour=20.0)
    add("pinned|chunk8MB", 3.5, workers=16, modes=BOTH_MODES,
        stream_chunk_bytes=8.0 * MB, time_value_usd_per_hour=20.0)
    add("pinned|max_relay_shards3", 40.0, workers=128, max_relay_shards=3,
        time_value_usd_per_hour=50.0)
    add("pinned|cache.r5.4xlarge", 40.0, workers=64,
        cache_node_type="cache.r5.4xlarge", time_value_usd_per_hour=50.0)
    add("pinned|calibrated-workload", 3.5, workers=32, modes=BOTH_MODES,
        workload=WORKLOAD, time_value_usd_per_hour=10.0)
    add("planned|calibrated-workload", 3.5, modes=BOTH_MODES, workload=WORKLOAD)
    add("pinned|no-rebalance|skew2.9", 40.0, workers=64, rebalance=False,
        partition_skew=2.9, time_value_usd_per_hour=50.0)
    # A pinned flavour that holds the data, one too small for a single
    # relay (the fleet shards it), and one too small for any fleet.
    add("pinned|instance bx2-16x64", 3.5, workers=64,
        relay_instance_type="bx2-16x64", time_value_usd_per_hour=50.0)
    add("pinned|instance bx2-2x8 too small", 14.0, workers=64,
        relay_instance_type="bx2-2x8", time_value_usd_per_hour=50.0)
    add("pinned|instance bx2-2x8 no fleet", 400.0, workers=64,
        relay_instance_type="bx2-2x8")
    add("pinned|no single flavour", 400.0, workers=64)
    # No substrate holds it: the raised message.
    add("raises|no fleet holds 10 TB", 10_000.0, workers=64,
        substrates=("relay", "sharded-relay"))
    # Plan-on-what-you-measured: a probe refit, then a mid-stream refit.
    report = ProbeReport(
        read_latency_s=0.071, write_latency_s=0.093,
        connection_bandwidth_bps=31.5 * MB, startup_s=1.9,
        duration_s=4.0, requests=14,
    )
    add("probe|pinned", 3.5, workers=32, report=report, modes=BOTH_MODES,
        time_value_usd_per_hour=10.0)
    add("probe|planned", 3.5, report=report, modes=BOTH_MODES)
    add("midstream|pinned", 3.5, profile=fit_stream_profiles(PROFILE, SAMPLES),
        workers=32, modes=BOTH_MODES, time_value_usd_per_hour=10.0)
    return cells


#: One observed publish-rate sample per substrate (each slower than its
#: calibrated prior, so every refit moves its knobs).
SAMPLES = (
    StreamRateSample("objectstore", 512.0 * MB, 22.0, 16, backpressure_waits=1),
    StreamRateSample("cache", 512.0 * MB, 10.0, 16),
    StreamRateSample("relay", 512.0 * MB, 9.5, 16, instance_type="bx2-2x8"),
    StreamRateSample("sharded-relay", 256.0 * MB, 7.25, 8, instance_type="no-such"),
)


def render_knobs(profile) -> dict:
    return {
        "objectstore.write": repr(profile.objectstore.write_latency.mean),
        "objectstore.read": repr(profile.objectstore.read_latency.mean),
        "memstore.write": repr(profile.memstore.write_latency.mean),
        "memstore.read": repr(profile.memstore.read_latency.mean),
        "vm.relay_request": repr(profile.vm.relay_request_latency.mean),
    }


def refit_cells() -> dict:
    cells = {"prior": render_knobs(PROFILE)}
    for sample in SAMPLES:
        cells[f"one|{sample.substrate}"] = render_knobs(
            fit_stream_profiles(PROFILE, [sample])
        )
    cells["all"] = render_knobs(fit_stream_profiles(PROFILE, SAMPLES))
    # Faster than the prior: no knob is ever revised downward.
    cells["fast"] = render_knobs(
        fit_stream_profiles(
            PROFILE, [StreamRateSample("relay", 512.0 * MB, 0.001, 16)]
        )
    )
    cells["empty-sample-skipped"] = render_knobs(
        fit_stream_profiles(PROFILE, [StreamRateSample("cache", 0.0, 5.0, 0)])
    )
    try:
        fit_stream_profiles(PROFILE, [StreamRateSample("tape", 1.0, 1.0, 1)])
    except ShuffleError as exc:
        cells["unknown"] = {"raises": str(exc)}
    cells["chunk_overhead"] = {
        substrate: repr(chunk_overhead_s(substrate))
        for substrate in ("objectstore", "cache", "relay", "sharded-relay")
    }
    try:
        chunk_overhead_s("tape")
    except ShuffleError as exc:
        cells["chunk_overhead"]["tape"] = {"raises": str(exc)}
    return cells


def compute() -> dict:
    decisions = selector_cells()
    return {
        "predict": {
            config_name(*config): digest(predict_cell(*config))
            for config in predictor_configs()
        },
        "predict_explicit": {
            config_name(*config): explicit_cell(*config) for config in EXPLICIT
        },
        "plans": plan_cells(),
        "select": {
            name: {
                "chosen": cell.get("chosen", cell.get("raises")),
                "digest": digest(cell),
            }
            for name, cell in decisions.items()
        },
        "select_explicit": {
            name: cell
            for name, cell in decisions.items()
            if name.startswith(("planned|3.5GB|staged+streaming|tv1.0|skew",
                                "pinned|instance", "pinned|no single",
                                "raises|", "probe|", "midstream|"))
        },
        "refit": refit_cells(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    # Through JSON so tuples compare as the lists the file holds.
    return json.loads(json.dumps(compute()))


@pytest.mark.parametrize(
    "section",
    ["predict", "predict_explicit", "plans", "select", "select_explicit", "refit"],
)
def test_section_matches_the_golden(section, golden, computed):
    assert sorted(computed[section]) == sorted(golden[section])
    moved = [
        name for name in golden[section]
        if computed[section][name] != golden[section][name]
    ]
    first = moved[0] if moved else None
    assert not moved, (
        f"{len(moved)} {section} cell(s) moved, first {first!r}: "
        f"{computed[section][first]!r} != {golden[section][first]!r}"
    )


def test_rendering_pins_breakdown_key_order():
    """Key order is summation order: the same entries reordered are a
    different cell, so a refactor that shuffles the dict fails above."""
    point = staged_point("objectstore", 3.5 * GB, 8, "", 1, 4, 1.0)
    keys = list(point.breakdown)
    keys[0], keys[1] = keys[1], keys[0]
    reordered = PlanPoint(
        point.workers, point.total_s, {key: point.breakdown[key] for key in keys}
    )
    assert reordered.breakdown == point.breakdown
    assert render_point(reordered) != render_point(point)
    assert digest(render_point(reordered)) != digest(render_point(point))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
