"""What each experiment shows: its claims, as named predicates over its rows.

A :class:`Claim` is one statement of the paper (or of an extension
sweep) checked against the rows of one ``EXPERIMENTS`` row and, where a
precondition needs the profile, the config the rows ran on.  Its
verdict is ``None`` when it holds, else a message naming what broke.  A
claim that holds only on part of the domain says so (``scale``) and
carries the finding that narrowed it; nothing here is loosened to pass.

The tuples below are the ``claims`` of their rows in
:data:`repro.experiments.EXPERIMENTS`.  ``make bench`` checks every
claim at scale 1024, where the committed tables are; tier-1 checks the
ones whose domain includes scale 16384 on the cells the CLI test runs.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.core.calibration import ExperimentConfig

Rows = t.List[dict]
Check = t.Callable[[Rows, ExperimentConfig], None]


class ClaimFailed(Exception):
    """Raised by :func:`expect` inside a check; the claim's verdict."""


def expect(holds: bool, message: str) -> None:
    if not holds:
        raise ClaimFailed(message)


@dataclasses.dataclass(frozen=True)
class Claim:
    """One named predicate over an experiment's rows."""

    name: str
    #: ``check(rows, config)``: calls :func:`expect` for each condition.
    check: Check
    #: The only ``logical_scale`` the claim is made at (``None``: any).
    scale: float | None = None
    #: What was measured outside that domain.
    finding: str = ""

    def holds_at(self, scale: float) -> bool:
        return self.scale is None or self.scale == scale

    def verdict(self, rows: Rows, config: ExperimentConfig) -> str | None:
        try:
            self.check(rows, config)
        except ClaimFailed as failure:
            return str(failure)
        return None


def _close(value: float, expected: float, rel: float = 1e-6, abs_: float = 1e-12) -> bool:
    """``value == pytest.approx(expected, rel=rel, abs=abs_)``."""
    return abs(value - expected) <= max(rel * abs(expected), abs_)


def _by(rows: Rows, *keys: str) -> dict:
    """Rows by the value of one key, or by the tuple of several."""
    if len(keys) == 1:
        return {row[keys[0]]: row for row in rows}
    return {tuple(row[key] for key in keys): row for row in rows}


def _column(rows: Rows, key: str, value: str) -> dict:
    """``{row[key]: row[value]}``."""
    return {row[key]: row[value] for row in rows}


def _one_digest(rows: Rows, where: str = "") -> None:
    digests = {row["output_digest"] for row in rows}
    expect(len(digests) == 1, f"{len(digests)} distinct output digests{where}")


def _zero_residual(rows: Rows) -> None:
    """No run left a byte reserved on a relay once it settled."""
    for row in rows:
        expect(row["residual_bytes"] == 0.0, f"{row['strategy']} left bytes reserved")


# S1: "object storage performs well when the appropriate number of
# functions is used" — a U-shaped curve with an interior optimum.
def _u_shape(rows: Rows, config: ExperimentConfig) -> None:
    latency = _column(rows, "workers", "sort_latency_s")
    fewest, most = min(latency), max(latency)
    best = min(latency, key=latency.get)
    expect(latency[fewest] > 1.5 * latency[best], f"W={fewest} within 1.5x of best W={best}")
    expect(latency[most] > latency[best], f"W={most} is the best point")
    expect(fewest < best <= most, f"best W={best} is not interior")
    # The planner's pick, run at its nearest measured neighbour.
    planned = rows[0]["planner_optimum"]
    nearest = min(latency, key=lambda workers: abs(workers - planned))
    expect(latency[nearest] <= latency[best] * 1.4, f"planner's W={planned} over 1.4x the best")


def _planner_within_2x(rows: Rows, config: ExperimentConfig) -> None:
    for row in rows:
        ratio = row["sort_latency_s"] / row["planner_predicted_s"]
        expect(0.5 < ratio < 2.0, f"at W={row['workers']}: measured/predicted {ratio:.2f}")


WORKERS = (
    Claim("interior_optimum_and_planner_within_40pct_of_it", _u_shape),
    Claim("planner_prediction_within_2x", _planner_within_2x, scale=1024.0,
          finding="at 16384 measured/predicted is 2.07 at W=16"),
)


# S2: the VM-supported pipeline pays a ~constant boot, so the serverless
# lead narrows (in relative terms) as the input grows.
def _serverless_wins(rows: Rows, config: ExperimentConfig) -> None:
    for row in rows:
        expect(row["speedup"] > 1.0, f"at {row['size_gb']} GB speedup {row['speedup']:.3f}")


def _gap_narrows(rows: Rows, config: ExperimentConfig) -> None:
    expect(rows[0]["speedup"] > rows[-1]["speedup"], "the speedup grows with size")
    for key in ("serverless_latency_s", "vm_latency_s"):
        latencies = [row[key] for row in rows]
        expect(latencies == sorted(latencies), f"{key} not monotone in size")


SIZE = (
    Claim("serverless_wins_at_every_size", _serverless_wins, scale=1024.0,
          finding="at 16384 the VM-supported pipeline wins at 7 GB: speedup 0.904"),
    Claim("gap_narrows_and_latency_grows_with_size", _gap_narrows),
)


# S3: "the limited throughput of object storage services" hits the
# naive W² all-to-all (no write-combining), and only below a few
# thousand ops/s.
def _starved_store_hurts(rows: Rows, config: ExperimentConfig) -> None:
    latency = _column(rows, "ops_per_second", "sort_latency_s")
    expect(latency[100] > 1.3 * latency[8000],
           f"100 ops/s {latency[100]:.2f}s vs 8000 ops/s {latency[8000]:.2f}s")


def _insensitive_past_3000(rows: Rows, config: ExperimentConfig) -> None:
    latency = _column(rows, "ops_per_second", "sort_latency_s")
    expect(latency[3000] < 1.15 * latency[8000], "3000 ops/s over 1.15x 8000 ops/s")
    ordered = [latency[ops] for ops in sorted(latency)]
    expect(all(a >= b * 0.9 for a, b in zip(ordered, ordered[1:])),
           "latency rises by over 10% with the ceiling")
    expect(rows[0]["requests"] > 32 * 32, f"only {rows[0]['requests']} requests")


STORAGE = (
    Claim("starved_store_hurts", _starved_store_hurts, scale=1024.0,
          finding="at 16384 100 ops/s runs 75.54 s against 1.3 x 74.88 s"),
    Claim("insensitive_past_3000_ops", _insensitive_past_3000),
)


# S4: cold starts are a nuisance; VM provisioning is the hybrid
# pipeline's defining penalty, and without it the hybrid would win.
def _startup(rows: Rows, config: ExperimentConfig) -> None:
    cold, boot = ({row["value"]: row["latency_s"] for row in rows if row["knob"] == knob}
                  for knob in ("cold_start_x", "vm_boot_s"))
    expect(cold[4.0] - cold[0.5] < 10.0, "4x cold starts cost 10 s or more")
    expect(_close(boot[180.0] - boot[30.0], 150.0, rel=0.15),
           f"150 s more boot adds {boot[180.0] - boot[30.0]:.2f}s")
    expect(boot[30.0] < cold[1.0], "a 30 s boot does not beat the serverless pipeline")
    expect(boot[99.0] > cold[1.0], "a 99 s boot does not lose to the serverless pipeline")


STARTUP = (Claim("boot_not_cold_start_decides", _startup),)


# S5: "about 10x better compression ratio than gzip" — several-fold
# here: synthetic data has a higher entropy floor than ENCODE's.
def _codec(rows: Rows, config: ExperimentConfig) -> None:
    for row in rows:
        expect(row["methcomp_vs_gzip"] > 4.0, f"{row['methcomp_vs_gzip']:.2f}x gzip")
        expect(row["methcomp_ratio"] > 15.0, f"{row['methcomp_ratio']:.2f}x raw")


CODEC = (Claim("methcomp_over_4x_gzip_and_15x_raw", _codec),)


# S6: memory buys CPU share up to 2048 MB, then only bills.
def _memory(rows: Rows, config: ExperimentConfig) -> None:
    latency, cost = _column(rows, "memory_mb", "latency_s"), _column(rows, "memory_mb", "cost_usd")
    expect(latency[512] > 1.5 * latency[2048], "512 MB within 1.5x of 2048 MB")
    expect(_close(latency[4096], latency[2048], rel=0.1), "4096 MB not within 10% of 2048 MB")
    expect(cost[4096] > 1.5 * cost[2048], "4096 MB costs under 1.5x 2048 MB")


MEMORY = (Claim("memory_buys_cpu_to_full_share_then_bills", _memory),)


# S7: write-combining (why Primula exists): W map-output PUTs instead
# of W², and a clear win at wide fan-out.
def _write_combining(rows: Rows, config: ExperimentConfig) -> None:
    by_key = _by(rows, "workers", "write_combining")
    for workers in sorted({row["workers"] for row in rows}):
        naive, combined = by_key[(workers, False)], by_key[(workers, True)]
        expect(naive["storage_puts"] > combined["storage_puts"] + workers * (workers - 2),
               f"at W={workers} naive PUTs {naive['storage_puts']}")
        expect(naive["sort_latency_s"] >= combined["sort_latency_s"] * 0.98,
               f"at W={workers} the naive layout is faster")
    naive, combined = by_key[(64, False)], by_key[(64, True)]
    expect(naive["sort_latency_s"] > combined["sort_latency_s"] * 1.1, "no clear win at W=64")


IO = (Claim("combining_cuts_puts_and_wins_wide", _write_combining),)


# S8: object storage vs the provisioned substrates (cache, relay,
# relay fleet): at high W the provisioned ones win, at their price.
PROVISIONED = ("cache", "relay", "sharded-relay")


def _provisioned_win_wide(rows: Rows, config: ExperimentConfig) -> None:
    latency = {(row["strategy"], row["workers"]): row["sort_latency_s"] for row in rows}
    counts = sorted({row["workers"] for row in rows})
    top = counts[-1]

    def degradation(strategy: str) -> float:
        return latency[(strategy, top)] / min(latency[(strategy, w)] for w in counts)

    for strategy in PROVISIONED:
        expect(latency[(strategy, top)] < latency[("objectstore", top)],
               f"{strategy} loses at W={top}")
        expect(degradation(strategy) < degradation("objectstore"),
               f"{strategy} degrades {degradation(strategy):.2f}x from its best")
    # At 3.5 GB the exchange is worker-NIC-bound; S8b has the strict win.
    expect(latency[("sharded-relay", top)] <= latency[("relay", top)] * 1.02,
           "the fleet trails the single relay")


def _parity_per_worker_count(rows: Rows, config: ExperimentConfig) -> None:
    for workers in sorted({row["workers"] for row in rows}):
        _one_digest([row for row in rows if row["workers"] == workers], f" at W={workers}")


def _exchange_pairs(rows: Rows) -> t.Iterator[tuple[int, dict, dict]]:
    """(workers, object-storage row, provisioned row) for every pair."""
    by_key = _by(rows, "strategy", "workers")
    for workers in sorted({row["workers"] for row in rows}):
        for strategy in PROVISIONED:
            yield workers, by_key[("objectstore", workers)], by_key[(strategy, workers)]


def _infrastructure_priced(rows: Rows, config: ExperimentConfig) -> None:
    for workers, cos, row in _exchange_pairs(rows):
        where = f"{row['strategy']} at W={workers}"
        expect(cos["provisioned_usd"] == 0.0, f"objectstore at W={workers} prices infrastructure")
        expect(row["sort_cost_usd"] > 0 and row["provisioned_usd"] > 0.0, f"{where} is free")
        expect(row["storage_requests"] < cos["storage_requests"], f"{where}: as many requests")


def _provisioned_sorts_cost_more(rows: Rows, config: ExperimentConfig) -> None:
    for workers, cos, row in _exchange_pairs(rows):
        expect(row["sort_cost_usd"] > cos["sort_cost_usd"],
               f"{row['strategy']} at W={workers} ${row['sort_cost_usd']:.5f} "
               f"vs objectstore ${cos['sort_cost_usd']:.5f}")


EXCHANGE = (
    Claim("provisioned_win_at_top_w_and_degrade_slower", _provisioned_win_wide),
    Claim("byte_parity_at_every_w", _parity_per_worker_count),
    Claim("provisioned_price_infrastructure_not_requests", _infrastructure_priced),
    Claim("provisioned_sorts_cost_more", _provisioned_sorts_cost_more, scale=1024.0,
          finding="at 16384 the cache sort at W=64 costs $0.06484, objectstore's $0.06745"),
)


# S8b: once the single relay's NIC is saturated, shards lift the
# ceiling at byte parity, for N instances' dollars.
def _relay_nic_saturated(rows: Rows, config: ExperimentConfig) -> None:
    profile = config.make_profile()
    relay_nic = profile.vm.catalog[config.resolved_relay_instance_type].nic_bandwidth
    demand = rows[0]["workers"] * min(profile.faas.instance_bandwidth, relay_nic)
    expect(demand > relay_nic, "the single relay NIC is not saturated: raise the workers")


def _shards_win(rows: Rows, config: ExperimentConfig) -> None:
    shards = _by([row for row in rows if row["strategy"] == "sharded-relay"], "shards")
    latency = {count: row["sort_latency_s"] for count, row in shards.items()}
    expect(latency[2] < latency[1], f"2 shards {latency[2]:.2f}s vs 1 {latency[1]:.2f}s")
    # Two shards already clear the NIC bound: four only track two.
    expect(latency[4] <= latency[2] * 1.01, f"4 shards {latency[4]:.2f}s vs 2 {latency[2]:.2f}s")
    _one_digest(rows)
    expect(shards[1]["provisioned_usd"] < shards[2]["provisioned_usd"]
           < shards[4]["provisioned_usd"], "dollars do not grow with the shards")
    _zero_residual(rows)


RELAY_SHARDS = (
    Claim("single_relay_nic_saturated", _relay_nic_saturated),
    Claim("shards_strictly_win_at_parity_and_cost", _shards_win),
)


# S9: crash retry and speculation trade invocations for reliability,
# and (S9c/S9d) stay safe on every exchange substrate.
def _crashes(rows: Rows, config: ExperimentConfig) -> None:
    by_rate = _by(rows, "crash_probability")
    baseline, worst = by_rate[0.0], by_rate[max(by_rate)]
    expect(worst["latency_s"] > baseline["latency_s"], "crashes cost no time")
    expect(worst["cost_usd"] > baseline["cost_usd"], "crashes cost no dollars")
    expect(worst["crashes"] > 0 and baseline["crashes"] == 0, "crashes at the wrong rates")
    expect(worst["invocations"] == 32 + worst["crashes"], "not one replacement per crash")


def _speculation(rows: Rows, config: ExperimentConfig) -> None:
    on, off = (_by(rows, "speculation")[label] for label in ("on", "off"))
    expect(on["backup_tasks"] > 0, "no backup fired")
    expect(on["latency_s"] <= off["latency_s"] * 1.01, "speculation slowed the job")
    expect(on["invocations"] > off["invocations"], "backups took no invocations")


def _exchange_faults(rows: Rows, config: ExperimentConfig) -> None:
    top = max(row["crash_probability"] for row in rows)
    for row in rows:
        if row["crash_probability"] == top:
            expect(row["crashes"] > 0 and row["invocations"] > 40,
                   f"{row['strategy']} retried nothing")
    _one_digest(rows)
    _zero_residual(rows)


def _exchange_speculation(rows: Rows, config: ExperimentConfig) -> None:
    by_key = _by(rows, "strategy", "speculation")
    for strategy in ("objectstore", *PROVISIONED):
        on, off = by_key[(strategy, "on")], by_key[(strategy, "off")]
        expect(on["backup_tasks"] > 0 and on["cancelled_attempts"] > 0,
               f"{strategy}: no loser cancelled")
        expect(on["invocations"] > off["invocations"], f"{strategy}: backups took no invocations")
        # A loser is billed only up to its kill.
        expect(on["cancelled_gb_s"] < on["backup_tasks"] * 60.0,
               f"{strategy}: {on['cancelled_gb_s']:.1f} GB-s wasted")


FAULTS = (Claim("crashes_cost_one_replacement_each", _crashes),)
SPECULATION = (Claim("backups_fire_never_slow_and_bill", _speculation),)
EXCHANGE_FAULTS = (Claim("crash_retry_safe_on_every_substrate", _exchange_faults),)
EXCHANGE_SPECULATION = (
    Claim("losers_cancelled_and_billed_to_the_kill", _exchange_speculation),
)


# S10: streaming removes the wave barrier at byte parity; bounded
# buffers push back; the readiness protocol costs requests.
#: ``sweep_streaming``'s chunk size: its title names it, its rows do not.
STREAMING_CHUNK_MB = 32.0


def _streaming(rows: Rows, config: ExperimentConfig) -> None:
    _one_digest(rows)
    by_key = _by(rows, "strategy", "mode")
    expect(by_key[("relay", "streaming")]["sort_latency_s"]
           < by_key[("relay", "staged")]["sort_latency_s"], "relay streaming loses to staged")
    workers = rows[0]["workers"]
    for strategy in sorted({row["strategy"] for row in rows}):
        staged, streaming, bounded = (
            by_key[(strategy, mode)] for mode in ("staged", "streaming", "streaming-bounded")
        )
        expect(streaming["overlap_s"] > 0.0, f"{strategy}: the waves did not overlap")
        expect(staged["overlap_s"] == 0.0, f"{strategy}: the staged waves overlapped")
        expect(streaming["backpressure_waits"] == 0, f"{strategy}: ample buffers pushed back")
        expect(bounded["backpressure_waits"] > 0, f"{strategy}: bounded buffers never pushed back")
        # The gate admits the bound plus one ~chunk/W segment per mapper.
        ceiling = bounded["buffer_mb"] + workers * (STREAMING_CHUNK_MB / workers)
        expect(0.0 < bounded["buffer_hwm_mb"] <= ceiling,
               f"{strategy}: high watermark {bounded['buffer_hwm_mb']:.2f} MB")
    _zero_residual(rows)


def _streaming_pays_requests(rows: Rows, config: ExperimentConfig) -> None:
    by_key = _by(rows, "strategy", "mode")
    expect(by_key[("objectstore", "streaming")]["sort_cost_usd"]
           > by_key[("objectstore", "staged")]["sort_cost_usd"],
           "streaming on object storage cost no more than staged")


STREAMING = (
    Claim("streaming_overlaps_at_parity_and_pushes_back", _streaming),
    Claim("streaming_pays_requests_on_objectstore", _streaming_pays_requests),
)


# S10a: when the region drifts from its calibration, the probing tuner
# stays near the oracle and the static plan does not.
def _tuner_beats_stale_plan(rows: Rows, config: ExperimentConfig) -> None:
    for row in rows:
        expect(row["tuned_regret"] < 1.3, f"{row['scenario']}: regret {row['tuned_regret']:.3f}")
    slow_nic = _by(rows, "scenario")["slow-nic"]
    expect(slow_nic["static_regret"] > 1.3, f"slow-nic static {slow_nic['static_regret']:.3f}")
    expect(slow_nic["tuned_regret"] < slow_nic["static_regret"], "the tuner loses on slow-nic")


def _tuner(rows: Rows, config: ExperimentConfig) -> None:
    regret = _by(rows, "scenario")["calibrated"]["static_regret"]
    expect(regret < 1.1, f"calibrated static regret {regret:.3f}")
    for row in rows:
        expect(row["probe_s"] < 0.25 * row["oracle_latency_s"], f"{row['scenario']}: probe")


TUNER = (
    Claim("tuner_near_oracle_where_static_plan_is_not", _tuner_beats_stale_plan, scale=1024.0,
          finding="at 16384 the tuner picks W=64 on calibrated, the oracle W=32 (regret 1.592),"
                  " and on slow-nic the static plan is the oracle's (regret 1.000)"),
    Claim("static_right_when_calibrated_and_probe_cheap", _tuner),
)


# S11: on Zipf keys naive CRC routing parks the hot bytes on one shard;
# load-aware routing spreads them and wins, at byte parity.
def _skew(rows: Rows, config: ExperimentConfig) -> None:
    by_key = _by(rows, "distribution", "routing")
    fair = 1.0 / max(row["shards"] for row in rows)
    for distribution in ("uniform", "zipf"):
        base = by_key[(distribution, "-")]
        for routing in ("crc", "rebalanced"):
            row, where = by_key[(distribution, routing)], f"{distribution}/{routing}"
            expect(row["output_digest"] == base["output_digest"], f"{where}: bytes differ")
            expect(_close(row["partition_skew"], base["partition_skew"]), f"{where}: skew")
        share = by_key[(distribution, "rebalanced")]["hot_shard_share"]
        expect(_close(share, fair, rel=0.0, abs_=0.05), f"{distribution}: rebalanced share")
    _zero_residual(rows)
    zipf_crc, zipf_reb = by_key[("zipf", "crc")], by_key[("zipf", "rebalanced")]
    uniform_crc, uniform_reb = by_key[("uniform", "crc")], by_key[("uniform", "rebalanced")]
    expect(by_key[("zipf", "-")]["partition_skew"] > 4.0, "zipf is not skewed")
    expect(by_key[("uniform", "-")]["partition_skew"] < 1.5, "uniform is skewed")
    expect(_close(zipf_crc["predicted_skew"], zipf_crc["partition_skew"], rel=0.25),
           "sampling misjudged the skew")
    expect(zipf_crc["hot_shard_share"] > zipf_reb["hot_shard_share"] + 0.08,
           "crc and rebalanced spread zipf alike")
    expect(zipf_crc["hot_shard_share"] > 0.6, "crc leaves no hot zipf shard")
    expect(zipf_reb["sort_latency_s"] < zipf_crc["sort_latency_s"], "rebalanced loses on zipf")
    expect(_close(uniform_reb["sort_latency_s"], uniform_crc["sort_latency_s"], rel=0.05),
           "the routings differ on uniform keys")
    expect(_close(uniform_crc["hot_shard_share"], fair, rel=0.0, abs_=0.05),
           "crc is unfair on uniform keys")


def _skew_prediction_within_2x(rows: Rows, config: ExperimentConfig) -> None:
    for row in rows:
        if row["strategy"] == "sharded-relay":
            where = f"{row['distribution']}/{row['routing']}"
            expect(not math.isnan(row["predicted_s"]), f"{where}: no prediction")
            ratio = row["sort_latency_s"] / row["predicted_s"]
            expect(0.5 < ratio < 2.0, f"{where}: measured/predicted {ratio:.2f}")


SKEW = (
    Claim("rebalancing_beats_a_hot_crc_shard", _skew),
    Claim("skew_prediction_within_2x", _skew_prediction_within_2x),
)


# S12: under a brownout that clears mid-run, online re-selection beats
# every pre-flight (substrate x mode) decision, at byte parity.
def _online(rows: Rows) -> tuple[dict, list[dict]]:
    online = [row for row in rows if row["strategy"] == "online"]
    shift = next(row for row in online if row["scenario"] == "shift")
    return shift, [row for row in rows if row["strategy"] != "online"]


def _online_beats_statics(rows: Rows, config: ExperimentConfig) -> None:
    online, statics = _online(rows)
    for static in statics:
        expect(online["score_usd"] < static["score_usd"],
               f"online ${online['score_usd']:.4f} vs {static['strategy']}/{static['mode']} "
               f"${static['score_usd']:.4f}")


def _online_switches(rows: Rows, config: ExperimentConfig) -> None:
    online, statics = _online(rows)
    expect(len(statics) == 8, f"{len(statics)} static decisions, not 4 substrates x 2 modes")
    expect(online["switches"] >= 1, "no mid-stream switch")
    _one_digest(rows)
    # The timeline: the initial decision, then one line per wave boundary.
    lines = rows[0]["_timeline"]
    expect(len(lines) >= 3, f"{len(lines)} decision points")
    expect("[initial]" in lines[0], "no initial decision")
    expect(any("SWITCH" in line for line in lines), "no SWITCH in the timeline")


def _reroute(rows: Rows, config: ExperimentConfig) -> None:
    reroute = _by(rows, "scenario")["reroute"]
    expect(reroute["reroutes"] >= 1, "no chunk rerouted")
    expect(0.0 < reroute["peak_fill"] <= 1.0, f"peak fill {reroute['peak_fill']:.3f}")
    expect(reroute["output_digest"] == rows[0]["output_digest"], "reroute bytes differ")


ONLINE = (
    Claim("online_beats_every_static", _online_beats_statics, scale=1024.0,
          finding="at 16384 online scores $0.0553 against objectstore/streaming's $0.0401"),
    Claim("online_switches_mid_stream_at_parity", _online_switches),
    Claim("reroute_absorbs_late_hot_key", _reroute),
)


# S13: one shared autoscaled service beats a fleet per job on dollars at
# no worse p95, at byte parity, starving no tenant.
def _kind(rows: Rows, strategy: str, kind: str) -> list[dict]:
    return [row for row in rows if row["strategy"] == strategy and row["kind"] == kind]


def _service_cheaper(rows: Rows, config: ExperimentConfig) -> None:
    service, perjob = _kind(rows, "service", "total")[0], _kind(rows, "per-job", "total")[0]
    for key in ("total_usd", "fleet_usd"):
        expect(service[key] < perjob[key], f"{key}: ${service[key]:.5f} vs ${perjob[key]:.5f}")
    expect(service["p95_latency_s"] <= perjob["p95_latency_s"],
           f"p95 {service['p95_latency_s']:.2f}s vs {perjob['p95_latency_s']:.2f}s")
    expect(service["scale_ups"] >= 1 and service["scale_downs"] >= 1, "no resize both ways")


def _every_job_served(rows: Rows, config: ExperimentConfig) -> None:
    jobs = _kind(rows, "service", "job")
    expect(len(jobs) == 5, f"{len(jobs)} jobs ran")
    for row in jobs:
        expect(row["wait_s"] < 120.0, f"{row['job']} waited {row['wait_s']:.1f}s")
    shared = _column(jobs, "job", "output_digest")
    own = _column(_kind(rows, "per-job", "job"), "job", "output_digest")
    expect(shared == own, "a shared job's bytes differ from its own fleet's")
    expect(len(set(shared.values())) == len(shared), "distinct inputs share an output")


def _tenant_dollars_sum(rows: Rows, config: ExperimentConfig) -> None:
    tenants, total = _kind(rows, "service", "tenant"), _kind(rows, "service", "total")[0]
    expect({row["tenant"] for row in tenants} == {"alice", "bob", "carol"}, "other tenants")
    for key in ("faas_usd", "fleet_usd", "total_usd"):
        expect(_close(sum(row[key] for row in tenants), total[key]), f"tenants' {key}")


SERVICE = (
    Claim("service_cheaper_at_no_worse_p95_and_scales", _service_cheaper),
    Claim("every_job_unstarved_and_byte_identical", _every_job_served),
    Claim("tenant_dollars_sum_to_total", _tenant_dollars_sum),
)
