"""Tests for the online (probe-based) shuffle tuner and the adaptive
exchange-substrate selector."""

import pytest

import types

from repro.cloud import Cloud, MB
from repro.cloud.profiles import GB, LatencyModel, ibm_us_east
from repro.errors import ShuffleError
from repro.executor import FunctionExecutor
from repro.shuffle.adaptive import (
    PROBE_REQUESTS,
    SCALE_DOWN_MARGIN,
    OnlineTuner,
    ProbeReport,
    choose_exchange_substrate,
    fit_profile,
    plan_fleet_scale,
)
from repro.shuffle.exchange import ExchangeBackend
from repro.shuffle.planner import (
    ExchangeTerms,
    ShuffleCostModel,
    plan_shuffle,
    predict_shuffle_time,
)
from repro.shuffle.substrates import SUBSTRATES
from repro.shuffle.relayplanner import relay_usable_bytes, resolve_relay_instance
from repro.sim import Simulator

CANDIDATES = (4, 8, 16, 32, 64, 128)


def make_cloud(mutate=None, logical_scale=1024.0):
    profile = ibm_us_east(logical_scale=logical_scale, deterministic=True)
    if mutate is not None:
        mutate(profile)
    cloud = Cloud(Simulator(seed=3), profile)
    cloud.store.ensure_bucket("bucket")
    return cloud


def run_probe(cloud):
    executor = FunctionExecutor(cloud, bucket="bucket")
    tuner = OnlineTuner(executor)

    def driver():
        return (yield tuner.probe("bucket"))

    return tuner, cloud.sim.run_process(driver())


class TestProbe:
    def test_measures_request_latencies(self):
        cloud = make_cloud()
        _tuner, report = run_probe(cloud)
        assert report.read_latency_s == pytest.approx(
            cloud.profile.objectstore.read_latency.mean, rel=0.05
        )
        assert report.write_latency_s == pytest.approx(
            cloud.profile.objectstore.write_latency.mean, rel=0.05
        )

    def test_measures_effective_bandwidth(self):
        cloud = make_cloud()
        _tuner, report = run_probe(cloud)
        expected = min(
            cloud.profile.faas.instance_bandwidth,
            cloud.profile.objectstore.per_connection_bandwidth,
        )
        assert report.connection_bandwidth_bps == pytest.approx(expected, rel=0.1)

    def test_detects_degraded_nic(self):
        def throttle(profile):
            profile.faas.instance_bandwidth = 8 * MB

        cloud = make_cloud(mutate=throttle)
        _tuner, report = run_probe(cloud)
        assert report.connection_bandwidth_bps == pytest.approx(8 * MB, rel=0.1)

    def test_detects_inflated_latency(self):
        def slow(profile):
            profile.objectstore.read_latency.mean = 0.25

        cloud = make_cloud(mutate=slow)
        _tuner, report = run_probe(cloud)
        assert report.read_latency_s == pytest.approx(0.25, rel=0.05)

    def test_probe_counts_its_requests(self):
        cloud = make_cloud()
        _tuner, report = run_probe(cloud)
        assert report.requests == 2 * PROBE_REQUESTS + 2

    def test_probe_cleans_up_its_objects(self):
        cloud = make_cloud()
        run_probe(cloud)
        def listing():
            return (yield cloud.store.list_keys("bucket", "primula-probe"))

        assert cloud.sim.run_process(listing()) == []

    def test_probe_reports_startup(self):
        cloud = make_cloud()
        _tuner, report = run_probe(cloud)
        faas = cloud.profile.faas
        assert report.startup_s >= faas.cold_start.mean * 0.5
        assert report.duration_s > report.startup_s

    def test_describe_is_human_readable(self):
        report = ProbeReport(0.025, 0.045, 44e6, 0.9, 3.2, 14)
        text = report.describe()
        assert "25.0 ms" in text
        assert "44.0 MB/s" in text


class TestFittingAndPlanning:
    def test_fitted_profile_does_not_mutate_original(self):
        cloud = make_cloud()
        tuner, report = run_probe(cloud)
        before = cloud.profile.faas.instance_bandwidth
        fitted = tuner.fitted_profile(report)
        assert cloud.profile.faas.instance_bandwidth == before
        assert fitted is not cloud.profile

    def test_fitted_profile_carries_measurements(self):
        cloud = make_cloud()
        tuner, report = run_probe(cloud)
        fitted = tuner.fitted_profile(report)
        assert fitted.objectstore.read_latency.mean == report.read_latency_s
        assert fitted.faas.instance_bandwidth == report.connection_bandwidth_bps
        assert fitted.objectstore.read_latency.sigma == 0.0

    def test_degraded_nic_shifts_plan_to_more_workers(self):
        def throttle(profile):
            profile.faas.instance_bandwidth = 8 * MB

        cloud = make_cloud(mutate=throttle)
        tuner, report = run_probe(cloud)
        size = 3.5 * (1 << 30)
        tuned = tuner.plan(size, report, candidates=CANDIDATES)
        static = plan_shuffle(
            size, ibm_us_east(deterministic=True), candidates=CANDIDATES
        )
        # Less bandwidth per function → spread over more functions.
        assert tuned.workers > static.workers

    def test_tune_returns_report_and_plan(self):
        cloud = make_cloud()
        executor = FunctionExecutor(cloud, bucket="bucket")
        tuner = OnlineTuner(executor)

        def driver():
            return (
                yield tuner.tune("bucket", 3.5 * (1 << 30),
                                 candidates=CANDIDATES)
            )

        report, plan = cloud.sim.run_process(driver())
        assert isinstance(report, ProbeReport)
        assert plan.workers in CANDIDATES

    def test_calibrated_region_matches_static_plan(self):
        """On a healthy region the tuner must agree with the calibration
        (the probe should not invent a different world)."""
        cloud = make_cloud()
        tuner, report = run_probe(cloud)
        size = 3.5 * (1 << 30)
        tuned = tuner.plan(size, report, candidates=CANDIDATES)
        static = plan_shuffle(
            size, ibm_us_east(deterministic=True), candidates=CANDIDATES
        )
        assert tuned.workers == static.workers


class TestSubstrateSelector:
    PROFILE = ibm_us_east(deterministic=True)
    SIZE = 3.5 * GB

    def test_zero_time_value_always_picks_objectstore(self):
        """With latency worth nothing, the only rational substrate is
        the one without provisioned infrastructure."""
        for workers in (8, 64, 256):
            decision = choose_exchange_substrate(
                self.SIZE, self.PROFILE, workers=workers,
                time_value_usd_per_hour=0.0,
            )
            assert decision.substrate == "objectstore"
            assert decision.chosen.provisioned_usd == 0.0

    def test_high_worker_count_buys_provisioned_exchange(self):
        """At W=256 the COS all-to-all degrades; once latency has value,
        a provisioned substrate wins despite its infrastructure cost."""
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=256, time_value_usd_per_hour=1.0
        )
        assert decision.substrate in ("cache", "relay", "sharded-relay")
        assert decision.chosen.provisioned_usd > 0

    def test_estimates_cover_all_substrates(self):
        decision = choose_exchange_substrate(self.SIZE, self.PROFILE, workers=16)
        assert [e.substrate for e in decision.estimates] == [
            "objectstore", "cache", "relay", "sharded-relay",
        ]
        for estimate in decision.estimates:
            assert estimate.feasible
            assert estimate.predicted_s > 0

    def test_auto_workers_lets_each_substrate_plan_its_own(self):
        decision = choose_exchange_substrate(self.SIZE, self.PROFILE)
        by_name = {e.substrate: e for e in decision.estimates}
        assert all(e.workers >= 1 for e in decision.estimates)
        # Each substrate plans with its own cost model: the COS optimum
        # genuinely differs from the provisioned substrates' (their W²
        # request floor is far lower, so they tolerate more functions
        # before the right flank bites).
        assert by_name["objectstore"].workers != by_name["cache"].workers

    def test_oversized_data_marks_relay_infeasible(self):
        decision = choose_exchange_substrate(
            1000 * GB, self.PROFILE, workers=64, time_value_usd_per_hour=50.0
        )
        by_name = {e.substrate: e for e in decision.estimates}
        assert not by_name["relay"].feasible
        assert "scale-up" in by_name["relay"].detail
        assert decision.substrate in ("objectstore", "cache", "sharded-relay")

    def test_sharding_extends_relay_feasibility(self):
        """Data beyond the fattest single flavour is exactly what the
        fleet exists for: the single relay is infeasible, the sharded
        one is not."""
        decision = choose_exchange_substrate(1000 * GB, self.PROFILE, workers=64)
        by_name = {e.substrate: e for e in decision.estimates}
        assert not by_name["relay"].feasible
        assert by_name["sharded-relay"].feasible
        assert by_name["sharded-relay"].shards > 1

    def test_sharding_beats_single_relay_at_saturating_worker_counts(self):
        """Once W worker NICs outrun one instance NIC and latency is
        worth real money, the fleet's aggregate bandwidth must make its
        estimate strictly faster (at strictly higher provisioned
        cost)."""
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=256,
            relay_instance_type="bx2-8x32",
            time_value_usd_per_hour=50.0,
        )
        by_name = {e.substrate: e for e in decision.estimates}
        assert by_name["sharded-relay"].shards > 1
        assert (
            by_name["sharded-relay"].predicted_s < by_name["relay"].predicted_s
        )
        assert (
            by_name["sharded-relay"].provisioned_usd
            > by_name["relay"].provisioned_usd
        )

    def test_cheap_latency_keeps_the_fleet_at_one_shard(self):
        """The same configuration with latency worth almost nothing must
        not buy extra shards: the fleet search is monetized, not
        time-greedy."""
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=256,
            relay_instance_type="bx2-8x32",
            time_value_usd_per_hour=0.01,
        )
        by_name = {e.substrate: e for e in decision.estimates}
        assert by_name["sharded-relay"].shards == 1

    def test_pinned_relay_instance_is_used(self):
        pinned = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=64,
            relay_instance_type="bx2-48x192",
        )
        auto = choose_exchange_substrate(self.SIZE, self.PROFILE, workers=64)
        relay_pinned = [e for e in pinned.estimates if e.substrate == "relay"][0]
        relay_auto = [e for e in auto.estimates if e.substrate == "relay"][0]
        # The fat flavour's NIC makes the relay faster but costlier.
        assert relay_pinned.predicted_s < relay_auto.predicted_s
        assert relay_pinned.provisioned_usd > relay_auto.provisioned_usd

    def test_probe_report_shifts_objectstore_estimate(self):
        """A probed region with inflated COS latency must worsen the
        object-storage estimate (the selector plans on measurements)."""
        report = ProbeReport(
            read_latency_s=0.30, write_latency_s=0.50,
            connection_bandwidth_bps=44e6, startup_s=0.9,
            duration_s=3.0, requests=14,
        )
        plain = choose_exchange_substrate(self.SIZE, self.PROFILE, workers=64)
        probed = choose_exchange_substrate(
            self.SIZE, fit_profile(self.PROFILE, report), workers=64
        )
        cos_plain = [e for e in plain.estimates if e.substrate == "objectstore"][0]
        cos_probed = [e for e in probed.estimates if e.substrate == "objectstore"][0]
        assert cos_probed.predicted_s > cos_plain.predicted_s

    def test_describe_is_human_readable(self):
        decision = choose_exchange_substrate(self.SIZE, self.PROFILE, workers=32)
        text = decision.describe()
        assert "->" in text
        for substrate in ("objectstore", "cache", "relay", "sharded-relay"):
            assert substrate in text

    def test_bad_inputs_rejected(self):
        with pytest.raises(ShuffleError):
            choose_exchange_substrate(0, self.PROFILE)
        with pytest.raises(ShuffleError):
            choose_exchange_substrate(
                self.SIZE, self.PROFILE, time_value_usd_per_hour=-1.0
            )
        with pytest.raises(ShuffleError, match="unknown exchange substrate"):
            choose_exchange_substrate(
                self.SIZE, self.PROFILE, substrates=("carrier-pigeon",)
            )
        with pytest.raises(ShuffleError, match="empty candidate substrate"):
            choose_exchange_substrate(self.SIZE, self.PROFILE, substrates=())
        with pytest.raises(ShuffleError, match="max_relay_shards"):
            choose_exchange_substrate(
                self.SIZE, self.PROFILE, max_relay_shards=0
            )

    def test_substrate_filter_restricts_candidates(self):
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=16,
            substrates=("cache", "objectstore"),
        )
        assert [e.substrate for e in decision.estimates] == [
            "objectstore", "cache",
        ]

    def test_all_substrates_infeasible_raises(self):
        """When every candidate is infeasible there is nothing sane to
        return — the caller must hear about it loudly."""
        with pytest.raises(ShuffleError, match="no feasible exchange substrate"):
            choose_exchange_substrate(
                1000 * GB, self.PROFILE, workers=8,
                substrates=("relay",),
            )
        with pytest.raises(ShuffleError, match="no feasible exchange substrate"):
            choose_exchange_substrate(
                100_000 * GB, self.PROFILE, workers=8,
                substrates=("relay", "sharded-relay"),
            )

    def test_equal_scores_break_toward_simpler_substrate(self):
        """A one-shard fleet prices identically to the single relay;
        the tie must go to the earlier (simpler) substrate, never
        nondeterministically."""
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=16,
            substrates=("relay", "sharded-relay"),
            max_relay_shards=1,
        )
        by_name = {e.substrate: e for e in decision.estimates}
        assert (
            by_name["relay"].score_usd == by_name["sharded-relay"].score_usd
        )
        assert decision.substrate == "relay"

    def test_feasibility_is_monotone_in_workers(self):
        """More workers must never flip a feasible substrate to
        infeasible: feasibility is a memory question, not a parallelism
        one."""
        baseline = None
        for workers in (1, 4, 16, 64, 256):
            decision = choose_exchange_substrate(
                self.SIZE, self.PROFILE, workers=workers
            )
            feasibility = {
                e.substrate: e.feasible for e in decision.estimates
            }
            assert all(feasibility.values())
            if baseline is None:
                baseline = feasibility
            assert feasibility == baseline

    def test_pinned_undersized_relay_instance_marked_infeasible(self):
        """Pinning a real flavour that cannot hold the data must mark
        the relay infeasible (never chosen), matching what
        RelayExchange.validate would reject at run time."""
        decision = choose_exchange_substrate(
            1000 * GB, self.PROFILE, workers=64,
            relay_instance_type="bx2-2x8",
            time_value_usd_per_hour=1000.0,
        )
        by_name = {e.substrate: e for e in decision.estimates}
        assert not by_name["relay"].feasible
        assert "bx2-2x8" in by_name["relay"].detail
        assert decision.substrate in ("objectstore", "cache")

    def test_typoed_pinned_relay_instance_raises(self):
        """An explicitly pinned flavour that does not exist is a caller
        error, not relay infeasibility."""
        with pytest.raises(ShuffleError, match="unknown relay instance type"):
            choose_exchange_substrate(
                self.SIZE, self.PROFILE, workers=8,
                relay_instance_type="bx2_48x192",  # typo: _ for -
            )


class TestFifthSubstrate:
    """``SUBSTRATES`` is the extension point: a fifth substrate is one
    backend class carrying its ``terms`` and ``configurations``,
    registered once — the selector prices, orders and can choose it
    without knowing it exists."""

    PROFILE = ibm_us_east(deterministic=True)
    SIZE = 3.5 * GB
    FLAT_USD = 0.0005

    @staticmethod
    def burst_buffer_terms(profile, _cost, _flavour, _count):
        # Its own latencies (no profile section knows this substrate)
        # and a flat price whatever the duration.
        link = types.SimpleNamespace(round_trip=LatencyModel(0.002, 0.0))
        return ExchangeTerms(
            conn_bw=profile.faas.instance_bandwidth,
            aggregate_bw=40.0 * GB,
            write_latency=lambda workers: 0.002,
            fetch_latency=lambda workers: 0.004,
            write_ops_per_s=1e6,
            fetch_ops_per_s=1e6,
            readiness=((link, "round_trip"), (link, "round_trip")),
            infra_usd=lambda predicted_s: TestFifthSubstrate.FLAT_USD,
        )

    @pytest.fixture
    def burst_buffer(self, monkeypatch):
        class BurstBufferExchange(ExchangeBackend):
            name = "burst-buffer"
            terms = staticmethod(self.burst_buffer_terms)

            @staticmethod
            def configurations(*_args, **_sizing):
                return [("bb.small", 1)]

        monkeypatch.setitem(SUBSTRATES, "burst-buffer", BurstBufferExchange)
        return BurstBufferExchange

    def test_priced_in_canonical_order_in_both_modes(self, burst_buffer):
        decision = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=64, modes=("staged", "streaming"),
        )
        assert [(e.substrate, e.mode) for e in decision.estimates] == [
            (substrate, mode)
            for substrate in (
                "objectstore", "cache", "relay", "sharded-relay", "burst-buffer"
            )
            for mode in ("staged", "streaming")
        ]
        staged, streaming = decision.estimates[-2:]
        cost = ShuffleCostModel()
        expected = predict_shuffle_time(
            self.SIZE, 64, self.PROFILE, cost,
            terms=self.burst_buffer_terms(self.PROFILE, cost, None, 1),
        )
        assert staged.predicted_s == expected.total_s
        assert staged.provisioned_usd == self.FLAT_USD
        assert staged.score_usd == expected.total_s / 3600.0 + self.FLAT_USD
        assert (staged.instance_type, staged.shards) == ("bb.small", 1)
        # Streaming paid its own readiness round trips per chunk.
        assert streaming.predicted_s != staged.predicted_s
        assert "burst-buffer" in decision.describe()

    def test_can_be_chosen_planned_and_restricted_to(self, burst_buffer):
        wide = choose_exchange_substrate(
            self.SIZE, self.PROFILE, workers=256, time_value_usd_per_hour=50.0,
        )
        assert wide.substrate == "burst-buffer"
        alone = choose_exchange_substrate(
            self.SIZE, self.PROFILE, substrates=("burst-buffer",),
        )
        assert [e.substrate for e in alone.estimates] == ["burst-buffer"]
        assert alone.chosen.workers > 1  # planned its own count

    def test_reports_its_own_infeasibility(self, monkeypatch, burst_buffer):
        monkeypatch.setattr(
            burst_buffer, "configurations",
            staticmethod(lambda *_args, **_sizing: "the buffer is 1 GB"),
        )
        decision = choose_exchange_substrate(self.SIZE, self.PROFILE, workers=8)
        last = decision.estimates[-1]
        assert (last.substrate, last.feasible) == ("burst-buffer", False)
        assert last.detail == "the buffer is 1 GB"
        assert decision.substrate != "burst-buffer"


class TestFleetScale:
    PROFILE = ibm_us_east(deterministic=True)
    INSTANCE = "bx2-2x8"
    USABLE = relay_usable_bytes(PROFILE, resolve_relay_instance(PROFILE, INSTANCE))

    @pytest.mark.parametrize("multiple", [5, 8, 12])
    def test_demand_beyond_the_largest_fleet_clamps_to_max_shards(self, multiple):
        """The target is clamped, not refused: a backlog no fleet holds
        at once scales to ``max_shards`` and the queue absorbs the rest."""
        demand = multiple * self.USABLE
        up = plan_fleet_scale(
            demand, self.PROFILE, 1, self.INSTANCE, max_shards=4,
        )
        assert (up.shards, up.direction) == (4, "up")
        assert plan_fleet_scale(
            demand, self.PROFILE, 4, self.INSTANCE, max_shards=4,
        ) is None

    def test_within_the_limit_sizes_like_the_fleet_sizer(self):
        decision = plan_fleet_scale(
            2.0 * self.USABLE, self.PROFILE, 1, self.INSTANCE, max_shards=4,
        )
        assert (decision.shards, decision.direction) == (3, "up")  # x1.3 headroom

    def test_unknown_flavour_rejected(self):
        with pytest.raises(ShuffleError, match="unknown relay instance type"):
            plan_fleet_scale(1.0, self.PROFILE, 1, "bx2-1x1")

    def test_idle_fleet_shrinks_to_one_shard(self):
        decision = plan_fleet_scale(0.0, self.PROFILE, 3, self.INSTANCE)
        assert (decision.shards, decision.direction) == (1, "down")
        assert plan_fleet_scale(0.0, self.PROFILE, 1, self.INSTANCE) is None

    def test_scale_down_waits_for_the_margin(self):
        """Demand that fits two shards, but not once inflated by the
        hysteresis margin, keeps a three-shard fleet as it is."""
        demand = 1.2 * self.USABLE
        padded = demand * (1.0 + SCALE_DOWN_MARGIN)
        assert 1.3 * padded > 2 * self.USABLE  # padded needs three shards
        assert plan_fleet_scale(demand, self.PROFILE, 3, self.INSTANCE) is None
        decision = plan_fleet_scale(0.9 * self.USABLE, self.PROFILE, 3, self.INSTANCE)
        assert (decision.shards, decision.direction) == (2, "down")
        assert "+50% margin" in decision.reason

    @pytest.mark.parametrize("current, max_shards", [(0, 4), (1, 0)])
    def test_shard_bounds_rejected(self, current, max_shards):
        with pytest.raises(ShuffleError, match="must be >= 1"):
            plan_fleet_scale(
                1.0, self.PROFILE, current, self.INSTANCE, max_shards=max_shards
            )
