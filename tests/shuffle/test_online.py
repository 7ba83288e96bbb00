"""Mid-stream re-selection (OnlineTuner v2, PR 6 tentpole).

:class:`~repro.shuffle.online.OnlineShuffleSort` runs the substrate
decision *inside* the shuffle: chunked map-side input reads execute in
waves, the driver refits calibration from observed chunk rates between
waves and may switch the exchange configuration at a chunk boundary.
The properties pinned here:

* **byte parity** — the online artifact is byte-identical to every
  static substrate's, in both execution modes, at the same worker
  count: re-deciding mid-stream moves bytes differently, never changes
  them;
* **timeline determinism** — the same seed reproduces the same
  :class:`~repro.shuffle.adaptive.DecisionTimeline`, decision for
  decision, and the same artifact;
* **mid-stream switching** — a storage brownout in effect at the
  initial decision that clears once the sort is underway makes the
  control loop actually switch substrates, and the artifact still
  matches the static baseline;
* **chaos** — crash injection during the wave loop (attempts die and
  retry *across* re-selection points) preserves parity with the
  crash-free baseline and never overfills a relay stint.
"""

import random

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready
from repro.cloud.vm.relay import relay_ready
from repro.executor import FunctionExecutor
from repro.shuffle import (
    CacheExchange,
    FixedWidthCodec,
    ObjectStoreExchange,
    OnlineShuffleSort,
    RelayExchange,
    ShardedRelayExchange,
    ShuffleSort,
    SkewSpec,
    StreamConfig,
    skewed_fixed_payload,
)

CODEC = FixedWidthCodec(record_size=16, key_bytes=8)
RECORDS = 3000
WORKERS = 4
SEED = 2021

#: Several chunks per mapper so the control loop sees multiple waves.
STREAM = StreamConfig(
    chunk_bytes=4096.0, buffer_bytes=16384.0, poll_interval_s=0.05
)

#: The S12 workload shape: uniform head, hot key hiding in the tail.
LATE_HOT = SkewSpec(
    distribution="late-hot", late_hot_fraction=0.25, late_hot_share=0.8
)

STATIC_SUBSTRATES = ("objectstore", "cache", "relay", "sharded-relay")
MODES = ("staged", "streaming")


def make_payload(seed):
    return skewed_fixed_payload(RECORDS, LATE_HOT, seed=seed)


def run_sort(cloud, operator, payload, workers=WORKERS):
    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=workers))

    result = cloud.sim.run_process(driver())
    runs = [cloud.store.peek("data", run.key) for run in result.runs]
    return runs, result


def run_static(substrate, mode, payload, seed):
    """One static (substrate, mode) sort on a fresh region."""
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    executor = FunctionExecutor(cloud)
    if mode == "staged":
        if substrate == "objectstore":
            operator = ShuffleSort(executor, CODEC)
        elif substrate == "cache":
            cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
            operator = ShuffleSort(executor, CODEC, backend=CacheExchange(cluster))
        elif substrate == "relay":
            operator = ShuffleSort(
                executor, CODEC,
                backend=RelayExchange(relay_ready(cloud.vms, "bx2-8x32")),
            )
        else:
            operator = ShuffleSort(
                executor, CODEC,
                backend=ShardedRelayExchange(
                    fleet_ready(cloud.vms, "bx2-8x32", shards=2)
                ),
            )
    else:
        if substrate == "objectstore":
            backend = ObjectStoreExchange(stream=STREAM)
        elif substrate == "cache":
            cluster = cloud.cache.provision_ready("cache.r5.large", nodes=2)
            backend = CacheExchange(cluster, stream=STREAM)
        elif substrate == "relay":
            backend = RelayExchange(
                relay_ready(cloud.vms, "bx2-8x32"), stream=STREAM
            )
        else:
            backend = ShardedRelayExchange(
                fleet_ready(cloud.vms, "bx2-8x32", shards=2), stream=STREAM
            )
        operator = ShuffleSort(executor, CODEC, backend=backend)
    return run_sort(cloud, operator, payload)[0]


def run_online(payload, seed, crash_rate=0.0, retries=1, **kwargs):
    """One online sort on a fresh region; returns (runs, operator)."""
    cloud = Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("data")
    if crash_rate:
        cloud.faas.crash_probability = crash_rate
        cloud.faas.crash_latest_s = 0.1
    operator = OnlineShuffleSort(
        FunctionExecutor(cloud, retries=retries), CODEC,
        stream=STREAM, **kwargs,
    )
    runs, _result = run_sort(cloud, operator, payload)
    return runs, operator, cloud


class TestOnlineParity:
    """The online artifact is every static artifact, byte for byte."""

    def test_parity_across_all_substrates_and_modes(self):
        payload = make_payload(SEED)
        # Pin streaming mode: a staged winner batches the remaining
        # waves without control points, while streaming re-decides at
        # every wave boundary — the path parity must survive.
        online_runs, operator, _cloud = run_online(
            payload, SEED, modes=("streaming",)
        )
        assert len(operator.timeline) >= 2  # the loop really re-decided
        merged = b"".join(online_runs)
        keys = [CODEC.key(record) for record in CODEC.split(merged)]
        assert keys == sorted(keys)
        assert len(merged) == len(payload)
        for substrate in STATIC_SUBSTRATES:
            for mode in MODES:
                static_runs = run_static(substrate, mode, payload, SEED)
                assert static_runs == online_runs, (substrate, mode)


class TestTimelineDeterminism:
    def test_same_seed_reproduces_timeline_and_artifact(self):
        payload = make_payload(7)
        first_runs, first, _ = run_online(payload, 7, modes=("streaming",))
        second_runs, second, _ = run_online(payload, 7, modes=("streaming",))
        assert first.timeline.describe() == second.timeline.describe()
        assert [p.trigger for p in first.timeline] == [
            p.trigger for p in second.timeline
        ]
        assert first.timeline.switches == second.timeline.switches
        assert first.chunk_reroutes == second.chunk_reroutes
        assert first_runs == second_runs

    def test_timeline_shape(self):
        payload = make_payload(SEED)
        _runs, operator, _ = run_online(payload, SEED, modes=("streaming",))
        points = list(operator.timeline)
        assert points[0].trigger == "initial"
        assert points[0].wave == 0
        # Wave triggers arrive in wave order, one per boundary.
        waves = [p.wave for p in points if p.trigger == "wave"]
        assert waves == sorted(waves)
        assert operator.report.extra["decision_points"] == len(points)
        assert operator.report.extra["mode"] == "online"

    def test_rejects_bad_knobs(self):
        from repro.errors import ShuffleError

        cloud = Cloud.fresh(seed=1, profile=ibm_us_east(deterministic=True))
        executor = FunctionExecutor(cloud)
        with pytest.raises(ShuffleError, match="switch_margin"):
            OnlineShuffleSort(executor, CODEC, switch_margin=-0.1)


class TestMidStreamSwitch:
    """A brownout at decision time that clears mid-sort forces a switch."""

    #: Scaled region: 48 KB real payload ~ 3 GB logical, so substrate
    #: economics (provisioned relays vs pay-as-you-go storage) are real.
    SCALE = 65536.0
    #: ~6 logical chunks per mapper at W=4.
    CHUNK = 128 * (1 << 20)

    def run_brownout_online(self, seed):
        payload = make_payload(seed)
        cloud = Cloud.fresh(
            seed=seed,
            profile=ibm_us_east(deterministic=True, logical_scale=self.SCALE),
        )
        cloud.store.ensure_bucket("data")
        store = cloud.profile.objectstore
        healthy = (
            store.read_latency.mean,
            store.write_latency.mean,
            store.per_connection_bandwidth,
        )
        # Brownout in effect when the initial decision is priced.
        store.read_latency.mean = 0.45
        store.write_latency.mean = 0.45
        store.per_connection_bandwidth = 2e6
        operator = OnlineShuffleSort(
            FunctionExecutor(cloud), CODEC,
            stream=StreamConfig(
                chunk_bytes=self.CHUNK,
                buffer_bytes=4 * self.CHUNK,
                poll_interval_s=0.05,
            ),
        )

        def recovery():
            # Clear the brownout once the initial decision is recorded:
            # every wave then runs healthy, and the refit must notice.
            while len(operator.timeline) < 1:
                yield cloud.sim.timeout(0.5)
            (
                store.read_latency.mean,
                store.write_latency.mean,
                store.per_connection_bandwidth,
            ) = healthy

        def driver():
            yield cloud.store.put("data", "input.bin", payload)
            cloud.sim.process(recovery(), name="brownout-recovery")
            return (
                yield operator.sort("data", "input.bin", workers=WORKERS)
            )

        result = cloud.sim.run_process(driver())
        runs = [cloud.store.peek("data", run.key) for run in result.runs]
        return runs, operator

    def test_brownout_recovery_triggers_a_switch_at_parity(self):
        runs, operator = self.run_brownout_online(SEED)
        # The initial decision avoided the browned-out store; the refit
        # moved off the provisioned substrate once the store recovered.
        assert operator.timeline.points[0].decision.chosen.substrate != (
            "objectstore"
        )
        assert operator.timeline.switches >= 1
        switch = next(p for p in operator.timeline if p.switched)
        assert switch.trigger == "wave"
        assert switch.wave >= 1
        assert "SWITCH" in switch.describe()
        assert operator.report.extra["substrate_switches"] >= 1
        assert operator.report.extra["stints"] >= 2
        # Parity: the mid-stream switch never touches the bytes (the
        # static baseline runs on an unscaled healthy region — logical
        # scaling and the brownout shape timing, not artifacts).
        payload = make_payload(SEED)
        assert runs == run_static("objectstore", "staged", payload, SEED)


class TestOnlineChaos:
    """Crash injection across re-selection points preserves parity."""

    @pytest.mark.parametrize("crash_rate", (0.15, 0.3))
    def test_crashes_across_reselections_preserve_parity(self, crash_rate):
        payload = make_payload(SEED)
        baseline = run_static("objectstore", "staged", payload, SEED)
        runs, operator, cloud = run_online(
            payload, SEED, crash_rate=crash_rate, retries=6,
            modes=("streaming",),
        )
        assert cloud.faas.stats.crashes > 0, "no crash injected"
        # Decisions kept happening while attempts died and retried.
        assert len(operator.timeline) >= 2
        assert runs == baseline
        # No relay stint ever exceeded its usable memory, crashes and
        # retried publishes included.
        assert operator.report.extra["relay_peak_fill"] <= 1.0

    def test_crash_during_pinned_fleet_run_keeps_fill_bounded(self):
        """The skew-sized fleet invariant under chaos: pin the online
        sort to the sharded fleet so every stint is a fleet, crash
        attempts mid-wave, and the hottest shard must stay within its
        usable bytes while the artifact stays byte-identical."""
        payload = make_payload(SEED)
        baseline = run_static("objectstore", "staged", payload, SEED)
        runs, operator, cloud = run_online(
            payload, SEED, crash_rate=0.25, retries=6,
            substrates=("sharded-relay",), modes=("streaming",),
        )
        assert cloud.faas.stats.crashes > 0
        assert runs == baseline
        fill = operator.report.extra["relay_peak_fill"]
        assert 0.0 < fill <= 1.0
