"""Benchmarks S8/S8b: object storage vs cache vs VM-relay data exchange.

The paper's headline comparison is object-storage- vs VM-driven data
exchange, and it names AWS ElastiCache as the low-latency alternative.
S8 runs the shuffle over all four substrates (object storage, cache
cluster, single VM relay, sharded relay fleet) across worker counts,
plus the full four-way pipeline comparison, and asserts the predicted
shape:

* at high worker counts the provisioned substrates (cache cluster, VM
  relays) beat the object-storage sort (the W² request traffic is where
  COS hurts);
* the cache and relay rows carry extra provisioned-infrastructure cost
  (node-hours / VM instance-seconds) the COS rows never pay;
* all substrates emit byte-identical sorted artifacts — only latency
  and cost move;
* end to end, the serverless variants beat the VM pipeline.

S8b isolates the sharding claim: at a worker count where the single
relay's NIC is saturated (aggregate worker demand exceeds one
instance's line rate), a ≥2-shard fleet strictly reduces exchange time
— while still producing the byte-identical artifact — at N instances'
provisioned cost.
"""

from repro.core import ExperimentConfig, run_exchange_comparison
from repro.experiments import EXPERIMENTS


def _worker_counts(rows):
    return sorted({row["workers"] for row in rows})


def test_exchange_worker_sweep(regenerate):
    rows = regenerate("sweep-exchange")

    latency = {
        (r["strategy"], r["workers"]): r["sort_latency_s"] for r in rows
    }
    # At the largest worker count, the provisioned substrates' batched
    # sub-ms requests beat object storage's per-request latencies.
    counts = _worker_counts(rows)
    top = counts[-1]
    assert latency[("cache", top)] < latency[("objectstore", top)]
    assert latency[("relay", top)] < latency[("objectstore", top)]
    assert latency[("sharded-relay", top)] < latency[("objectstore", top)]
    # The provisioned substrates degrade more slowly from their best
    # point than the object-storage one does (flatter right flank).
    def degradation(strategy):
        curve = [latency[(strategy, w)] for w in counts]
        return latency[(strategy, top)] / min(curve)

    assert degradation("cache") < degradation("objectstore")
    assert degradation("relay") < degradation("objectstore")
    assert degradation("sharded-relay") < degradation("objectstore")
    # At 3.5 GB the exchange is worker-NIC-bound, so the fleet tracks
    # the single relay to within jitter (the strict win, at a dataset
    # that saturates one relay NIC, is S8b's assertion).
    assert latency[("sharded-relay", top)] <= latency[("relay", top)] * 1.02


def test_exchange_substrates_emit_identical_artifacts(regenerate):
    """The substrate moves the bytes; it must never change them."""
    exchange_rows = regenerate("sweep-exchange")
    for workers in _worker_counts(exchange_rows):
        digests = {
            row["output_digest"]
            for row in exchange_rows
            if row["workers"] == workers
        }
        assert len(digests) == 1, f"artifacts diverged at W={workers}"


def test_relay_shard_sweep(regenerate, bench_scale):
    """S8b: shard count lifts the single relay's NIC ceiling (the
    dataset size that takes is the table row's ``overrides``)."""
    rows = regenerate("sweep-relay-shards")

    # Precondition: the single relay NIC is genuinely saturated at this
    # worker count — aggregate worker demand exceeds one line rate.
    config = ExperimentConfig(
        logical_scale=bench_scale, **EXPERIMENTS["sweep-relay-shards"].overrides
    )
    profile = config.make_profile()
    relay_nic = profile.vm.catalog[
        config.resolved_relay_instance_type
    ].nic_bandwidth
    worker_demand = rows[0]["workers"] * min(
        profile.faas.instance_bandwidth, relay_nic
    )
    assert worker_demand > relay_nic, (
        "raise sweep_relay_shards' workers: the single relay NIC is not saturated"
    )

    by_shards = {
        row["shards"]: row for row in rows if row["strategy"] == "sharded-relay"
    }
    # Acceptance: a >=2-shard fleet strictly reduces exchange time over
    # the saturated single relay...
    assert by_shards[2]["sort_latency_s"] < by_shards[1]["sort_latency_s"]
    # ...and more shards never make it meaningfully worse (two shards
    # already clear the NIC bound here, so four only tracks two within
    # jitter)...
    assert (
        by_shards[4]["sort_latency_s"]
        <= by_shards[2]["sort_latency_s"] * 1.01
    )
    # ...with byte parity against the object-storage baseline (and every
    # other fleet size)...
    assert len({row["output_digest"] for row in rows}) == 1
    # ...paid for with N instances' provisioned dollars...
    assert by_shards[2]["provisioned_usd"] > by_shards[1]["provisioned_usd"]
    assert by_shards[4]["provisioned_usd"] > by_shards[2]["provisioned_usd"]
    # ...and zero residual reservations on every fleet after settling.
    for row in rows:
        if row["strategy"] == "sharded-relay":
            assert row["residual_bytes"] == 0.0


def test_exchange_pipeline_comparison(benchmark, record_result, bench_scale):
    config = ExperimentConfig(logical_scale=bench_scale)
    result = benchmark.pedantic(
        lambda: run_exchange_comparison(config),
        rounds=1,
        iterations=1,
    )
    record_result("s8_exchange_pipelines", result.to_table())

    # Every variant sorted and encoded the same records.
    records = {
        run.variant: run.workflow.artifacts["encode"]["records"]
        for run in result.runs()
    }
    assert len(set(records.values())) == 1
    # All serverless-compute variants beat the VM pipeline end to end.
    assert result.serverless.latency_s < result.vm.latency_s
    assert result.cache.latency_s < result.vm.latency_s
    assert result.relay.latency_s < result.vm.latency_s
    # The provisioned substrates make their sorts costlier than COS.
    assert result.cache.stage_costs["sort"] > result.serverless.stage_costs["sort"]
    assert result.relay.stage_costs["sort"] > result.serverless.stage_costs["sort"]


def test_provisioned_substrates_cost_infrastructure(regenerate):
    exchange_rows = regenerate("sweep-exchange")
    by_key = {(r["strategy"], r["workers"]): r for r in exchange_rows}
    for workers in _worker_counts(exchange_rows):
        cos_row = by_key[("objectstore", workers)]
        assert cos_row["provisioned_usd"] == 0.0
        for strategy in ("cache", "relay", "sharded-relay"):
            row = by_key[(strategy, workers)]
            assert row["sort_cost_usd"] > 0
            # Provisioned node/instance seconds make the substrate's
            # sort costlier than the pay-as-you-go COS one, and the
            # uniform report prices that infrastructure explicitly.
            assert row["sort_cost_usd"] > cos_row["sort_cost_usd"]
            assert row["provisioned_usd"] > 0.0
            # The provisioned shuffles still talk to COS (input + runs)
            # but issue far fewer storage requests than the all-to-all.
            assert row["storage_requests"] < cos_row["storage_requests"]
