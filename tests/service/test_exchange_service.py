"""Multi-tenant ExchangeService: fairness, fencing, scaling, billing.

The shared-substrate guarantees the service makes:

* no tenant starves under another tenant's saturation (token-bucket
  fair share with FIFO skip-ahead bounds every tenant's queue wait);
* admission is bounded — a full queue rejects at submit time;
* a tenant's cancel storm reclaims only that tenant's reservations and
  other tenants' artifacts stay byte-identical to solo runs;
* the fleet autoscales up under a demand burst and back down when the
  queue drains, on fleet *generations* so in-flight rendezvous never
  breaks;
* per-tenant billed dollars are exact on the function side (billing
  tags) and sum to the fleet total on the instance side.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm import UnknownRelay
from repro.cloud.vm.fleet import fleet_ready
from repro.executor import FunctionExecutor
from repro.service import ExchangeService, ServiceSaturated
from repro.service.exchange_service import QUEUE_LIMIT, TENANT_RATE_PER_S
from repro.shuffle import (
    FixedWidthCodec,
    ShardedRelayExchange,
    ShuffleCostModel,
    ShuffleSort,
)
from repro.shuffle.relayplanner import relay_usable_bytes, resolve_relay_instance
from tests.payloads import fixed_payload

pytestmark = pytest.mark.service

RECORDS = 2000
WORKERS = 4
INSTANCE = "bx2-2x8"


def codec():
    return FixedWidthCodec(record_size=16, key_bytes=8)


def fresh_cloud(seed=5):
    return Cloud.fresh(seed=seed, profile=ibm_us_east(deterministic=True))


def make_service(cloud):
    return ExchangeService(cloud, codec(), instance_type=INSTANCE, max_shards=4)


def solo_digest(payload, cloud_seed, workers=WORKERS):
    """Digest of the same sort run alone on its own region."""
    import hashlib

    cloud = fresh_cloud(cloud_seed)
    cloud.store.ensure_bucket("data")
    fleet = fleet_ready(cloud.vms, INSTANCE, shards=1)
    operator = ShuffleSort(
        FunctionExecutor(cloud), codec(),
        backend=ShardedRelayExchange(fleet, ShuffleCostModel(consume=True)),
    )

    def driver():
        yield cloud.store.put("data", "input.bin", payload)
        return (yield operator.sort("data", "input.bin", workers=workers))

    result = cloud.sim.run_process(driver())
    digest = hashlib.sha256()
    for run in result.runs:
        digest.update(cloud.store.peek(run.bucket, run.key))
    return digest.hexdigest()[:16]


class TestFairness:
    def test_quiet_tenant_skips_ahead_of_noisy_backlog(self):
        """A noisy tenant floods the queue; a quiet tenant's job must
        dispatch on its own token, not behind the noise."""
        cloud = fresh_cloud()
        cloud.store.ensure_bucket("data")
        payload = fixed_payload(RECORDS, 1)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            noisy = [
                svc.submit("noisy", "data", "in.bin", len(payload), workers=WORKERS)
                for _ in range(4)
            ]
            yield cloud.sim.timeout(1.0)
            quiet = svc.submit(
                "quiet", "data", "in.bin", len(payload), workers=WORKERS
            )
            yield svc.drain()
            return noisy, quiet

        noisy, quiet = cloud.sim.run_process(driver())
        svc.shutdown()
        assert quiet.state == "done"
        # The quiet tenant had a token: its wait is dispatch latency,
        # not the noisy tenant's 20-second-per-job refill backlog.
        assert quiet.queue_wait_s < 10.0
        # The noisy tenant is throttled, not starved: each job beyond
        # the burst waits roughly its position over the refill rate.
        for index, job in enumerate(noisy):
            assert job.state == "done"
            assert job.queue_wait_s <= (index + 1) / TENANT_RATE_PER_S + 10.0
        assert noisy[-1].queue_wait_s > 2 / TENANT_RATE_PER_S - 10.0

    def test_no_unbounded_wait_under_saturation(self):
        """Every admitted job's wait stays under the fair-share bound
        (queue position / tenant refill rate), even with three tenants
        saturating the service at once."""
        cloud = fresh_cloud()
        cloud.store.ensure_bucket("data")
        payload = fixed_payload(RECORDS, 2)
        rate = TENANT_RATE_PER_S
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            jobs = []
            for tenant in ("a", "b", "c"):
                for _ in range(3):
                    jobs.append(
                        svc.submit(
                            tenant, "data", "in.bin", len(payload),
                            workers=WORKERS,
                        )
                    )
            yield svc.drain()
            return jobs

        jobs = cloud.sim.run_process(driver())
        svc.shutdown()
        per_tenant_position = {}
        for job in jobs:
            assert job.state == "done", job.error
            position = per_tenant_position.get(job.tenant, 0)
            per_tenant_position[job.tenant] = position + 1
            bound = (position + 1) / rate + 30.0
            assert job.queue_wait_s <= bound, (
                f"{job.job_id} ({job.tenant}) waited {job.queue_wait_s:.0f}s, "
                f"bound {bound:.0f}s"
            )

    def test_full_queue_rejects_at_submit(self):
        cloud = fresh_cloud()
        cloud.store.ensure_bucket("data")
        payload = fixed_payload(200, 3)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            for _ in range(QUEUE_LIMIT):
                svc.submit("t", "data", "in.bin", len(payload))
            with pytest.raises(ServiceSaturated):
                svc.submit("t", "data", "in.bin", len(payload))

        cloud.sim.run_process(driver())
        svc.shutdown()
        # Nothing was dispatched before the shutdown cancelled the queue.
        assert len(svc.jobs) == QUEUE_LIMIT
        assert {job.state for job in svc.jobs} == {"cancelled"}


class TestTenantFencing:
    def test_cancel_storm_reclaims_only_that_tenant(self):
        """Cancel one tenant's running jobs mid-flight: its scopes are
        fenced and reclaimed, the surviving tenant's artifact is
        byte-identical to a solo run, and nothing leaks."""
        cloud = fresh_cloud(seed=11)
        cloud.store.ensure_bucket("data")
        payload_a = fixed_payload(RECORDS, 11)
        payload_b = fixed_payload(RECORDS, 22)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "a.bin", payload_a)
            yield cloud.store.put("data", "b.bin", payload_b)
            svc.start()
            doomed = [
                svc.submit("alice", "data", "a.bin", len(payload_a), workers=WORKERS)
                for _ in range(2)
            ]
            survivor = svc.submit(
                "bob", "data", "b.bin", len(payload_b), workers=WORKERS
            )
            # Let all three jobs reach mid-flight, then storm alice.
            yield cloud.sim.timeout(0.5)
            summary = svc.cancel_tenant("alice")
            yield svc.drain()
            return doomed, survivor, summary

        doomed, survivor, summary = cloud.sim.run_process(driver())
        assert len(summary["fenced_running"]) == 2
        for job in doomed:
            assert job.state == "cancelled"
        assert survivor.state == "done"
        assert survivor.output_digest == solo_digest(payload_b, 22)

        # Zero cross-tenant residue: every generation's fleet holds no
        # reservation of any cancelled attempt once the dust settles.
        for generation in svc._generations:
            if generation.terminated_at is None:
                assert generation.fleet.residual_reservation_bytes() == 0.0
                generation.fleet.check_memory_accounting()
        svc.shutdown()

    def test_cancelled_queued_jobs_never_bill(self):
        cloud = fresh_cloud()
        cloud.store.ensure_bucket("data")
        payload = fixed_payload(200, 4)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            # The first two spend the tenant's burst; the third waits
            # for a refill when the cancel lands.
            first = svc.submit("t", "data", "in.bin", len(payload))
            svc.submit("t", "data", "in.bin", len(payload))
            queued = svc.submit("t", "data", "in.bin", len(payload))
            yield cloud.sim.timeout(0.1)
            svc.cancel_tenant("t")
            yield svc.drain()
            return first, queued

        first, queued = cloud.sim.run_process(driver())
        svc.shutdown()
        assert queued.state == "cancelled"
        assert queued.started_at is None
        # The queued job never became an activation: no faas line
        # carries its job tag.
        assert cloud.meter.filtered(job=queued.job_id) == []


class TestAutoscaling:
    def test_burst_scales_up_then_drain_scales_down(self):
        """Declared demand beyond one shard rotates in a bigger
        generation; the drained queue rotates back down — and every
        job's artifact matches its solo digest across generations."""
        cloud = fresh_cloud(seed=17)
        cloud.store.ensure_bucket("data")
        profile = cloud.profile
        usable = relay_usable_bytes(
            profile, resolve_relay_instance(profile, INSTANCE)
        )
        payloads = {seed: fixed_payload(RECORDS, seed) for seed in (31, 32, 33)}
        svc = make_service(cloud)
        declared = usable * 0.8  # 3 concurrent jobs need > 1 shard

        def driver():
            for seed, payload in payloads.items():
                yield cloud.store.put("data", f"{seed}.bin", payload)
            svc.start()
            # One tenant each, so no job waits on a token refill.
            jobs = [
                svc.submit(
                    f"t{seed}", "data", f"{seed}.bin", declared, workers=WORKERS
                )
                for seed in payloads
            ]
            yield svc.drain()
            return jobs

        jobs = cloud.sim.run_process(driver())
        svc.shutdown()
        directions = [event["direction"] for event in svc.scale_events]
        assert "up" in directions, svc.scale_events
        assert "down" in directions, svc.scale_events
        assert svc.current_shards == 1
        for seed, job in zip(payloads, jobs):
            assert job.state == "done", job.error
            assert job.output_digest == solo_digest(payloads[seed], seed)

    def test_backlog_beyond_the_largest_fleet_queues_instead_of_raising(self):
        """Five jobs that each fit one shard, on a fleet capped at four:
        the autoscaler targets ``max_shards`` and the queue absorbs the
        rest — ``submit`` must not refuse the fifth job over a backlog
        nobody submitted as one job."""
        cloud = fresh_cloud(seed=23)
        cloud.store.ensure_bucket("data")
        usable = relay_usable_bytes(
            cloud.profile, resolve_relay_instance(cloud.profile, INSTANCE)
        )
        payload = fixed_payload(RECORDS, 41)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            jobs = [
                svc.submit(
                    f"t{index}", "data", "in.bin", usable * 0.7, workers=WORKERS
                )
                for index in range(5)
            ]
            yield svc.drain()
            return jobs

        jobs = cloud.sim.run_process(driver())
        svc.shutdown()
        assert len(jobs) == 5
        assert [job.state for job in jobs] == ["done"] * 5
        assert max(event["to_shards"] for event in svc.scale_events) == 4

    def test_running_jobs_finish_on_their_generation(self):
        """A scale-up mid-job must not move the running job's shards:
        its generation drains and terminates only after it finishes."""
        cloud = fresh_cloud(seed=19)
        cloud.store.ensure_bucket("data")
        profile = cloud.profile
        usable = relay_usable_bytes(
            profile, resolve_relay_instance(profile, INSTANCE)
        )
        payload = fixed_payload(RECORDS, 7)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            small = svc.submit("t", "data", "in.bin", len(payload), workers=WORKERS)
            yield cloud.sim.timeout(0.2)  # small is mid-flight on gen 0
            big = svc.submit(
                "t", "data", "in.bin", usable * 1.5, workers=WORKERS
            )
            yield svc.drain()
            return small, big

        small, big = cloud.sim.run_process(driver())
        svc.shutdown()
        assert small.state == "done" and big.state == "done"
        assert small.generation_id != big.generation_id
        gen_small = svc._generation_by_id(small.generation_id)
        # The old generation terminated only after its job drained.
        assert gen_small.terminated_at is not None
        assert gen_small.terminated_at >= small.finished_at


class TestCostAttribution:
    def test_tenant_totals_sum_to_fleet_and_faas_totals(self):
        cloud = fresh_cloud(seed=23)
        cloud.store.ensure_bucket("data")
        payload_a = fixed_payload(RECORDS, 41)
        payload_b = fixed_payload(RECORDS, 42)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "a.bin", payload_a)
            yield cloud.store.put("data", "b.bin", payload_b)
            svc.start()
            svc.submit("alice", "data", "a.bin", len(payload_a), workers=WORKERS)
            svc.submit("bob", "data", "b.bin", len(payload_b), workers=WORKERS)
            yield svc.drain()

        cloud.sim.run_process(driver())
        svc.shutdown()
        costs = svc.tenant_costs()
        assert set(costs) == {"alice", "bob"}
        for entry in costs.values():
            assert entry["faas_usd"] > 0.0
            assert entry["fleet_usd"] > 0.0
            assert entry["total_usd"] == pytest.approx(
                entry["faas_usd"] + entry["fleet_usd"]
            )
        # Fleet apportioning is conservative: tenant shares sum to the
        # metered fleet total to the cent.
        fleet_total = svc.fleet_cost_usd()
        assert fleet_total > 0.0
        assert sum(e["fleet_usd"] for e in costs.values()) == pytest.approx(
            fleet_total
        )
        # The function side is exact per tenant straight off the meter.
        for tenant in ("alice", "bob"):
            tagged = sum(
                line.usd for line in cloud.meter.filtered(tenant=tenant)
            )
            assert costs[tenant]["faas_usd"] == pytest.approx(tagged)

    def test_fleet_lines_are_generation_tagged(self):
        """A generation's dollars are the ``vm`` lines of its shard VMs,
        with ``shutdown`` called at top level, outside any process: the
        lines it bills have no owner, and a VM outside the fleet on the
        same region is not in them."""
        cloud = fresh_cloud()
        cloud.store.ensure_bucket("data")
        payload = fixed_payload(200, 5)
        svc = make_service(cloud)
        bystander = cloud.vms.provision_ready(svc.instance_type)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            svc.submit("t", "data", "in.bin", len(payload))
            yield svc.drain()

        cloud.sim.run_process(driver())
        svc.shutdown()
        bystander.terminate()
        [generation] = svc._generations
        shard_vms = {shard.vm.vm_id for shard in generation.fleet.shards}
        assert bystander.vm_id not in shard_vms
        fleet_lines = [
            line for line in cloud.meter.filtered(service="vm")
            if dict(line.tags)["vm"] in shard_vms
        ]
        assert fleet_lines, "generation 0's instance lines must carry its VMs' ids"
        assert all(set(dict(line.tags)) <= {"vm", "type"} for line in fleet_lines)
        assert svc.fleet_cost_usd() == pytest.approx(
            sum(line.usd for line in fleet_lines)
        )
        assert svc.fleet_cost_usd() < sum(
            line.usd for line in cloud.meter.filtered(service="vm")
        )

    def test_fleet_cost_ignores_the_owner_of_the_shutdown(self):
        """Shut down from inside a tenant-owned process, the same fleet
        bills the same dollars as from top level."""
        payload = fixed_payload(200, 5)
        fleet_usd = []
        for owned in (False, True):
            cloud = fresh_cloud()
            cloud.store.ensure_bucket("data")
            svc = make_service(cloud)

            def driver():
                if owned:
                    cloud.sim.active_process.owner = (("tenant", "ops"),)
                yield cloud.store.put("data", "in.bin", payload)
                svc.start()
                svc.submit("t", "data", "in.bin", len(payload))
                yield svc.drain()
                if owned:
                    svc.shutdown()

            cloud.sim.run_process(driver())
            if not owned:
                svc.shutdown()
            fleet_usd.append(svc.fleet_cost_usd())
        assert cloud.meter.filtered(service="vm", tenant="ops")
        assert fleet_usd[0] > 0.0
        assert fleet_usd[1] == fleet_usd[0]


class TestShutdown:
    def test_shutdown_under_a_running_job_fails_it_with_the_substrate_error(self):
        """Shutting down tears the fleet away under a running job: the
        job fails with the substrate's own error, not with one raised
        while the sort released its state on the dead fleet."""
        cloud = fresh_cloud()
        cloud.store.ensure_bucket("data")
        payload = fixed_payload(RECORDS, 3)
        svc = make_service(cloud)

        def driver():
            yield cloud.store.put("data", "in.bin", payload)
            svc.start()
            job = svc.submit("t", "data", "in.bin", len(payload), workers=WORKERS)
            while job.state != "running":
                yield cloud.sim.timeout(0.05)
            yield cloud.sim.timeout(0.5)
            svc.shutdown()
            yield job.done
            return job

        job = cloud.sim.run_process(driver())
        assert job.state == "failed"
        assert isinstance(job.error, UnknownRelay)
        [generation] = svc._generations
        assert generation.fleet._routers == {}
        assert all(shard._peak_epochs == {} for shard in generation.fleet.shards)
