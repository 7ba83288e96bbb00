"""Lifetime spans: every billed VM and cache cluster is one span.

A VM's or cache cluster's span opens where billing starts (the
provision call, cold or warm) and ends in ``terminate``; its ``ready``
event closes the provisioning window.  ``Cloud.finalize`` terminates
whatever is still running, so a finished run has no open lifetime span,
and one nobody terminated is a leak :meth:`Tracer.validate` reports.
Relay fences and service scale events land on these spans.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm.fleet import fleet_ready, provision_fleet
from repro.cloud.vm.relay import relay_ready
from repro.obs import NOOP_SPAN
from repro.service import ExchangeService
from repro.shuffle import FixedWidthCodec
from repro.shuffle.relayplanner import relay_usable_bytes, resolve_relay_instance

pytestmark = pytest.mark.obs

VM_TYPE = "bx2-2x8"
CACHE_TYPE = "cache.r5.large"


def traced_cloud(seed=7, spans=True):
    return Cloud.fresh(
        seed=seed, profile=ibm_us_east(deterministic=True), spans=spans
    )


def awaited(event):
    """A process body that waits for ``event`` and returns its value."""
    return (yield event)


def lifetime_spans(cloud, category):
    return [span for span in cloud.sim.tracer.spans if span.category == category]


class TestProvisioningWindow:
    def test_cold_vm_span_starts_at_its_provision_call(self):
        cloud = traced_cloud()

        def scenario():
            yield cloud.sim.timeout(2.0)
            return (yield cloud.vms.provision(VM_TYPE))

        vm = cloud.sim.run_process(scenario())
        [span] = lifetime_spans(cloud, "vm")
        assert span is vm.span
        assert span.start_s == vm.provisioned_at == 2.0
        assert span.attributes["type"] == VM_TYPE
        # The boot is the window between the span's start and ``ready``.
        assert span.events == [(vm.ready_at, "ready", {})]
        assert vm.ready_at == 2.0 + cloud.profile.vm.boot.mean
        vm.terminate()
        assert span.end_s == vm.terminated_at

    def test_cold_cluster_span_starts_at_its_provision_call(self):
        cloud = traced_cloud()

        def scenario():
            yield cloud.sim.timeout(1.0)
            return (yield cloud.cache.provision(CACHE_TYPE, nodes=3))

        cluster = cloud.sim.run_process(scenario())
        [span] = lifetime_spans(cloud, "cache")
        assert span.start_s == cluster.provisioned_at == 1.0
        assert span.attributes["nodes"] == 3
        assert span.events == [(cluster.ready_at, "ready", {})]
        assert cluster.ready_at > span.start_s

    def test_warm_resources_are_ready_at_once(self):
        cloud = traced_cloud()
        vm = cloud.vms.provision_ready(VM_TYPE)
        cluster = cloud.cache.provision_ready(CACHE_TYPE)
        assert vm.span.events == [(0.0, "ready", {})]
        assert cluster.span.events == [(0.0, "ready", {})]

    def test_a_fleet_of_n_is_n_vm_spans(self):
        cloud = traced_cloud()
        fleet = cloud.sim.run_process(awaited(provision_fleet(cloud.vms, VM_TYPE, 3)))
        warm = fleet_ready(cloud.vms, VM_TYPE, 2)
        spans = lifetime_spans(cloud, "vm")
        assert len(spans) == 5
        relays = [shard.relay_id for shard in (*fleet.shards, *warm.shards)]
        assert [span.attributes["relay"] for span in spans] == relays


class TestEndOfRun:
    def test_finalize_ends_every_open_lifetime_span(self):
        cloud = traced_cloud()
        cloud.vms.provision_ready(VM_TYPE)
        cloud.cache.provision_ready(CACHE_TYPE, nodes=2)
        relay_ready(cloud.vms, VM_TYPE)
        fleet_ready(cloud.vms, VM_TYPE, 2)
        cloud.sim.run(until=30.0)
        tracer = cloud.sim.tracer
        assert tracer.open_span_count == 5
        cloud.finalize()
        assert tracer.open_span_count == 0
        assert tracer.validate() == []
        assert {span.end_s for span in tracer.spans} == {30.0}

    def test_an_unterminated_vm_is_reported_by_validate(self):
        cloud = traced_cloud()
        vm = cloud.vms.provision_ready(VM_TYPE)
        cluster = cloud.cache.provision_ready(CACHE_TYPE)
        cluster.terminate()
        problems = cloud.sim.tracer.validate()
        assert problems == [f"span {vm.span.span_id} ({vm.vm_id}) never ended"]

    def test_tracing_off_records_no_lifetime(self):
        cloud = traced_cloud(spans=False)
        vm = cloud.vms.provision_ready(VM_TYPE)
        cluster = cloud.cache.provision_ready(CACHE_TYPE)
        assert vm.span is NOOP_SPAN and cluster.span is NOOP_SPAN
        cloud.finalize()
        assert cloud.sim.tracer.spans == []


class TestEventsOnLifetimeSpans:
    def test_relay_fence_and_cancel_land_on_the_relay_vm(self):
        cloud = traced_cloud()
        relay = relay_ready(cloud.vms, VM_TYPE)
        relay.client(attempt_id="act-1", scope="alice/job-1")
        relay.cancel_scope("alice/job-1")
        names = [name for _at, name, _attrs in relay.vm.span.events]
        assert names == ["ready", "relay.cancel_attempt", "relay.cancel_scope"]
        scope = relay.vm.span.events[-1][2]
        assert scope == {"scope": "alice/job-1", "fence": True, "reclaimed": 0.0}
        relay.terminate()
        assert relay.vm.span.attributes["resident_keys"] == 0
        # A fence after terminate has no open span to land on.
        relay.cancel_attempt("act-2")
        assert len(relay.vm.span.events) == 3

    def test_fleet_routing_lands_on_every_shard(self):
        cloud = traced_cloud()
        fleet = fleet_ready(cloud.vms, VM_TYPE, 2)
        fleet.set_router(lambda _key: 0, namespace="svc/job-1")
        for shard in fleet.shards:
            assert shard.vm.span.events[-1] == (
                0.0, "relay.fleet_rebalance",
                {"fleet": fleet.relay_id, "namespace": "svc/job-1"},
            )

    def test_service_scale_events_land_on_the_new_generation(self):
        cloud = traced_cloud()
        usable = relay_usable_bytes(
            cloud.profile, resolve_relay_instance(cloud.profile, VM_TYPE)
        )
        svc = ExchangeService(
            cloud, FixedWidthCodec(record_size=16, key_bytes=8),
            instance_type=VM_TYPE, max_shards=4,
        )
        svc.start()
        for _ in range(3):
            svc.submit("t", "data", "in.bin", usable * 0.8, workers=4)
        svc.shutdown()
        assert svc.scale_events
        # Every rotation provisions the next generation; its shards' spans
        # open with the scale event that caused them.
        for scale, generation in zip(svc.scale_events, svc._generations[1:]):
            for shard in generation.fleet.shards:
                ready, (at_s, name, attrs) = shard.vm.span.events
                assert ready[1] == "ready"
                assert (at_s, name) == (
                    scale["time"], f"service.scale_{scale['direction']}"
                )
                assert attrs["to_shards"] == scale["to_shards"]
                assert attrs["generation"] == generation.gen_id
        assert cloud.sim.tracer.validate() == []
