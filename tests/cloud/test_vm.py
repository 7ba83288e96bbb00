"""Unit tests for the simulated VM service."""

import pytest

from repro.cloud import Cloud, MB
from repro.cloud.profiles import ibm_us_east
from repro.cloud.vm import UnknownInstanceType, VmAlreadyTerminated, VmNotRunning


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=9, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("bucket")
    return cloud


class TestProvisioning:
    def test_provision_takes_boot_time(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")
            return vm, cloud.sim.now

        vm, ready_time = cloud.sim.run_process(scenario())
        assert vm.state == "running"
        assert ready_time == pytest.approx(cloud.profile.vm.boot.mean)

    def test_unknown_type_rejected(self, cloud):
        with pytest.raises(UnknownInstanceType):
            cloud.vms.provision("bx2-9000x1")

    def test_catalog_has_paper_instance(self, cloud):
        instance_type = cloud.vms.instance_type("bx2-8x32")
        assert instance_type.vcpus == 8
        assert instance_type.memory_gb == 32

    def test_run_before_ready_rejected(self, cloud):
        vm_event = cloud.vms.provision("bx2-2x8")
        vm = cloud.vms.instances[0]

        def task(ctx):
            yield ctx.compute(0.0)

        with pytest.raises(VmNotRunning):
            vm.run(task)
        cloud.sim.run(until=vm_event)  # cleanup: let boot finish


class TestTasks:
    def test_task_runs_and_returns(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")

            def task(ctx):
                yield ctx.compute(1.0)
                return "task-done"

            result = yield vm.run(task)
            vm.terminate()
            return result

        assert cloud.sim.run_process(scenario()) == "task-done"

    def test_vcpus_limit_parallel_compute(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-2x8")  # 2 vCPUs
            start = cloud.sim.now

            def task(ctx):
                events = [ctx.compute(10.0) for _ in range(4)]
                yield ctx.sim.all_of(events)

            yield vm.run(task)
            vm.terminate()
            return cloud.sim.now - start

        elapsed = cloud.sim.run_process(scenario())
        # 4 x 10 s of single-core work on 2 cores: 20 s, not 10 s.
        assert elapsed == pytest.approx(20.0, abs=0.5)

    def test_task_storage_roundtrip(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")

            def task(ctx):
                yield ctx.storage.put("bucket", "from-vm", b"vm-data")
                return (yield ctx.storage.get("bucket", "from-vm"))

            result = yield vm.run(task)
            vm.terminate()
            return result

        assert cloud.sim.run_process(scenario()) == b"vm-data"

    def test_parallel_put_stores_every_object_in_order(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")

            def task(ctx):
                return (
                    yield ctx.parallel_put(
                        [("bucket", f"k{index}", bytes([index])) for index in range(6)]
                    )
                )

            metas = yield vm.run(task)
            vm.terminate()
            return metas

        metas = cloud.sim.run_process(scenario())
        assert [meta.key for meta in metas] == [f"k{index}" for index in range(6)]
        assert [cloud.store.peek("bucket", f"k{index}") for index in range(6)] == [
            bytes([index]) for index in range(6)
        ]

    def test_io_slots_cap_concurrent_connections(self, cloud):
        vm_type = cloud.vms.instance_type("bx2-2x8")
        per_connection = cloud.profile.objectstore.per_connection_bandwidth
        expected_slots = max(1, int(vm_type.nic_bandwidth // per_connection))

        def scenario():
            vm = yield cloud.vms.provision("bx2-2x8")
            result = vm.io_slots.capacity
            vm.terminate()
            return result

        assert cloud.sim.run_process(scenario()) == expected_slots


class TestLifecycleAndBilling:
    def test_terminate_twice_rejected(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-2x8")
            vm.terminate()
            vm.terminate()

        with pytest.raises(VmAlreadyTerminated):
            cloud.sim.run_process(scenario())

    def test_billing_covers_boot_plus_run(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")
            yield cloud.sim.timeout(100.0)
            vm.terminate()

        cloud.sim.run_process(scenario())
        lines = [line for line in cloud.meter.lines if line.item == "instance_second"]
        assert len(lines) == 1
        expected_runtime = cloud.profile.vm.boot.mean + 100.0
        assert lines[0].quantity == pytest.approx(expected_runtime, rel=0.01)

    def test_minimum_billing_applies(self, cloud):
        profile = ibm_us_east(deterministic=True)
        profile.vm.boot.mean = 1.0
        profile.vm.minimum_billed_s = 60.0
        cloud = Cloud.fresh(seed=9, profile=profile)

        def scenario():
            vm = yield cloud.vms.provision("bx2-2x8")
            vm.terminate()

        cloud.sim.run_process(scenario())
        lines = [line for line in cloud.meter.lines if line.item == "instance_second"]
        assert lines[0].quantity == pytest.approx(60.0)

    def test_volume_charged_alongside_instance(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")
            vm.terminate()

        cloud.sim.run_process(scenario())
        items = {line.item for line in cloud.meter.lines if line.service == "vm"}
        assert items == {"instance_second", "volume_gb_hour"}

    def test_terminate_all_sweeps_running_instances(self, cloud):
        def scenario():
            yield cloud.vms.provision("bx2-2x8")
            yield cloud.vms.provision("bx2-4x16")

        cloud.sim.run_process(scenario())
        cloud.finalize()
        assert all(vm.state == "terminated" for vm in cloud.vms.instances)

    def test_hourly_price_matches_catalog(self, cloud):
        def scenario():
            vm = yield cloud.vms.provision("bx2-8x32")
            yield cloud.sim.timeout(3600.0 - cloud.profile.vm.boot.mean)
            vm.terminate()

        cloud.sim.run_process(scenario())
        instance_usd = sum(
            line.usd for line in cloud.meter.lines if line.item == "instance_second"
        )
        assert instance_usd == pytest.approx(0.384, rel=0.01)
