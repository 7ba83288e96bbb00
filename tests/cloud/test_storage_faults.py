"""Transient object-storage failure injection and client retries.

The compute side's crash injection (S9) has a storage twin: real object
stores return sporadic 500s, and every layer that talks to storage —
driver clients, function handlers, VM tasks — must absorb them with
backoff instead of failing the pipeline.
"""

import pytest

from repro.cloud import Cloud
from repro.cloud.objectstore.errors import InternalError
from repro.cloud.profiles import ibm_us_east
from repro.cloud.storageview import BoundStorage
from repro.errors import StorageError
from repro.executor import FunctionExecutor
from repro.shuffle import FixedWidthCodec, ShuffleSort


@pytest.fixture
def cloud():
    cloud = Cloud.fresh(seed=13, profile=ibm_us_east(deterministic=True))
    cloud.store.ensure_bucket("bucket")
    return cloud


def seed_object(cloud, key="obj", data=b"payload"):
    def stage():
        yield cloud.store.put("bucket", key, data)

    cloud.sim.run_process(stage())


class TestRawStoreFaults:
    def test_injected_fault_raises_internal_error(self, cloud):
        seed_object(cloud)
        cloud.store.fault_probability = 1.0

        def scenario():
            return (yield cloud.store.head("bucket", "obj"))

        with pytest.raises(InternalError):
            cloud.sim.run_process(scenario())

    def test_faults_are_counted(self, cloud):
        seed_object(cloud)
        cloud.store.fault_probability = 1.0
        client = BoundStorage(cloud.store, None)

        def scenario():
            yield client.get("bucket", "obj")

        with pytest.raises(StorageError):
            cloud.sim.run_process(scenario())
        # Every attempt the client made was a fault the store counted.
        assert cloud.store.stats.internal_errors == client.retries + 1
        assert cloud.store.stats.gets == 0

    def test_zero_probability_never_fails(self, cloud):
        seed_object(cloud)
        client = BoundStorage(cloud.store, None)

        def scenario():
            for _round in range(50):
                yield client.get("bucket", "obj")

        cloud.sim.run_process(scenario())
        assert cloud.store.stats.internal_errors == 0


class TestWorkerSideRetries:
    def test_function_handler_survives_transient_faults(self, cloud):
        seed_object(cloud, data=b"x" * 1000)
        cloud.store.fault_probability = 0.2

        def handler(ctx, _payload):
            data = yield ctx.storage.get("bucket", "obj")
            return len(data)

        cloud.faas.register("reader", handler)

        def scenario():
            results = []
            for _round in range(10):
                results.append((yield cloud.faas.launch("reader").completion))
            return results

        assert cloud.sim.run_process(scenario()) == [1000] * 10
        assert cloud.store.stats.internal_errors > 0

    def test_persistent_outage_surfaces_as_storage_error(self, cloud):
        seed_object(cloud)
        cloud.store.fault_probability = 1.0

        def handler(ctx, _payload):
            return (yield ctx.storage.get("bucket", "obj"))

        cloud.faas.register("reader", handler)

        def scenario():
            return (yield cloud.faas.launch("reader").completion)

        with pytest.raises(StorageError, match="still failing"):
            cloud.sim.run_process(scenario())

    def test_retries_cost_backoff_time(self, cloud):
        seed_object(cloud)

        def handler(ctx, _payload):
            return (yield ctx.storage.get("bucket", "obj"))

        cloud.faas.register("reader", handler)

        def run_once():
            def scenario():
                yield cloud.faas.launch("reader").completion

            before = cloud.sim.now
            cloud.sim.run_process(scenario())
            return cloud.sim.now - before

        run_once()  # absorb the cold start; both probes below run warm
        healthy = run_once()
        cloud.store.fault_probability = 0.6
        degraded = run_once()
        assert degraded > healthy

    def test_vm_task_survives_transient_faults(self, cloud):
        seed_object(cloud, data=b"y" * 500)
        cloud.store.fault_probability = 0.2

        def scenario():
            vm = yield cloud.vms.provision("bx2-2x8")

            def task(ctx):
                payloads = []
                for _round in range(10):
                    payloads.append((yield ctx.storage.get("bucket", "obj")))
                return payloads

            result = yield vm.run(task)
            vm.terminate()
            return result

        assert cloud.sim.run_process(scenario()) == [b"y" * 500] * 10
        assert cloud.store.stats.internal_errors > 0


class TestEndToEndUnderFaults:
    def test_shuffle_stays_lossless_under_faults(self, cloud):
        import random

        rng = random.Random(3)
        codec = FixedWidthCodec(record_size=16, key_bytes=8)
        payload = b"".join(
            rng.getrandbits(64).to_bytes(8, "big") + bytes(8)
            for _ in range(2000)
        )
        cloud.store.fault_probability = 0.05
        executor = FunctionExecutor(cloud, bucket="bucket")
        operator = ShuffleSort(executor, codec)

        def driver():
            yield cloud.store.put("bucket", "input.bin", payload)
            return (yield operator.sort("bucket", "input.bin", workers=4))

        result = cloud.sim.run_process(driver())
        merged = b"".join(
            cloud.store.peek("bucket", run.key) for run in result.runs
        )
        keys = [codec.key(record) for record in codec.split(merged)]
        assert keys == sorted(keys)
        assert result.total_records == 2000
        assert cloud.store.stats.internal_errors > 0
