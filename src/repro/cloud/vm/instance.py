"""Simulated virtual server instances (IBM VPC VSI-like).

The VM model captures what the paper's hybrid pipeline pays for:

* **provisioning latency** — `provision()` takes tens of seconds before
  the instance accepts work (the dominant penalty in Table 1);
* **bounded parallelism** — tasks contend for the instance's vCPUs;
* **bounded network** — concurrent storage connections are capped so the
  instance NIC cannot exceed its line rate;
* **per-second billing** — instance + boot volume, from provision call
  to terminate, with a minimum billed duration.

Each instance's billed lifetime is also a ``vm`` span on the simulator's
tracer (:attr:`VirtualMachine.span`), opened at the provision call and
ended by :meth:`VirtualMachine.terminate`; its ``ready`` event closes
the provisioning window.

Tasks are generator functions receiving a :class:`VmContext`.
"""

from __future__ import annotations

import itertools
import typing as t
import weakref

from repro.cloud.billing import CostMeter
from repro.cloud.objectstore.service import ObjectStore
from repro.cloud.profiles import InstanceType, VmProfile
from repro.cloud.storageview import BoundStorage
from repro.cloud.vm.errors import (
    UnknownInstanceType,
    UnknownRelay,
    VmAlreadyTerminated,
    VmNotRunning,
)
from repro.sim import Resource, SimEvent, Simulator

#: Task signature: generator function taking a VmContext.
VmTask = t.Callable[["VmContext"], t.Generator]


class VmContext:
    """What a task running on a VM may touch."""

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        self.sim: Simulator = vm.sim
        #: Object-store client whose connections are individually capped
        #: by the store and collectively capped by the VM NIC (see
        #: ``io_slot``); retries transient 5xx-style failures like a real
        #: SDK.
        self.storage = BoundStorage(
            vm.store,
            vm.store.profile.per_connection_bandwidth,
            name=f"{vm.vm_id}.storage",
        )
        self.logical_scale = vm.logical_scale

    # -- compute -------------------------------------------------------
    def compute(self, cpu_seconds: float) -> SimEvent:
        """Run ``cpu_seconds`` of single-core work on one vCPU.

        The caller's process waits for a free vCPU, then for the work.
        Returned event triggers when the work is done and the vCPU freed.
        """
        return self.sim.process(
            self._compute_task(cpu_seconds), name=f"{self.vm.vm_id}.compute"
        ).completion

    def _compute_task(self, cpu_seconds: float) -> t.Generator:
        self.vm.ensure_running()
        yield self.vm.cpu.acquire()
        try:
            speed = self.vm.service.profile.relative_core_speed
            yield self.sim.timeout(max(0.0, cpu_seconds) / speed)
        finally:
            self.vm.cpu.release()

    def compute_bytes(self, real_bytes: float, throughput_bps: float) -> SimEvent:
        """Charge one-core CPU for ``real_bytes`` of real data (scaled)."""
        cpu_seconds = (real_bytes * self.logical_scale) / throughput_bps
        return self.compute(cpu_seconds)

    # -- network -------------------------------------------------------
    def io_slot(self) -> Resource:
        """Semaphore capping concurrent storage connections (NIC model)."""
        return self.vm.io_slots

    def parallel_put(self, triples: list[tuple[str, str, bytes]]) -> SimEvent:
        """Store many objects concurrently, respecting the NIC cap."""
        return self.sim.process(
            self._parallel_io(triples), name=f"{self.vm.vm_id}.parallel_put"
        ).completion

    def _parallel_io(self, triples: list[tuple[str, str, bytes]]) -> t.Generator:
        self.vm.ensure_running()
        results: list[object] = [None] * len(triples)

        def one(index: int, bucket: str, key: str, data: bytes) -> t.Generator:
            yield self.vm.io_slots.acquire()
            try:
                results[index] = yield self.storage.put(bucket, key, data)
            finally:
                self.vm.io_slots.release()

        processes = [
            self.sim.process(
                one(index, *triple), name=f"{self.vm.vm_id}.io{index}"
            )
            for index, triple in enumerate(triples)
        ]
        yield self.sim.all_of([process.completion for process in processes])
        return results

    def sleep(self, seconds: float) -> SimEvent:
        return self.sim.timeout(seconds)


class VirtualMachine:
    """One provisioned instance."""

    def __init__(
        self,
        service: "VmService",
        vm_id: str,
        instance_type: InstanceType,
    ):
        # The service owns its instances; the way back is weak, so a
        # dropped region (its store holds every payload) is freed by
        # reference count instead of waiting for a full collection.
        self.service: "VmService" = weakref.proxy(service)
        self.sim = service.sim
        self.store = service.store
        self.logical_scale = service.logical_scale
        self.vm_id = vm_id
        self.instance_type = instance_type
        self.state = "booting"
        self.provisioned_at = self.sim.now
        self.ready_at: float | None = None
        self.terminated_at: float | None = None
        #: Lifetime span: what is billed, from provision to terminate.
        self.span = self.sim.tracer.span(
            vm_id, category="vm", track=vm_id, vm=vm_id, type=instance_type.name
        )
        self.cpu = Resource(
            self.sim, capacity=instance_type.vcpus, name=f"{vm_id}.cpu"
        )
        # NIC model: concurrent storage connections at the store's
        # per-connection speed cannot exceed the NIC line rate.
        per_connection = service.store.profile.per_connection_bandwidth
        max_connections = max(1, int(instance_type.nic_bandwidth // per_connection))
        self.io_slots = Resource(
            self.sim, capacity=max_connections, name=f"{vm_id}.io"
        )

    # ------------------------------------------------------------------
    def ensure_running(self) -> None:
        if self.state != "running":
            raise VmNotRunning(self.vm_id, self.state)

    def _ready(self) -> None:
        """Booted: the instance accepts work from now on."""
        self.state = "running"
        self.ready_at = self.sim.now
        self.span.event("ready")

    def run(self, task: VmTask, name: str = "task") -> SimEvent:
        """Execute ``task(ctx)`` on this VM; event carries its result."""
        self.ensure_running()
        context = VmContext(self)
        return self.sim.process(
            task(context), name=f"{self.vm_id}.{name}"
        ).completion

    def terminate(self) -> None:
        """Stop the instance and bill its lifetime."""
        if self.state == "terminated":
            raise VmAlreadyTerminated(self.vm_id)
        self.state = "terminated"
        self.terminated_at = self.sim.now
        self.service._bill_instance(self)
        self.span.end()


class VmService:
    """Provisioning control plane for virtual server instances."""

    def __init__(
        self,
        sim: Simulator,
        profile: VmProfile,
        store: ObjectStore,
        meter: CostMeter,
        logical_scale: float = 1.0,
        name: str = "vm",
    ):
        self.sim = sim
        self.profile = profile
        self.store = store
        self.meter = meter
        self.logical_scale = logical_scale
        self.name = name
        self._ids = itertools.count(1)
        self._rng = sim.rng.stream(f"{name}.boot")
        self.instances: list[VirtualMachine] = []
        #: Partition relays hosted on this service's VMs, by relay id
        #: (registered by :mod:`repro.cloud.vm.relay`).
        self.relays: dict[str, object] = {}

    def instance_type(self, type_name: str) -> InstanceType:
        try:
            return self.profile.catalog[type_name]
        except KeyError:
            raise UnknownInstanceType(type_name, list(self.profile.catalog)) from None

    def provision(self, type_name: str) -> SimEvent:
        """Provision an instance; the event succeeds with a running VM."""
        instance_type = self.instance_type(type_name)
        vm = VirtualMachine(self, f"vm-{next(self._ids)}", instance_type)
        self.instances.append(vm)
        return self.sim.process(
            self._boot(vm), name=f"{self.name}.boot.{vm.vm_id}"
        ).completion

    def provision_ready(self, type_name: str) -> VirtualMachine:
        """An instance that is already running (pre-provisioned, warm mode).

        Billing still starts now: the instance accrues seconds from this
        call until :meth:`VirtualMachine.terminate` — the same contract
        as :meth:`~repro.cloud.memstore.service.MemStoreService.provision_ready`.
        """
        instance_type = self.instance_type(type_name)
        vm = VirtualMachine(self, f"vm-{next(self._ids)}", instance_type)
        vm._ready()
        self.instances.append(vm)
        return vm

    def relay(self, relay_id: str):
        """Resolve a relay id (as carried inside worker payloads)."""
        try:
            return self.relays[relay_id]
        except KeyError:
            raise UnknownRelay(relay_id) from None

    def _boot(self, vm: VirtualMachine) -> t.Generator:
        yield self.sim.timeout(self.profile.boot.sample(self._rng))
        vm._ready()
        return vm

    def _bill_instance(self, vm: VirtualMachine) -> None:
        lifetime = (vm.terminated_at or self.sim.now) - vm.provisioned_at
        billed = max(lifetime, self.profile.minimum_billed_s)
        instance_usd = billed * vm.instance_type.per_second_usd
        self.meter.charge(
            self.sim.now,
            "vm",
            "instance_second",
            billed,
            instance_usd,
            vm=vm.vm_id,
            type=vm.instance_type.name,
        )
        volume_hours = billed / 3600.0
        volume_usd = (
            self.profile.boot_volume_gb * volume_hours * self.profile.volume_gb_hour_usd
        )
        self.meter.charge(
            self.sim.now,
            "vm",
            "volume_gb_hour",
            self.profile.boot_volume_gb * volume_hours,
            volume_usd,
            vm=vm.vm_id,
        )

    def terminate_all(self) -> None:
        """Terminate any instances still running (end-of-run cleanup)."""
        for vm in self.instances:
            if vm.state != "terminated":
                vm.terminate()
