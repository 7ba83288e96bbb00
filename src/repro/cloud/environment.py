"""The simulated cloud region: one object of everything.

:class:`Cloud` wires a :class:`~repro.sim.kernel.Simulator` to an object
store, a FaaS platform, a VM service and a cost meter, all sharing one
:class:`~repro.cloud.profiles.CloudProfile`.  Every higher layer
(executors, shuffle, workflows, experiments) takes a ``Cloud`` and
nothing else.
"""

from __future__ import annotations

from repro.cloud.billing import CostMeter
from repro.cloud.faas.platform import FaasPlatform
from repro.cloud.memstore.service import MemStoreService
from repro.cloud.objectstore.service import ObjectStore
from repro.cloud.profiles import CloudProfile, ibm_us_east
from repro.cloud.vm.instance import VmService
from repro.sim import Simulator


class Cloud:
    """A simulated region bundling all services over one simulator."""

    def __init__(self, sim: Simulator, profile: CloudProfile | None = None):
        self.sim = sim
        self.profile = profile if profile is not None else ibm_us_east()
        self.profile.validate()
        self.meter = CostMeter(sim)
        self.store = ObjectStore(
            sim,
            self.profile.objectstore,
            self.meter,
            logical_scale=self.profile.logical_scale,
        )
        self.cache = MemStoreService(
            sim,
            self.profile.memstore,
            self.meter,
            logical_scale=self.profile.logical_scale,
        )
        self.vms = VmService(
            sim,
            self.profile.vm,
            self.store,
            self.meter,
            logical_scale=self.profile.logical_scale,
        )
        self.faas = FaasPlatform(
            sim,
            self.profile.faas,
            self.store,
            self.meter,
            logical_scale=self.profile.logical_scale,
            memstore=self.cache,
            vms=self.vms,
        )

    @property
    def logical_scale(self) -> float:
        return self.profile.logical_scale

    def finalize(self) -> None:
        """End-of-run housekeeping: terminate VMs and cache clusters
        (which also ends their lifetime spans), settle storage-volume
        billing."""
        self.vms.terminate_all()
        self.cache.terminate_all()
        self.store.finalize_billing()

    @classmethod
    def fresh(
        cls,
        seed: int = 0,
        profile: CloudProfile | None = None,
        spans: bool | None = None,
    ) -> "Cloud":
        """Convenience: a new simulator plus a new region.

        ``spans`` enables span tracing (see :mod:`repro.obs.trace`);
        None defers to ``REPRO_TRACE``.
        """
        return cls(Simulator(seed=seed, spans=spans), profile)
