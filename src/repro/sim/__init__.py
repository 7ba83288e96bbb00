"""Deterministic discrete-event simulation kernel.

This package is the substrate under the whole library: the simulated
cloud (object storage, FaaS, VMs) is built from :class:`Simulator`
processes, events and resources.

Public surface::

    from repro.sim import Simulator, FOREVER
    from repro.sim import SimEvent, Timeout, AllOf, AnyOf
    from repro.sim import LazyName, render_name
    from repro.sim import Process, request, inline
    from repro.sim import Resource, TokenBucket
    from repro.sim import FairShareLink
"""

from repro.sim.events import AllOf, AnyOf, LazyName, SimEvent, Timeout, render_name
from repro.sim.kernel import FOREVER, Simulator
from repro.sim.links import FairShareLink
from repro.sim.notify import KeyedWatch
from repro.sim.process import Process, inline, request
from repro.sim.resources import Resource, TokenBucket
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "FOREVER",
    "FairShareLink",
    "KeyedWatch",
    "LazyName",
    "Process",
    "Resource",
    "RngRegistry",
    "SimEvent",
    "Simulator",
    "Timeout",
    "TokenBucket",
    "derive_seed",
    "inline",
    "render_name",
    "request",
]
