"""The exchange-substrate table: one row per place the all-to-all can happen.

The paper's argument is that *where the exchange happens* is the only
thing that differs between its pipelines.  This module says so in
code: everything a driver needs to run a sort on a substrate by name —
which backend class carries it, how a provisioned resource is sized,
brought up (warm or cold) and released, and what the sort's stage
artifact reports about it — is one
:class:`Substrate` row in :data:`SUBSTRATES`.  The workflow stage
kinds, the sweeps and the online selector enumerate the table instead
of each re-deriving provision → build → run → release; the execution
mode is orthogonal (``stream=`` on the backend).

A provisioned resource is described by a *flavour* (cache node type /
VM instance type) and a *count* (cache nodes / relay shards); a falsy
flavour or a count below 1 asks the row to size that dimension to the
data with the substrate's capacity sizer.  What the exchange costs in
*time* on a substrate is the other table, the cost model's
:data:`repro.shuffle.planner.EXCHANGE_TERMS`.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cloud.vm.fleet import fleet_ready, provision_fleet
from repro.cloud.vm.relay import provision_relay, relay_ready
from repro.shuffle.cacheplanner import required_cache_nodes
from repro.shuffle.exchange import CacheExchange, ExchangeBackend, ObjectStoreExchange
from repro.shuffle.planner import ShuffleCostModel
from repro.shuffle.relay import RelayExchange, ShardedRelayExchange
from repro.shuffle.relayplanner import required_relay_fleet, required_relay_instance
from repro.shuffle.streaming import StreamConfig

#: ``(logical_bytes, profile, flavour, count) -> (flavour, count)``.
Sizer = t.Callable[[float, t.Any, t.Any, int], tuple[t.Any, int]]


def _size_cache(logical_bytes, profile, node_type, nodes):
    if nodes < 1:
        nodes = required_cache_nodes(logical_bytes, profile, node_type)
    return node_type, nodes


def _size_relay(logical_bytes, profile, instance_type, _count):
    return instance_type or required_relay_instance(logical_bytes, profile), 1


def _size_fleet(logical_bytes, profile, instance_type, shards):
    if shards < 1 or not instance_type:
        auto_type, min_shards = required_relay_fleet(
            logical_bytes, profile, instance_type_name=instance_type or None
        )
        instance_type = instance_type or auto_type
        shards = max(shards, min_shards) if shards >= 1 else min_shards
    return instance_type, shards


@dataclasses.dataclass(frozen=True)
class Substrate:
    """One exchange substrate, as a driver sees it."""

    name: str
    backend: type[ExchangeBackend]
    #: Boolean cost-model field a staged sort stage exposes as a stage
    #: param of the same name (reducer-side deletion), if any.
    stage_flag: str | None = None
    #: Stage param naming the flavour, and its default.
    flavour_param: tuple[str, t.Any] | None = None
    #: Stage param naming the count, and its default.
    count_param: tuple[str, int] | None = None
    size: Sizer | None = None
    #: ``(cloud, flavour, count)`` → the running resource, off the clock.
    warm: t.Callable | None = None
    #: ``(cloud, flavour, count)`` → event yielding it once booted.
    cold: t.Callable | None = None
    #: Fleets terminate unconditionally: per-shard termination is
    #: idempotent, and a partially-down fleet must still stop the
    #: surviving shards' clocks.  Single resources only while running.
    terminate_if_down: bool = False
    #: ``(artifact key, report field)`` pairs a staged sort stage adds.
    artifact_extras: tuple[tuple[str, str], ...] = ()

    @property
    def provisioned(self) -> bool:
        """Whether the substrate rides provisioned infrastructure."""
        return self.size is not None

    def provision(
        self,
        cloud,
        logical_bytes: float,
        flavour: t.Any = None,
        count: int = 0,
        cold: bool = False,
    ) -> t.Any:
        """Size (where asked to) and bring up this substrate's resource.

        Returns ``None`` for pay-as-you-go object storage, the running
        resource when warm, and — when ``cold`` — an event the caller
        yields for it, paying creation/boot on the simulated clock.
        Billing starts now either way; pair with :meth:`release`.
        """
        if not self.provisioned:
            return None
        flavour, count = t.cast(Sizer, self.size)(logical_bytes, cloud.profile, flavour, count)
        bring_up = t.cast(t.Callable, self.cold if cold else self.warm)
        return bring_up(cloud, flavour, count)

    def release(self, provisioned: t.Any) -> None:
        """Stop a provisioned resource's billing clocks (idempotent)."""
        if provisioned is None:
            return
        if self.terminate_if_down or provisioned.state == "running":
            provisioned.terminate()

    def make_backend(
        self,
        provisioned: t.Any,
        cost: ShuffleCostModel,
        stream: StreamConfig | None = None,
    ) -> ExchangeBackend:
        """This substrate's backend over ``provisioned`` (``None`` for
        object storage); ``stream`` selects the streaming mode."""
        if not self.provisioned:
            return self.backend(cost=cost, stream=stream)
        return self.backend(provisioned, cost=cost, stream=stream)


_RELAY_ARTIFACT = (
    ("relay_peak_fill", "peak_fill_fraction"),
    ("relay_backpressure_waits", "backpressure_waits"),
)

#: Substrate name → row, in tie-breaking order (simpler infrastructure
#: first — the order of ``EXCHANGE_SUBSTRATES``).
SUBSTRATES: dict[str, Substrate] = {
    row.name: row
    for row in (
        Substrate(
            name="objectstore",
            backend=ObjectStoreExchange,
        ),
        Substrate(
            name="cache",
            backend=CacheExchange,
            stage_flag="cleanup",
            flavour_param=("node_type", "cache.r5.large"),
            count_param=("nodes", 0),
            size=_size_cache,
            warm=lambda cloud, node_type, nodes: cloud.cache.provision_ready(
                node_type, nodes
            ),
            cold=lambda cloud, node_type, nodes: cloud.cache.provision(node_type, nodes),
            artifact_extras=(
                ("cache_nodes", "nodes"),
                ("cache_node_type", "node_type"),
                ("cache_peak_fill", "peak_fill_fraction"),
            ),
        ),
        Substrate(
            name="relay",
            backend=RelayExchange,
            stage_flag="consume",
            flavour_param=("instance_type", None),
            size=_size_relay,
            warm=lambda cloud, instance_type, _: relay_ready(cloud.vms, instance_type),
            cold=lambda cloud, instance_type, _: provision_relay(cloud.vms, instance_type),
            artifact_extras=(("relay_instance_type", "instance_type"), *_RELAY_ARTIFACT),
        ),
        Substrate(
            name="sharded-relay",
            backend=ShardedRelayExchange,
            stage_flag="consume",
            flavour_param=("instance_type", None),
            count_param=("shards", 2),
            size=_size_fleet,
            warm=lambda cloud, instance_type, shards: fleet_ready(
                cloud.vms, instance_type, shards
            ),
            cold=lambda cloud, instance_type, shards: provision_fleet(
                cloud.vms, instance_type, shards
            ),
            terminate_if_down=True,
            artifact_extras=(
                ("relay_instance_type", "instance_type"),
                ("relay_shards", "shards"),
                *_RELAY_ARTIFACT,
            ),
        ),
    )
}

