"""Capacity sizing of the VM-relay shuffles.

Intermediate partitions rendezvous in the memory of provisioned VMs, so
capacity is the fleet's total memory: a hard feasibility constraint.
:func:`required_relay_instance` picks the smallest single flavour that
fits — the single relay is scale-up only, and past the fattest flavour
it is infeasible; :func:`required_relay_fleet` additionally sizes a
shard count when no single flavour does, budgeting the
:data:`SHARD_IMBALANCE_HEADROOM` the runtime admission check shares.
:func:`relay_configurations` and :func:`fleet_configurations` name the
configurations the substrate selector prices, and
:class:`~repro.shuffle.relay.RelayExchange` /
:class:`~repro.shuffle.relay.ShardedRelayExchange` carry them as their
``configurations``.  What the exchange *costs in time* on a relay or a
fleet is :func:`repro.shuffle.planner.relay_terms`.
"""

from __future__ import annotations

import math

from repro.cloud.profiles import CloudProfile, InstanceType
from repro.errors import ShuffleError

#: Slack multiplier between a fleet's mean per-shard load and what each
#: shard must be able to hold: hash routing never splits perfectly, so
#: sizing (:func:`required_relay_fleet`) and runtime admission
#: (``RelayExchange.validate``) both budget this margin — they must
#: agree, or a planner-sized fleet would be rejected at execution time.
SHARD_IMBALANCE_HEADROOM = 1.3

#: Default fleet limit: the most shards a sized fleet or the selector's
#: priced fleets may have.
MAX_RELAY_SHARDS = 8


def resolve_relay_instance(profile: CloudProfile, type_name: str) -> InstanceType:
    """Look up a relay VM flavour, raising a helpful error when unknown."""
    try:
        return profile.vm.catalog[type_name]
    except KeyError:
        raise ShuffleError(
            f"unknown relay instance type {type_name!r}; available: "
            f"{sorted(profile.vm.catalog)}"
        ) from None


def relay_usable_bytes(profile: CloudProfile, instance_type: InstanceType) -> float:
    """Logical bytes of partitions a relay on this flavour can hold.

    Delegates to :meth:`~repro.cloud.profiles.VmProfile.relay_usable_bytes`
    so planner feasibility and runtime capacity share one formula.
    """
    return profile.vm.relay_usable_bytes(instance_type)


def required_relay_instance(logical_bytes: float, profile: CloudProfile) -> str:
    """Smallest catalog instance whose usable memory holds the shuffle data.

    :data:`SHARD_IMBALANCE_HEADROOM` leaves slack for partition
    imbalance.  The relay is scale-up: when even the fattest flavour
    cannot hold the dataset the substrate is infeasible and this raises
    — the qualitative limit the comparison reports (the cache scales
    out, object storage is unbounded).
    """
    if logical_bytes <= 0:
        raise ShuffleError(f"logical_bytes must be positive, got {logical_bytes}")
    needed = logical_bytes * SHARD_IMBALANCE_HEADROOM
    fitting = [
        instance
        for instance in profile.vm.catalog.values()
        if relay_usable_bytes(profile, instance) >= needed
    ]
    if not fitting:
        largest = max(
            profile.vm.catalog.values(), key=lambda instance: instance.memory_gb
        )
        raise ShuffleError(
            f"no instance type holds {logical_bytes:.0f} logical bytes "
            f"(x{SHARD_IMBALANCE_HEADROOM:.2f} headroom); largest is "
            f"{largest.name} with {largest.memory_gb} GB — the relay "
            "substrate is scale-up only"
        )
    best = min(fitting, key=lambda instance: (instance.memory_gb, instance.name))
    return best.name


def fleet_shards_for(logical_bytes: float, usable: float) -> int:
    """Smallest shard count whose mean shard fits in ``usable``.

    One shard suffices whenever the whole dataset fits with
    :data:`SHARD_IMBALANCE_HEADROOM`; otherwise ``ceil(headroom *
    logical / usable)``.
    """
    headroom = SHARD_IMBALANCE_HEADROOM
    if usable >= headroom * logical_bytes:
        return 1
    return max(1, math.ceil(headroom * logical_bytes / usable))


def required_relay_fleet(
    logical_bytes: float,
    profile: CloudProfile,
    instance_type_name: str | None = None,
    max_shards: int = MAX_RELAY_SHARDS,
) -> tuple[str, int]:
    """Cheapest ``(instance_type, shards)`` whose fleet holds the data.

    With ``instance_type_name`` pinned, returns the smallest shard count
    (``<= max_shards``) of that flavour that fits; otherwise searches
    the catalog for the fleet minimizing total instance-hours (then
    shard count, then name).  Sharding is what makes datasets beyond
    the fattest single flavour feasible on the relay substrate at all —
    when even ``max_shards`` of the fattest flavour cannot hold the data
    this raises, mirroring :func:`required_relay_instance`.
    """
    if logical_bytes <= 0:
        raise ShuffleError(f"logical_bytes must be positive, got {logical_bytes}")
    if max_shards < 1:
        raise ShuffleError(f"max_shards must be >= 1, got {max_shards}")
    if instance_type_name is not None:
        instance = resolve_relay_instance(profile, instance_type_name)
        usable = relay_usable_bytes(profile, instance)
        shards = fleet_shards_for(logical_bytes, usable)
        if shards > max_shards:
            raise ShuffleError(
                f"{logical_bytes:.0f} logical bytes "
                f"(x{SHARD_IMBALANCE_HEADROOM:.2f} headroom) need {shards} shards of "
                f"{instance.name}, beyond the max_shards={max_shards} fleet limit"
            )
        return instance.name, shards
    options: list[tuple[float, int, str]] = []
    for instance in profile.vm.catalog.values():
        usable = relay_usable_bytes(profile, instance)
        shards = fleet_shards_for(logical_bytes, usable)
        if shards <= max_shards:
            options.append((shards * instance.hourly_usd, shards, instance.name))
    if not options:
        largest = max(
            profile.vm.catalog.values(), key=lambda instance: instance.memory_gb
        )
        raise ShuffleError(
            f"no fleet of <= {max_shards} instances holds {logical_bytes:.0f} "
            f"logical bytes (x{SHARD_IMBALANCE_HEADROOM:.2f} headroom); "
            f"largest flavour is {largest.name} with {largest.memory_gb} GB"
        )
    _cost, shards, name = min(options)
    return name, shards


def relay_configurations(
    logical_bytes: float,
    profile: CloudProfile,
    *,
    flavour: str | None = None,
) -> list[tuple[str, int]] | str:
    """The one relay the selector prices: the pinned flavour, or the
    smallest that holds the data — or why none does."""
    if flavour is None:
        try:
            return [(required_relay_instance(logical_bytes, profile), 1)]
        except ShuffleError as exc:
            return str(exc)
    # An explicitly pinned flavour that does not exist is a caller
    # configuration error, not infeasibility — surface it.
    instance_type = resolve_relay_instance(profile, flavour)
    usable = relay_usable_bytes(profile, instance_type)
    if logical_bytes > usable:
        # A real flavour that cannot hold the shuffle is genuine
        # infeasibility (RelayExchange.validate would reject it).
        return (
            f"{logical_bytes:.0f} logical bytes exceed "
            f"{instance_type.name}'s usable relay memory "
            f"({usable:.0f} bytes) — the relay substrate is "
            "scale-up only"
        )
    return [(instance_type.name, 1)]


def fleet_configurations(
    logical_bytes: float,
    profile: CloudProfile,
    *,
    flavour: str | None = None,
) -> list[tuple[str, int]] | str:
    """Every shard count from the smallest fleet that holds the data up
    to :data:`MAX_RELAY_SHARDS` — the selector keeps the best-scoring
    one, which is how aggregate NIC bandwidth is traded against N×
    provisioned cost — or why no fleet holds it."""
    if flavour is not None:
        # Typoed pins are caller errors here too, not infeasibility.
        resolve_relay_instance(profile, flavour)
    try:
        instance_type, min_shards = required_relay_fleet(
            logical_bytes, profile, instance_type_name=flavour
        )
    except ShuffleError as exc:
        return str(exc)
    return [
        (instance_type, shards)
        for shards in range(min_shards, MAX_RELAY_SHARDS + 1)
    ]
