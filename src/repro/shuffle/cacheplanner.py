"""Capacity sizing of the cache-mediated shuffle.

The cache cluster holds the whole dataset between the map and reduce
waves, so its memory is a hard feasibility constraint — unlike object
storage, which is effectively unbounded (a qualitative difference the
comparison reports).  This module sizes the cluster
(:func:`required_cache_nodes`) and names the configuration the
substrate selector prices (:func:`cache_configurations`, which
:class:`~repro.shuffle.exchange.CacheExchange` carries as its
``configurations``).  What the exchange *costs in time* on a cluster is
:func:`repro.shuffle.planner.cache_terms`.
"""

from __future__ import annotations

from repro.cloud.profiles import CloudProfile
from repro.errors import ShuffleError

#: Slack multiplier between the shuffle data and the cluster memory that
#: must hold it: hash slot routing never splits perfectly.
CACHE_HEADROOM = 1.3


def required_cache_nodes(
    logical_bytes: float,
    profile: CloudProfile,
    node_type_name: str,
) -> int:
    """Smallest node count whose usable memory holds the shuffle data.

    :data:`CACHE_HEADROOM` leaves slack for sharding imbalance; the
    whole dataset sits in the cache between the map and reduce waves, so
    capacity is a hard feasibility constraint (unlike object storage, which is
    effectively unbounded — a qualitative difference the comparison
    reports).
    """
    if logical_bytes <= 0:
        raise ShuffleError(f"logical_bytes must be positive, got {logical_bytes}")
    try:
        node_type = profile.memstore.catalog[node_type_name]
    except KeyError:
        raise ShuffleError(
            f"unknown cache node type {node_type_name!r}; available: "
            f"{sorted(profile.memstore.catalog)}"
        ) from None
    per_node = (
        node_type.memory_gb
        * (1 << 30)
        * profile.memstore.usable_memory_fraction
    )
    if per_node >= logical_bytes * CACHE_HEADROOM:
        return 1
    needed = logical_bytes * CACHE_HEADROOM
    return max(1, -(-int(needed) // int(per_node)))


def cache_configurations(
    logical_bytes: float,
    profile: CloudProfile,
    *,
    flavour: str = "cache.r5.large",
) -> list[tuple[str, int]]:
    """The one cluster the selector prices: ``flavour`` nodes, as many
    as hold the data (a cache scales out, so it always can)."""
    nodes = required_cache_nodes(logical_bytes, profile, flavour)
    return [(flavour, nodes)]
