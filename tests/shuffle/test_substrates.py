"""A substrate sizes what it provisions with its own ``configurations``.

Every backend class of :data:`~repro.shuffle.SUBSTRATES` is the one
definition of its substrate, so there is one capacity sizer per
substrate: an unpinned dimension is the first (smallest) configuration
the selector would price at partition skew 1.0 and the default fleet
limit, and a pinned one passes through untouched.
"""

from __future__ import annotations

import re

import pytest

from repro.cloud import Cloud
from repro.cloud.profiles import GB, ibm_us_east
from repro.errors import ShuffleError
from repro.shuffle import SUBSTRATES, ShuffleCostModel

PROFILE = ibm_us_east(deterministic=True)
SIZES_GB = (0.1, 1.0, 3.5, 14.0, 40.0, 200.0, 2000.0)

#: Substrate → the flavours it is sized under with its count unpinned:
#: the cache always names its node type; a single relay has no count,
#: so only its flavour can be left to size.
FLAVOURS = {
    "objectstore": (None,),
    "cache": ("cache.r5.large", "cache.r5.4xlarge"),
    "relay": (None,),
    "sharded-relay": (None, "bx2-2x8", "bx2-8x32"),
}

#: Pinned ``(flavour, count)`` per provisioned substrate.
PINS = {
    "cache": ("cache.r5.large", 3),
    "relay": ("bx2-2x8", 1),
    "sharded-relay": ("bx2-2x8", 5),
}


def fresh_cloud() -> Cloud:
    return Cloud.fresh(seed=1, profile=PROFILE)


def first_configuration(backend_class, logical_bytes: float, flavour):
    """What the selector would price first for this substrate."""
    return backend_class.configurations(
        logical_bytes, PROFILE, ShuffleCostModel(), 1.0,
        cache_node_type=flavour,
        relay_instance_type=flavour,
        max_relay_shards=8,
    )


def provisioned_configuration(backend_class, cloud, logical_bytes, flavour, count):
    resource = backend_class.provision(cloud, logical_bytes, flavour, count)
    try:
        return backend_class.make_backend(resource, ShuffleCostModel()).configuration
    finally:
        backend_class.release(resource)


def nothing_provisioned(cloud) -> bool:
    return not cloud.vms.instances and not cloud.cache.clusters


def test_flavour_grid_covers_every_substrate():
    assert set(FLAVOURS) == set(SUBSTRATES)


@pytest.mark.parametrize("size_gb", SIZES_GB)
@pytest.mark.parametrize(
    "name, flavour",
    [(name, flavour) for name in SUBSTRATES for flavour in FLAVOURS[name]],
)
def test_unpinned_size_is_the_first_configuration(name, flavour, size_gb):
    backend_class = SUBSTRATES[name]
    cloud = fresh_cloud()
    logical = size_gb * GB
    if not backend_class.provisioned:
        assert backend_class.provision(cloud, logical, flavour, 0) is None
        assert nothing_provisioned(cloud)
        return
    expected = first_configuration(backend_class, logical, flavour)
    if isinstance(expected, str):
        with pytest.raises(ShuffleError, match=re.escape(expected)):
            backend_class.provision(cloud, logical, flavour, 0)
        assert nothing_provisioned(cloud)
        return
    got = provisioned_configuration(backend_class, cloud, logical, flavour, 0)
    assert got == expected[0]


@pytest.mark.parametrize("size_gb", SIZES_GB)
@pytest.mark.parametrize("name", list(PINS))
def test_pins_pass_through(name, size_gb):
    backend_class = SUBSTRATES[name]
    flavour, count = PINS[name]
    got = provisioned_configuration(
        backend_class, fresh_cloud(), size_gb * GB, flavour, count
    )
    assert got == (flavour, count)


@pytest.mark.parametrize("size_gb", (1.0, 40.0, 200.0))
@pytest.mark.parametrize("count", (1, 3, 8))
def test_fleet_keeps_at_least_the_sized_shards_under_a_pinned_count(size_gb, count):
    """An auto-sized flavour with a pinned shard count keeps
    ``max(count, the first configuration's shards)``."""
    fleet = SUBSTRATES["sharded-relay"]
    logical = size_gb * GB
    auto_flavour, min_shards = first_configuration(fleet, logical, None)[0]
    got = provisioned_configuration(fleet, fresh_cloud(), logical, None, count)
    assert got == (auto_flavour, max(count, min_shards))
