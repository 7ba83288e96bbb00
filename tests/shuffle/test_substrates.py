"""A substrate sizes what it provisions with its own ``configurations``.

Every backend class of :data:`~repro.shuffle.SUBSTRATES` is the one
definition of its substrate, so there is one capacity sizer per
substrate: an unpinned dimension is the first (smallest) configuration
the selector would price, and a pinned one passes through untouched.
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
    return backend_class.configurations(logical_bytes, PROFILE, flavour=flavour)


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


@pytest.mark.parametrize(
    "name", [name for name, backend_class in SUBSTRATES.items() if backend_class.provisioned]
)
def test_provision_without_a_flavour_brings_up_the_default(name):
    """Neither flavour nor count: the class's ``flavour_param`` default
    (sized itself where that is ``None``) at the first configuration's
    count, running."""
    backend_class = SUBSTRATES[name]
    cloud = fresh_cloud()
    logical = 3.5 * GB
    resource = backend_class.provision(cloud, logical)
    try:
        assert resource.state == "running"
        got = backend_class.make_backend(resource, ShuffleCostModel()).configuration
    finally:
        backend_class.release(resource)
    default = backend_class.flavour_param[1]
    assert got == first_configuration(backend_class, logical, default)[0]


@pytest.mark.parametrize("name", ["relay", "sharded-relay"])
def test_a_pinned_relay_flavour_is_priced_or_refused(name):
    """A pinned flavour that holds the data is the one priced; one too
    small for a single relay is infeasible, a reason rather than a
    configuration; a typo is the caller's error and raises."""
    backend_class = SUBSTRATES[name]
    assert backend_class.configurations(
        3.5 * GB, PROFILE, flavour="bx2-48x192"
    )[0] == ("bx2-48x192", 1)
    too_small = backend_class.configurations(14.0 * GB, PROFILE, flavour="bx2-2x8")
    if name == "relay":
        assert isinstance(too_small, str) and "bx2-2x8" in too_small
    else:
        assert too_small[0][0] == "bx2-2x8" and too_small[0][1] > 1
    with pytest.raises(ShuffleError, match="unknown relay instance type"):
        backend_class.configurations(3.5 * GB, PROFILE, flavour="bx2_48x192")


@pytest.mark.parametrize("name", list(SUBSTRATES))
def test_size_to_fit_without_a_flavour_is_the_default_first_configuration(name):
    """Sizing with nothing pinned takes the ``flavour_param`` default
    where the class has one, and no flavour where it has none (object
    storage), then the first configuration at that flavour."""
    backend_class = SUBSTRATES[name]
    logical = 3.5 * GB
    default = backend_class.flavour_param[1] if backend_class.flavour_param else None
    expected = first_configuration(backend_class, logical, default)[0]
    assert backend_class.size_to_fit(logical, PROFILE) == expected
