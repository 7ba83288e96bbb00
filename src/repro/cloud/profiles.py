"""Calibrated performance/pricing profiles for the simulated cloud.

A :class:`CloudProfile` bundles every tunable constant of the simulated
region: object-storage latency/throughput/pricing, FaaS startup and
billing, VM catalog behaviour.  The defaults (:func:`ibm_us_east`) are
calibrated to public IBM Cloud characteristics circa 2021 — the setting
of the paper — and validated against its Table 1 (see README's
experiment index and ``benchmarks/results/table1.txt``).

Everything is a plain frozen-ish dataclass; experiments tweak profiles
with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclasses.dataclass(slots=True)
class LatencyModel:
    """Lognormal latency with a deterministic fallback.

    ``mean`` is the arithmetic mean in seconds, ``sigma`` the lognormal
    shape parameter; ``sigma=0`` makes the latency deterministic, which
    tests use for exact assertions.
    """

    mean: float
    sigma: float = 0.35

    def sample(self, rng) -> float:
        """Draw one latency value (seconds)."""
        if self.mean < 0:
            raise ConfigError(f"latency mean must be >= 0, got {self.mean}")
        if self.sigma <= 0:
            return self.mean
        # Parameterize so the arithmetic mean equals ``mean``:
        # mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
        mu = math.log(self.mean) - (self.sigma**2) / 2.0
        return rng.lognormvariate(mu, self.sigma)


@dataclasses.dataclass(slots=True)
class ObjectStoreProfile:
    """Model parameters for the COS-like object store."""

    #: First-byte latency for reads (GET/HEAD/LIST).
    read_latency: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.025)
    )
    #: First-byte latency for writes (PUT/DELETE).
    write_latency: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.045)
    )
    #: Per-connection streaming bandwidth (bytes/s).
    per_connection_bandwidth: float = 95.0 * MB
    #: Aggregate account bandwidth (bytes/s) — the "huge aggregated
    #: bandwidth" of the paper; shared max-min across all connections.
    aggregate_bandwidth: float = 12.0 * GB
    #: Sustained request rate before throttling kicks in (requests/s).
    ops_per_second: float = 3000.0
    #: Burst allowance (requests) above the sustained rate.
    ops_burst: float = 3000.0
    #: When a request would wait longer than this for rate-limit tokens,
    #: the store fails it with ``SlowDown`` (clients then back off and
    #: retry).  ``None`` disables explicit throttling errors.
    slowdown_after_s: float | None = 30.0
    #: Class A request price (PUT/COPY/LIST/DELETE), per request.
    class_a_price_usd: float = 0.005 / 1000.0
    #: Class B request price (GET/HEAD), per request.
    class_b_price_usd: float = 0.0004 / 1000.0
    #: Price per stored GB-hour (from $0.0223/GB-month).
    storage_gb_hour_usd: float = 0.0223 / (30 * 24)


@dataclasses.dataclass(slots=True)
class FaasProfile:
    """Model parameters for the serverless functions platform."""

    #: Cold-start delay (container provision + runtime init).
    cold_start: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.55, 0.25)
    )
    #: Warm-start dispatch delay.
    warm_start: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.025, 0.2)
    )
    #: Control-plane overhead per invocation (scheduling, HTTP).
    invoke_overhead: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.06, 0.3)
    )
    #: Idle container keep-alive before eviction (seconds).
    keep_alive_s: float = 600.0
    #: Account-wide concurrent executions limit.
    account_concurrency: int = 1000
    #: Memory size granting a full vCPU (IBM CF scales CPU with memory).
    cpu_full_share_mb: int = 2048
    #: Per-function-instance network bandwidth to storage (bytes/s).
    instance_bandwidth: float = 85.0 * MB
    #: Price per GB-second of execution.
    gb_second_usd: float = 0.000017
    #: Billing granularity (seconds); durations round up to a multiple.
    billing_granularity_s: float = 0.1
    #: Default function timeout (seconds).
    default_timeout_s: float = 600.0


@dataclasses.dataclass(frozen=True, slots=True)
class InstanceType:
    """One VM flavour in the catalog."""

    name: str
    vcpus: int
    memory_gb: int
    nic_bandwidth: float  # bytes/s
    hourly_usd: float

    @property
    def per_second_usd(self) -> float:
        return self.hourly_usd / 3600.0


def _bx2(name: str, vcpus: int, memory_gb: int, hourly_usd: float) -> InstanceType:
    # IBM VPC gen2: ~2 Gbps of NIC bandwidth per vCPU, capped at 16 Gbps
    # for this size range.
    nic_gbps = min(2 * vcpus, 16)
    return InstanceType(name, vcpus, memory_gb, nic_gbps * GB / 8, hourly_usd)


#: IBM VPC bx2 (balanced) instance family, us-east on-demand pricing (2021).
BX2_CATALOG: dict[str, InstanceType] = {
    instance.name: instance
    for instance in (
        _bx2("bx2-2x8", 2, 8, 0.096),
        _bx2("bx2-4x16", 4, 16, 0.192),
        _bx2("bx2-8x32", 8, 32, 0.384),
        _bx2("bx2-16x64", 16, 64, 0.768),
        _bx2("bx2-32x128", 32, 128, 1.536),
        _bx2("bx2-48x192", 48, 192, 2.304),
    )
}


@dataclasses.dataclass(slots=True)
class VmProfile:
    """Model parameters for the VM (virtual server instance) service."""

    #: Provision + boot + agent-ready time.  The paper's end-to-end
    #: latencies include startup, and Lithops standalone mode must wait
    #: for the VM to accept work.
    boot: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(52.0, 0.10)
    )
    #: Per-vCPU sustained processing bonus vs a 2048 MB function (1.0 =
    #: identical per-core speed).
    relative_core_speed: float = 1.0
    #: Boot volume size charged while the instance runs (GB).
    boot_volume_gb: float = 100.0
    #: Block storage price per GB-hour (from ~$0.13/GB-month tiered).
    volume_gb_hour_usd: float = 0.13 / (30 * 24)
    #: Minimum billed runtime (seconds).
    minimum_billed_s: float = 60.0
    #: Available instance catalog.
    catalog: dict[str, InstanceType] = dataclasses.field(
        default_factory=lambda: dict(BX2_CATALOG)
    )
    #: Request latency of the in-memory partition relay software a VM can
    #: host (one in-VPC TCP round trip plus dispatch; functions and the
    #: relay share a zone, so this sits between the cache's sub-ms and
    #: the object store's tens of ms).
    relay_request_latency: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.0005, 0.25)
    )
    #: Sustained request rate of one relay server (requests/s).  A
    #: single-purpose in-memory server saturates its NIC long before its
    #: request loop, so this is generously above the cache's per-node
    #: ceiling.
    relay_ops_per_second: float = 150_000.0
    #: Burst allowance (requests) above the sustained relay rate.
    relay_ops_burst: float = 50_000.0
    #: Fraction of instance memory the relay may fill with partitions
    #: (the rest is OS + runtime overhead).
    relay_usable_memory_fraction: float = 0.85

    def relay_usable_bytes(self, instance_type: InstanceType) -> float:
        """Logical bytes of partitions a relay on ``instance_type`` holds.

        The single source of this formula: the runtime capacity
        (:class:`~repro.cloud.vm.relay.PartitionRelay`) and the planner
        feasibility checks must never disagree on it.
        """
        return instance_type.memory_gb * GB * self.relay_usable_memory_fraction


@dataclasses.dataclass(frozen=True, slots=True)
class CacheNodeType:
    """One cache-cluster node flavour in the catalog."""

    name: str
    memory_gb: float
    nic_bandwidth: float  # bytes/s
    hourly_usd: float

    @property
    def per_second_usd(self) -> float:
        return self.hourly_usd / 3600.0


def _r5(name: str, memory_gb: float, nic_gbps: float, hourly_usd: float) -> CacheNodeType:
    return CacheNodeType(name, memory_gb, nic_gbps * GB / 8, hourly_usd)


#: ElastiCache-for-Redis r5 node family, us-east on-demand pricing (2021).
#: The paper names AWS ElastiCache as the faster-but-costlier alternative
#: to object storage; this catalog backs the third data-exchange strategy.
CACHE_R5_CATALOG: dict[str, CacheNodeType] = {
    node.name: node
    for node in (
        _r5("cache.r5.large", 13.07, 6.0, 0.216),
        _r5("cache.r5.xlarge", 26.32, 10.0, 0.431),
        _r5("cache.r5.2xlarge", 52.26, 10.0, 0.862),
        _r5("cache.r5.4xlarge", 105.81, 10.0, 1.724),
    )
}

@dataclasses.dataclass(slots=True)
class MemStoreProfile:
    """Model parameters for the in-memory key-value store (cache) service.

    Calibrated to AWS ElastiCache for Redis: sub-millisecond request
    latency, ~100 k ops/s per node, node-hour pricing — the opposite
    trade-off from object storage on every axis the paper discusses.
    A full node refuses writes (Redis ``noeviction``): silently dropping
    a shuffle partition would corrupt the sort.
    """

    #: Request latency for reads (GET and the per-batch cost of MGET).
    read_latency: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.0008, 0.25)
    )
    #: Request latency for writes (SET / per-batch MSET / DELETE).
    write_latency: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(0.0009, 0.25)
    )
    #: Per-connection streaming bandwidth (bytes/s).
    per_connection_bandwidth: float = 300.0 * MB
    #: Sustained request rate per node (requests/s).
    ops_per_node: float = 90_000.0
    #: Burst allowance (requests) above the sustained per-node rate.
    ops_burst: float = 30_000.0
    #: Fraction of node memory usable for data (rest is Redis overhead).
    usable_memory_fraction: float = 0.8
    #: Cluster creation latency.  ElastiCache clusters take minutes to
    #: come up — the "always-on" argument cuts the other way here, so
    #: experiments provision the cluster off the clock (warm mode) and
    #: expose cold provisioning as an ablation.
    provision: LatencyModel = dataclasses.field(
        default_factory=lambda: LatencyModel(180.0, 0.15)
    )
    #: Minimum billed node runtime (seconds).
    minimum_billed_s: float = 60.0
    #: Available node catalog.
    catalog: dict[str, CacheNodeType] = dataclasses.field(
        default_factory=lambda: dict(CACHE_R5_CATALOG)
    )


@dataclasses.dataclass(slots=True)
class CloudProfile:
    """Everything the simulated region needs to know."""

    region: str = "us-east"
    objectstore: ObjectStoreProfile = dataclasses.field(
        default_factory=ObjectStoreProfile
    )
    faas: FaasProfile = dataclasses.field(default_factory=FaasProfile)
    vm: VmProfile = dataclasses.field(default_factory=VmProfile)
    memstore: MemStoreProfile = dataclasses.field(default_factory=MemStoreProfile)
    #: Real-to-logical byte multiplier.  Experiments generate
    #: ``logical_size / logical_scale`` real bytes; the store and compute
    #: models charge time for ``real * logical_scale`` bytes.  Request
    #: *counts* are unaffected, preserving ops/s effects.
    logical_scale: float = 1.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on nonsensical parameters."""
        if self.logical_scale <= 0:
            raise ConfigError("logical_scale must be positive")
        if self.objectstore.ops_per_second <= 0:
            raise ConfigError("objectstore.ops_per_second must be positive")
        if self.faas.account_concurrency < 1:
            raise ConfigError("faas.account_concurrency must be >= 1")
        if not self.vm.catalog:
            raise ConfigError("vm.catalog must not be empty")
        if self.vm.relay_ops_per_second <= 0:
            raise ConfigError("vm.relay_ops_per_second must be positive")
        if self.vm.relay_ops_burst < 1:
            raise ConfigError(
                "vm.relay_ops_burst must be >= 1 (single requests must "
                "fit the burst bucket)"
            )
        if not 0 < self.vm.relay_usable_memory_fraction <= 1:
            raise ConfigError(
                "vm.relay_usable_memory_fraction must be in (0, 1]"
            )
        if self.memstore.ops_per_node <= 0:
            raise ConfigError("memstore.ops_per_node must be positive")
        if not 0 < self.memstore.usable_memory_fraction <= 1:
            raise ConfigError("memstore.usable_memory_fraction must be in (0, 1]")
        if not self.memstore.catalog:
            raise ConfigError("memstore.catalog must not be empty")


def ibm_us_east(logical_scale: float = 1.0, deterministic: bool = False) -> CloudProfile:
    """The calibrated profile used by the paper reproduction.

    Parameters
    ----------
    logical_scale:
        See :attr:`CloudProfile.logical_scale`.
    deterministic:
        Zero out all latency jitter (``sigma = 0``); used by tests that
        assert exact timings.
    """
    profile = CloudProfile(region="us-east", logical_scale=logical_scale)
    if deterministic:
        _zero_jitter(profile)
    profile.validate()
    return profile


def _zero_jitter(profile: CloudProfile) -> None:
    """Make every latency model deterministic (``sigma = 0``)."""
    for latency in (
        profile.objectstore.read_latency,
        profile.objectstore.write_latency,
        profile.faas.cold_start,
        profile.faas.warm_start,
        profile.faas.invoke_overhead,
        profile.vm.boot,
        profile.vm.relay_request_latency,
        profile.memstore.read_latency,
        profile.memstore.write_latency,
        profile.memstore.provision,
    ):
        latency.sigma = 0.0
