"""Calibrated workload parameters for the METHCOMP experiments.

Every tunable of the Table 1 reproduction lives here, next to the
rationale for its value.  The cloud-side constants live in
:mod:`repro.cloud.profiles`; these are the *workload-side* throughputs
plus the experiment defaults.

Calibration target (paper, Table 1, 3.5 GB, parallelism 8):

================  ===========  ========
configuration     latency (s)  cost ($)
================  ===========  ========
purely serverless  83.32       0.008
VM-supported      142.77       0.010
================  ===========  ========

README's experiment index and ``benchmarks/results/table1.txt`` record
the measured values of the current calibration.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cloud.profiles import GB, CloudProfile, ibm_us_east
from repro.shuffle.planner import ShuffleCostModel

#: The hybrid variant's VM, the paper's bx2-8x32 (8 vCPUs, 32 GB); the
#: relay substrates reuse it unless ``relay_instance_type`` is set.
VM_INSTANCE_TYPE = "bx2-8x32"
#: Cache cluster node type of the cache-supported variant (supplementary
#: experiment S8; the paper names ElastiCache as the alternative).
CACHE_NODE_TYPE = "cache.r5.large"


@dataclasses.dataclass(slots=True)
class WorkloadParams:
    """Workload-side throughput constants (bytes/s of input, per core).

    Values model native-speed tooling (the paper runs C-grade sort and
    METHCOMP binaries), applied to *logical* bytes.
    """

    #: Mapper-side partitioning pass of the serverless shuffle.
    partition_throughput: float = 115e6
    #: Reducer-side sort of the serverless shuffle.
    sort_throughput: float = 55e6
    #: In-VM parse+sort throughput (per core) for the hybrid variant.
    vm_sort_throughput: float = 65e6
    #: METHCOMP encode stage.
    encode_throughput: float = 25e6
    #: METHCOMP decode (verification stage).
    decode_throughput: float = 40e6
    #: Concurrent range-GETs per reducer.
    fetch_parallelism: int = 4

    def shuffle_cost_model(self) -> ShuffleCostModel:
        return ShuffleCostModel(
            partition_throughput=self.partition_throughput,
            sort_throughput=self.sort_throughput,
            fetch_parallelism=self.fetch_parallelism,
        )


@dataclasses.dataclass(slots=True)
class ExperimentConfig:
    """Defaults reproducing the paper's Table 1 setup."""

    #: Logical dataset size (the paper's ENCFF988BSW is 3.5 GB).
    size_gb: float = 3.5
    #: Parallelism degree ("8 workers" in the paper) for sort and encode.
    parallelism: int = 8
    #: Function memory (the paper allocates 2 GB).
    function_memory_mb: int = 2048
    #: Real bytes = logical / scale; request counts are scale-invariant.
    logical_scale: float = 256.0
    #: Key distribution of the staged dataset: ``"uniform"`` (the
    #: chromosome-weighted methylome, the historical baseline) or one of
    #: the skewed laws in :data:`repro.shuffle.skew.KEY_DISTRIBUTIONS`
    #: (``"zipf"``, ``"heavy-dup"``, ``"sorted-runs"``, ``"late-hot"``)
    #: — experiment S11's hot-partition workloads and S12's
    #: mid-stream-emerging one.
    key_distribution: str = "uniform"
    #: Zipf exponent of the ``"zipf"`` distribution (hotter when larger).
    zipf_s: float = 1.2
    #: Distinct key values of the duplicate-heavy distributions.
    skew_distinct_keys: int = 64
    #: Root seed for data generation and all latency jitter.
    seed: int = 2021
    #: Zero latency jitter (tests); experiments keep jitter on.
    deterministic: bool = False
    #: Relay VM flavour for the relay-supported variant (supplementary
    #: experiment S8's third substrate); ``None`` reuses the hybrid
    #: pipeline's VM flavour — the same machine Table 1 provisions,
    #: repurposed as an in-memory rendezvous.
    relay_instance_type: str | None = None
    #: Shard count of the sharded-relay fleet (experiment S8b); each
    #: shard is one ``resolved_relay_instance_type`` VM.
    relay_shards: int = 2
    workload: WorkloadParams = dataclasses.field(default_factory=WorkloadParams)
    #: Optional hook mutating the profile after calibration (sweeps use
    #: this to perturb a single knob, e.g. the cold-start time).
    profile_mutator: t.Callable[[CloudProfile], None] | None = None

    @property
    def logical_bytes(self) -> float:
        return self.size_gb * GB

    @property
    def real_bytes(self) -> int:
        return int(self.logical_bytes / self.logical_scale)

    @property
    def resolved_relay_instance_type(self) -> str:
        """The configured relay flavour, or the hybrid pipeline's VM."""
        if self.relay_instance_type is not None:
            return self.relay_instance_type
        return VM_INSTANCE_TYPE

    def exchange_resource(self, substrate: str) -> tuple[str | None, int]:
        """``(flavour, count)`` of the resource this config provisions
        for a substrate's sort: the cache node type with the cluster
        sized to fit (count 0), one relay, or ``relay_shards`` of them
        (``(None, 0)``: pay-as-you-go, nothing to size)."""
        return {
            "cache": (CACHE_NODE_TYPE, 0),
            "relay": (self.resolved_relay_instance_type, 1),
            "sharded-relay": (self.resolved_relay_instance_type, self.relay_shards),
        }.get(substrate, (None, 0))

    def make_profile(self) -> CloudProfile:
        """The calibrated cloud profile for this experiment.

        Deviations from the generic :func:`ibm_us_east` defaults, with
        rationale:

        * ``faas.instance_bandwidth`` 44 MB/s — measured IBM CF function
          -to-COS throughput is well below the COS per-connection cap;
        * ``faas.invoke_overhead`` 0.30 s — Lithops adds per-call
          dispatch work (payload upload, API call) on top of the
          platform's scheduling latency;
        * ``vm.boot`` 99 s — Lithops standalone mode pays VM create +
          boot + agent/runtime bootstrap before the first task runs
          (the dominant penalty of the hybrid configuration).
        """
        profile = ibm_us_east(
            logical_scale=self.logical_scale, deterministic=self.deterministic
        )
        profile.faas.instance_bandwidth = 44e6
        profile.faas.invoke_overhead.mean = 0.30
        profile.vm.boot.mean = 99.0
        if self.profile_mutator is not None:
            self.profile_mutator(profile)
        return profile
