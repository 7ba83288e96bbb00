"""Primula-like shuffle/sort over pluggable substrates.

One operator, :class:`ShuffleSort`, drives one
:class:`~repro.shuffle.exchange.ExchangeBackend`.  Four substrates
ship, one backend class each — object storage
(:class:`ObjectStoreExchange`, the paper's serverless default), an
in-memory cache cluster (:class:`CacheExchange`), a VM-hosted partition
relay (:class:`RelayExchange`) and a sharded multi-relay fleet
(:class:`ShardedRelayExchange`) — mapped by name in :data:`SUBSTRATES`.
Each class is the whole definition of its substrate: worker stages,
provisioning lifecycle, and its rows of the cost model.  The execution
mode is a field: build any backend with ``stream=StreamConfig(...)``
and the reduce wave overlaps the map wave.  One analytic cost model
(:func:`predict_shuffle_time`, :func:`plan_shuffle`) prices all of them
through each class's :class:`ExchangeTerms` builder
(:func:`exchange_terms` resolves one by name);
:func:`choose_exchange_substrate` walks :data:`SUBSTRATES` to pick
substrate — and mode — analytically, and :class:`OnlineShuffleSort`
keeps re-picking mid-stream.
"""

from repro.shuffle.adaptive import (
    EXCHANGE_MODES,
    EXCHANGE_SUBSTRATES,
    DecisionPoint,
    DecisionTimeline,
    OnlineTuner,
    ProbeReport,
    StreamRateSample,
    SubstrateDecision,
    SubstrateEstimate,
    choose_exchange_substrate,
    fit_profile,
    fit_stream_profiles,
)
from repro.shuffle.cacheplanner import required_cache_nodes
from repro.shuffle.cachestages import cache_shuffle_mapper, cache_shuffle_reducer
from repro.shuffle.kernels import (
    DecimalFieldKeySpec,
    KernelFallback,
    KeySpec,
    PartitionOutcome,
    PrefixKeySpec,
    SortOutcome,
    kernel_report_extras,
    partition_buffer,
    record_view,
    sort_buffer,
    window_keys,
)
from repro.shuffle.exchange import (
    CacheExchange,
    ExchangeBackend,
    ExchangeReport,
    ObjectStoreExchange,
)
from repro.shuffle.online import OnlineShuffleSort
from repro.shuffle.operator import ShuffleResult, ShuffleSort, SortedRun
from repro.shuffle.planner import (
    ExchangeTerms,
    PlanPoint,
    ShuffleCostModel,
    ShufflePlan,
    plan_shuffle,
    predict_shuffle_time,
    predict_streaming_shuffle_time,
    streaming_chunk_count,
)
from repro.shuffle.records import FixedWidthCodec, LineRecordCodec, RecordCodec
from repro.shuffle.relay import (
    PartitionLoadRouter,
    RelayExchange,
    ShardedRelayExchange,
    build_rebalance_assignments,
    relay_shuffle_mapper,
    relay_shuffle_reducer,
)
from repro.shuffle.relayplanner import (
    relay_usable_bytes,
    required_relay_fleet,
    required_relay_instance,
    resolve_relay_instance,
)
from repro.shuffle.sampler import (
    choose_boundaries,
    choose_weighted_boundaries,
    estimate_partition_weights,
    partition_index,
    partition_skew_of,
    reservoir_sample,
)
from repro.shuffle.skew import (
    KEY_DISTRIBUTIONS,
    SkewSpec,
    skewed_fixed_payload,
    skewed_keys,
    zipf_weights,
)
from repro.shuffle.streaming import (
    StreamConfig,
    streaming_shuffle_mapper,
    streaming_shuffle_reducer,
)
from repro.shuffle.stages import (
    kv_partition_key,
    shuffle_mapper,
    shuffle_reducer,
    shuffle_sampler,
)
from repro.shuffle.substrates import SUBSTRATES, exchange_terms

__all__ = [
    "CacheExchange",
    "EXCHANGE_MODES",
    "EXCHANGE_SUBSTRATES",
    "ExchangeTerms",
    "exchange_terms",
    "KEY_DISTRIBUTIONS",
    "SUBSTRATES",
    "SkewSpec",
    "StreamConfig",
    "ExchangeBackend",
    "ExchangeReport",
    "ObjectStoreExchange",
    "DecisionPoint",
    "DecisionTimeline",
    "OnlineShuffleSort",
    "OnlineTuner",
    "StreamRateSample",
    "PartitionLoadRouter",
    "ProbeReport",
    "RelayExchange",
    "ShardedRelayExchange",
    "SubstrateDecision",
    "SubstrateEstimate",
    "build_rebalance_assignments",
    "choose_exchange_substrate",
    "fit_profile",
    "fit_stream_profiles",
    "relay_shuffle_mapper",
    "relay_shuffle_reducer",
    "relay_usable_bytes",
    "required_relay_fleet",
    "required_relay_instance",
    "resolve_relay_instance",
    "kv_partition_key",
    "cache_shuffle_mapper",
    "cache_shuffle_reducer",
    "required_cache_nodes",
    "DecimalFieldKeySpec",
    "FixedWidthCodec",
    "KernelFallback",
    "KeySpec",
    "LineRecordCodec",
    "PartitionOutcome",
    "PrefixKeySpec",
    "SortOutcome",
    "kernel_report_extras",
    "partition_buffer",
    "record_view",
    "sort_buffer",
    "window_keys",
    "PlanPoint",
    "RecordCodec",
    "ShuffleCostModel",
    "ShufflePlan",
    "ShuffleResult",
    "ShuffleSort",
    "SortedRun",
    "choose_boundaries",
    "choose_weighted_boundaries",
    "estimate_partition_weights",
    "partition_index",
    "partition_skew_of",
    "plan_shuffle",
    "predict_shuffle_time",
    "predict_streaming_shuffle_time",
    "reservoir_sample",
    "skewed_fixed_payload",
    "skewed_keys",
    "zipf_weights",
    "shuffle_mapper",
    "shuffle_reducer",
    "shuffle_sampler",
    "streaming_chunk_count",
    "streaming_shuffle_mapper",
    "streaming_shuffle_reducer",
]
