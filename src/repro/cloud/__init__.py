"""Simulated cloud substrate: object storage, FaaS, VMs, billing.

The substitution for the paper's IBM Cloud account: calibrated
performance/pricing models over the deterministic simulation kernel in
:mod:`repro.sim`.
"""

from repro.cloud.billing import CostLine, CostMeter
from repro.cloud.environment import Cloud
from repro.cloud.profiles import (
    ALLKEYS_LRU,
    BX2_CATALOG,
    CACHE_R5_CATALOG,
    M5_CATALOG,
    PROVIDER_PROFILES,
    GB,
    KB,
    MB,
    NOEVICTION,
    CacheNodeType,
    CloudProfile,
    FaasProfile,
    InstanceType,
    LatencyModel,
    MemStoreProfile,
    ObjectStoreProfile,
    VmProfile,
    aws_us_east,
    ibm_us_east,
    profile_named,
)
from repro.cloud.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.cloud.storageview import BoundStorage

__all__ = [
    "ALLKEYS_LRU",
    "BX2_CATALOG",
    "BoundStorage",
    "CACHE_R5_CATALOG",
    "CacheNodeType",
    "Cloud",
    "CloudProfile",
    "CostLine",
    "CostMeter",
    "FaasProfile",
    "GB",
    "InstanceType",
    "KB",
    "LatencyModel",
    "M5_CATALOG",
    "MB",
    "MemStoreProfile",
    "NOEVICTION",
    "ObjectStoreProfile",
    "PROVIDER_PROFILES",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "VmProfile",
    "aws_us_east",
    "ibm_us_east",
    "profile_named",
]
