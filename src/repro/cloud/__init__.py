"""Simulated cloud substrate: object storage, FaaS, VMs, billing.

The substitution for the paper's IBM Cloud account: calibrated
performance/pricing models over the deterministic simulation kernel in
:mod:`repro.sim`.
"""

from repro.cloud.billing import CostLine, CostMeter
from repro.cloud.environment import Cloud
from repro.cloud.profiles import (
    BX2_CATALOG,
    CACHE_R5_CATALOG,
    GB,
    KB,
    MB,
    CacheNodeType,
    CloudProfile,
    FaasProfile,
    InstanceType,
    LatencyModel,
    MemStoreProfile,
    ObjectStoreProfile,
    VmProfile,
    ibm_us_east,
)
from repro.cloud.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.cloud.storageview import BoundStorage

__all__ = [
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
    "MB",
    "MemStoreProfile",
    "ObjectStoreProfile",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "VmProfile",
    "ibm_us_east",
]
