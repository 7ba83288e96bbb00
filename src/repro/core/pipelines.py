"""The METHCOMP pipeline incarnations (paper Figure 1, plus three).

* **Configuration B — purely serverless**: sort via the Primula shuffle
  through object storage, encode with cloud functions.
* **Configuration A — VM-supported (hybrid)**: sort inside a bx2-8x32
  VM, encode with cloud functions.
* **Configuration C — cache-supported** (supplementary, experiment S8):
  sort with cloud functions exchanging partitions through an in-memory
  cache cluster — the ElastiCache alternative the paper names.
* **Configuration D — relay-supported** (supplementary, experiment S8):
  sort with cloud functions exchanging partitions through an in-memory
  relay hosted on a provisioned VM — the VM-driven exchange of the
  title, with functions doing the compute.
* **Auto — adaptive substrate**: the sort stage picks its exchange
  substrate at execution time via ``choose_exchange_substrate`` and
  records the decision in the stage report.

All take their input from a pre-staged object (``dataset_ref``), as in
the paper's demo where ENCFF988BSW already sits in COS, and all write
their sorted runs and compressed blocks to object storage.  They
differ *only* in the sort stage, so the module is one builder,
:func:`pipeline_for`, over a ``variant → (sort kind, params(config))``
table.
"""

from __future__ import annotations

import typing as t

from repro.core.calibration import (
    CACHE_NODE_TYPE,
    VM_INSTANCE_TYPE,
    ExperimentConfig,
)
from repro.shuffle.substrates import SUBSTRATES
from repro.workflows.dag import StageSpec, WorkflowDag

#: Names shared by all incarnations so reports line up.
INGEST_STAGE = "ingest"
SORT_STAGE = "sort"
ENCODE_STAGE = "encode"
VERIFY_STAGE = "verify"

PURE_SERVERLESS = "purely-serverless"
VM_SUPPORTED = "vm-supported"
CACHE_SUPPORTED = "cache-supported"
RELAY_SUPPORTED = "relay-supported"
AUTO_SUPPORTED = "auto-supported"


def _function_sort_params(config: ExperimentConfig) -> dict:
    """Sort params every function-driven incarnation shares."""
    return {
        "workers": config.parallelism,
        "memory_mb": config.function_memory_mb,
        "max_workers": 256,
    }


def _substrate_params(config: ExperimentConfig, substrate: str) -> dict:
    """The sort params sizing and provisioning ``substrate``'s resource,
    named by its backend class: none for pay-as-you-go object storage."""
    backend_class = SUBSTRATES[substrate]
    if not backend_class.provisioned:
        return {}
    flavour, count = config.exchange_resource(substrate)
    params = {}
    if backend_class.flavour_param:
        params[backend_class.flavour_param[0]] = flavour
    if backend_class.count_param:
        params[backend_class.count_param[0]] = count
    params["provisioning"] = "warm"
    return params


def _staged(kind: str, substrate: str) -> tuple[str, t.Callable]:
    return kind, lambda config: {
        **_function_sort_params(config),
        **_substrate_params(config, substrate),
    }


#: Variant → (sort stage kind, params(config)).  Everything else about
#: an incarnation — ingest, encode, optional verify — is shared.
_VARIANTS: dict[str, tuple[str, t.Callable[[ExperimentConfig], dict]]] = {
    PURE_SERVERLESS: _staged("shuffle_sort", "objectstore"),
    VM_SUPPORTED: (
        "vm_sort",
        lambda config: {
            "instance_type": VM_INSTANCE_TYPE,
            "partitions": config.parallelism,
        },
    ),
    CACHE_SUPPORTED: _staged("cache_sort", "cache"),
    RELAY_SUPPORTED: _staged("relay_sort", "relay"),
    AUTO_SUPPORTED: (
        "auto_sort",
        lambda config: {
            **_function_sort_params(config),
            "time_value_usd_per_hour": 1.0,
            "cache_node_type": CACHE_NODE_TYPE,
        },
    ),
}


def pipeline_for(
    variant: str,
    config: ExperimentConfig,
    input_key: str = "input/methylome.bed",
    bucket: str = "pipeline",
    verify: bool = False,
) -> WorkflowDag:
    """Build any incarnation by name: ingest → sort → encode (→ verify)."""
    try:
        sort_kind, sort_params = _VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {sorted(_VARIANTS)}"
        ) from None
    encode_params = {"memory_mb": config.function_memory_mb}
    stages = [
        StageSpec(INGEST_STAGE, "dataset_ref", params={"key": input_key}),
        StageSpec(
            SORT_STAGE, sort_kind, after=(INGEST_STAGE,), params=sort_params(config)
        ),
        StageSpec(
            ENCODE_STAGE, "methcomp_encode", after=(SORT_STAGE,), params=encode_params
        ),
    ]
    if verify:
        stages.append(
            StageSpec(
                VERIFY_STAGE,
                "methcomp_verify",
                after=(ENCODE_STAGE,),
                params=dict(encode_params),
            )
        )
    return WorkflowDag(variant, stages, bucket=bucket)
