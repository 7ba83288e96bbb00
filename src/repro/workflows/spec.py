"""Declarative JSON pipeline specifications.

The paper: "we augmented Lithops with a module to create pipelines from
JSON configuration files".  This module is that feature: a JSON document
describes the DAG, the engine executes it.

Schema::

    {
      "name": "methcomp-pure-serverless",
      "bucket": "pipeline",
      "stages": [
        {"name": "ingest", "kind": "dataset_ref",
         "params": {"key": "input/methylome.bed"}},
        {"name": "sort", "kind": "shuffle_sort", "after": ["ingest"],
         "params": {"workers": 8}},
        {"name": "encode", "kind": "methcomp_encode", "after": ["sort"]}
      ]
    }
"""

from __future__ import annotations

import json

from repro.errors import ConfigError
from repro.workflows.dag import StageSpec, WorkflowDag

_ALLOWED_TOP_KEYS = {"name", "bucket", "stages"}
_ALLOWED_STAGE_KEYS = {"name", "kind", "after", "params"}


def parse_spec(document: str | bytes | dict) -> WorkflowDag:
    """Parse and validate a JSON workflow document into a DAG."""
    if isinstance(document, (str, bytes)):
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid workflow JSON: {exc}") from exc
    else:
        payload = document
    if not isinstance(payload, dict):
        raise ConfigError("workflow document must be a JSON object")

    unknown = set(payload) - _ALLOWED_TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown workflow keys: {sorted(unknown)}")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("workflow 'name' must be a non-empty string")
    bucket = payload.get("bucket", "pipeline")
    if not isinstance(bucket, str) or not bucket:
        raise ConfigError("workflow 'bucket' must be a non-empty string")
    raw_stages = payload.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise ConfigError("workflow 'stages' must be a non-empty list")

    stages = []
    for index, raw in enumerate(raw_stages):
        if not isinstance(raw, dict):
            raise ConfigError(f"stage #{index} must be an object")
        unknown = set(raw) - _ALLOWED_STAGE_KEYS
        if unknown:
            raise ConfigError(f"stage #{index}: unknown keys {sorted(unknown)}")
        stage_name = raw.get("name")
        if not isinstance(stage_name, str) or not stage_name:
            raise ConfigError(f"stage #{index}: 'name' must be a non-empty string")
        kind = raw.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ConfigError(f"stage {stage_name!r}: 'kind' must be a string")
        after = raw.get("after", [])
        if not isinstance(after, list) or not all(isinstance(a, str) for a in after):
            raise ConfigError(f"stage {stage_name!r}: 'after' must be a string list")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"stage {stage_name!r}: 'params' must be an object")
        stages.append(
            StageSpec(name=stage_name, kind=kind, after=tuple(after), params=params)
        )
    return WorkflowDag(name=name, stages=stages, bucket=bucket)


def load_spec_file(path: str) -> WorkflowDag:
    """Parse a workflow spec from a JSON file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read())


def dump_spec(dag: WorkflowDag) -> str:
    """Serialize a DAG back to canonical JSON (round-trippable)."""
    return json.dumps(
        {
            "name": dag.name,
            "bucket": dag.bucket,
            "stages": [
                {
                    "name": stage.name,
                    "kind": stage.kind,
                    "after": list(stage.after),
                    "params": stage.params,
                }
                for stage in dag.stages
            ],
        },
        indent=2,
    )
