"""Tests for the declarative JSON workflow specifications."""

import json

import pytest

from repro.errors import ConfigError
from repro.workflows import parse_spec

VALID = {
    "name": "demo",
    "bucket": "pipeline",
    "stages": [
        {"name": "ingest", "kind": "dataset_ref", "params": {"key": "in.bed"}},
        {"name": "sort", "kind": "shuffle_sort", "after": ["ingest"],
         "params": {"workers": 8}},
    ],
}


class TestParsing:
    def test_valid_document_parses(self):
        dag = parse_spec(VALID)
        assert dag.name == "demo"
        assert dag.bucket == "pipeline"
        assert [s.name for s in dag.stages] == ["ingest", "sort"]
        assert dag.stage("sort").params == {"workers": 8}

    def test_json_string_accepted(self):
        dag = parse_spec(json.dumps(VALID))
        assert dag.name == "demo"

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="invalid workflow JSON"):
            parse_spec("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_spec("[1, 2]")

    def test_missing_name_rejected(self):
        document = dict(VALID)
        del document["name"]
        with pytest.raises(ConfigError, match="name"):
            parse_spec(document)

    def test_unknown_top_level_key_rejected(self):
        document = dict(VALID)
        document["extra"] = 1
        with pytest.raises(ConfigError, match="unknown workflow keys"):
            parse_spec(document)

    def test_empty_stages_rejected(self):
        document = dict(VALID)
        document["stages"] = []
        with pytest.raises(ConfigError, match="stages"):
            parse_spec(document)

    def test_stage_without_kind_rejected(self):
        document = json.loads(json.dumps(VALID))
        del document["stages"][0]["kind"]
        with pytest.raises(ConfigError, match="kind"):
            parse_spec(document)

    def test_stage_unknown_key_rejected(self):
        document = json.loads(json.dumps(VALID))
        document["stages"][0]["workers"] = 8  # belongs in params
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_spec(document)

    def test_bad_after_type_rejected(self):
        document = json.loads(json.dumps(VALID))
        document["stages"][1]["after"] = "ingest"
        with pytest.raises(ConfigError, match="after"):
            parse_spec(document)

    def test_dag_validation_applies(self):
        document = json.loads(json.dumps(VALID))
        document["stages"][1]["after"] = ["ghost"]
        with pytest.raises(Exception, match="unknown stage"):
            parse_spec(document)

    def test_default_bucket(self):
        document = dict(VALID)
        del document["bucket"]
        assert parse_spec(document).bucket == "pipeline"
