"""The golden configs' `sequence` and `phi` objects against docs/schemas."""
from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

from test_golden import CASES

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def _schema(name: str) -> dict:
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return schema


def _objects():
    """(case, schema name, object) for every sequence and boundary in CASES."""
    for case, (_, cfg, _, _) in CASES.items():
        if "sequence" in cfg:
            yield case, "sequence", cfg["sequence"]
        for phi in [cfg["phi"]] if "phi" in cfg else cfg.get("boundaries", []):
            yield case, "phi_family", phi


OBJECTS = list(_objects())


def test_every_schema_is_exercised():
    assert {name for _, name, _ in OBJECTS} == {"sequence", "phi_family"}


@pytest.mark.parametrize(
    "schema,obj", [(name, obj) for _, name, obj in OBJECTS],
    ids=[f"{case}-{name}-{i}" for i, (case, name, _) in enumerate(OBJECTS)],
)
def test_golden_config_objects_match_schema(schema, obj):
    jsonschema.validate(obj, _schema(schema), cls=jsonschema.Draft202012Validator)


@pytest.mark.parametrize(
    "schema,obj",
    [
        ("sequence", {"kind": "truncated", "distribution": {"atoms": []}, "cutoff": {"kind": "sqrt_n"}}),
        ("sequence", {"kind": "constant"}),
        ("phi_family", {"kind": "parametric", "a": -1.0}),
        ("phi_family", {"kind": "tabulated", "values": [1.0], "envelope": [4.0]}),
    ],
    ids=["no-atoms", "constant-without-matrix", "negative-a", "short-envelope"],
)
def test_schema_rejects_malformed_objects(schema, obj):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(obj, _schema(schema), cls=jsonschema.Draft202012Validator)
