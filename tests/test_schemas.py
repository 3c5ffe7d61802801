"""The JSON documents the toolkit writes conform to their published schemas."""

import json
from pathlib import Path

import jsonschema
import pytest

from butlercad.butler import build_butler_4x4
from butlercad.components import netlist_to_json
from butlercad.microstrip import Substrate
from butlercad.report import build_design_report

SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "butlercad" / "schemas"
FR4 = Substrate(4.9, 1.6e-3)


def _validate(doc: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    jsonschema.Draft7Validator(schema).validate(doc)


def test_design_report_matches_schema():
    doc = json.loads(build_design_report(5.2e9, FR4).to_json())
    _validate(doc, "design_report.schema.json")


@pytest.mark.parametrize("fidelity", ["ideal", "circuit"])
def test_butler_netlist_matches_schema(fidelity):
    doc = json.loads(netlist_to_json(build_butler_4x4(fidelity, 5.2e9, FR4)))
    _validate(doc, "netlist.schema.json")
    assert all(d["params"]["z_ref_ohm"] == 50.0 for d in doc["devices"])
