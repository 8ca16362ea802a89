"""The command line's own config check against jsonschema, the oracle.

``cli._schema_errors`` walks ``SCHEMA`` with the JSON Schema keywords that
SCHEMA uses.  Here one battery of configs goes through it and through
jsonschema's Draft 2020-12 validator: both must accept and refuse the same
configs, and point at the same places.  A second test walks SCHEMA and
fails on a keyword that the walker does not read, which it would
otherwise pass over without a word.
"""

import copy
import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from fpknl.cli import SCHEMA, _schema_errors, load_config
from fpknl.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ["reference_case", "symmetry_linsym", "verify_quick"]

# the keywords _schema_errors reads; "$schema" names the dialect
WALKER_KEYWORDS = {"type", "enum", "const", "oneOf", "required", "properties",
                   "additionalProperties", "items", "minItems", "minimum",
                   "exclusiveMinimum", "$schema"}

DELETE = object()
NAN, INF = float("nan"), float("inf")


def shipped(name):
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


def edited(base, *edits):
    """A copy of the shipped config base with each (path, value) edit made;
    path is a "/"-joined key and index path, and DELETE removes the entry."""
    cfg = copy.deepcopy(shipped(base))
    for path, value in edits:
        *parents, last = [int(p) if p.isdigit() else p for p in path.split("/")]
        node = cfg
        for p in parents:
            node = node[p]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return cfg


BATTERY = {
    # the shipped configs
    **{name: shipped(name) for name in SHIPPED},
    # the schema-error configs of tests/test_cli.py
    "unknown-top-level-block": edited("reference_case", ("extra_block", {})),
    "empty-checks": edited("verify_quick", ("verify/checks", [])),
    "empty-snapshots": edited("reference_case", ("time/snapshots", [])),
    # values that pass the schema and meet a typed check after it
    "nan-weight": edited("reference_case", ("initial/components/0/weight", NAN)),
    "nan-image-moment": edited("symmetry_linsym", ("symmetry/image_moment", [NAN])),
    "nan-grid-origin": edited("reference_case", ("grid/x_min", NAN)),
    "nan-fd-dt": edited("verify_quick", ("verify/fd/dt", NAN)),
    "nan-time-end": edited("verify_quick", ("time/end", NAN)),
    "inf-snapshot": edited("reference_case", ("time/snapshots", [INF])),
    "nan-operator-const": edited("symmetry_linsym", (
        "symmetry/operator", {"const": NAN, "lin": [1.0], "grad": [1.0]})),
    "inf-operator-grad": edited("symmetry_linsym", (
        "symmetry/operator", {"const": 1.0, "lin": [1.0], "grad": [INF]})),
    "ragged-drift": edited("reference_case", ("model/drift", [[1.0, 2.0], [3.0]])),
    "huge-node-count": edited("reference_case", ("grid/nodes", 2 ** 63)),
    "float-huge-node-count": edited("reference_case", ("grid/nodes", 1e30)),
    # type, one config per type
    "object-not-object": edited("reference_case", ("model", [1.0])),
    "array-not-array": edited("reference_case", ("model/drift", {"0": [1.0]})),
    "number-not-number": edited("reference_case", ("model/diffusion", "0.1")),
    "integer-not-integer": edited("reference_case", ("model/dimension", 1.5)),
    "string-not-string": edited("reference_case", ("output/dir", 3)),
    "boolean-not-boolean": edited("verify_quick", ("verify/fd/refine", "no")),
    "null-as-number": edited("reference_case", ("time/start", None)),
    # JSON Schema's numbers: a bool is none, a float with no fraction is an
    # integer, NaN and inf are numbers but not integers
    "bool-as-number": edited("reference_case", ("model/diffusion", True)),
    "bool-as-coupling": edited("reference_case", ("model/coupling", False)),
    "bool-as-integer": edited("reference_case", ("model/dimension", True)),
    "one-as-boolean": edited("verify_quick", ("verify/fd/refine", 0)),
    "1.0-as-integer": edited("reference_case", ("model/dimension", 1.0)),
    "8.0-as-integer": edited("reference_case", ("grid/nodes", 8.0)),
    "nan-as-integer": edited("reference_case", ("grid/nodes", NAN)),
    "inf-as-integer": edited("reference_case", ("grid/nodes", INF)),
    "nan-as-number": edited("reference_case", ("model/diffusion", NAN)),
    "inf-as-number": edited("reference_case", ("model/diffusion", INF)),
    "minus-inf-as-number": edited("reference_case", ("model/coupling", -INF)),
    "nan-matrix-entry": edited("reference_case", ("model/drift", [[NAN]])),
    # enum
    "task-not-in-enum": edited("reference_case", ("task", "frobnicate")),
    "kind-not-in-enum": edited("reference_case", ("initial/kind", "uniform")),
    "check-not-in-enum": edited("verify_quick", ("verify/checks", ["no-such-check"])),
    "sampled-kind": edited("reference_case", ("initial", {"kind": "sampled", "path": "x.csv"})),
    # const and oneOf
    "operator-object": edited("symmetry_linsym", (
        "symmetry/operator", {"const": 1.0, "lin": [0.3], "grad": [0.2]})),
    "operator-const-mismatch": edited("symmetry_linsym", ("symmetry/operator", "linsym2")),
    "operator-number": edited("symmetry_linsym", ("symmetry/operator", 5)),
    "operator-object-missing-grad": edited("symmetry_linsym", (
        "symmetry/operator", {"const": 1.0, "lin": [0.3]})),
    "operator-object-extra-key": edited("symmetry_linsym", (
        "symmetry/operator", {"const": 1.0, "lin": [0.3], "grad": [0.2], "x": 0})),
    "operator-null": edited("symmetry_linsym", ("symmetry/operator", None)),
    # required
    "missing-model": edited("reference_case", ("model", DELETE)),
    "missing-task": edited("reference_case", ("task", DELETE)),
    "missing-task-and-model": edited("reference_case", ("task", DELETE), ("model", DELETE)),
    "missing-component-mean": edited("reference_case", ("initial/components/0/mean", DELETE)),
    "missing-time-start": edited("reference_case", ("time/start", DELETE)),
    "missing-initial-kind": edited("reference_case", ("initial/kind", DELETE)),
    "optional-blocks-absent": edited("reference_case", ("initial", DELETE), ("time", DELETE),
                                     ("grid", DELETE), ("output", DELETE)),
    "empty-grid-block": edited("reference_case", ("grid", {})),
    # properties and additionalProperties false
    "extra-model-key": edited("reference_case", ("model/drfit", [[1.0]])),
    "extra-component-key": edited("reference_case", ("initial/components/0/sigma", 1.0)),
    "two-extra-keys": edited("reference_case", ("a", 1), ("b", 2)),
    "extra-fd-key": edited("verify_quick", ("verify/fd/nx", 301)),
    # items
    "matrix-entry-not-number": edited("reference_case", ("model/drift", [[1.0, "a"]])),
    "matrix-row-not-array": edited("reference_case", ("model/coupling_mean", [0.5])),
    "snapshot-not-number": edited("reference_case", ("time/snapshots", [0.0, "1"])),
    "component-not-object": edited("reference_case", ("initial/components", [[0.5]])),
    # minItems
    "empty-matrix": edited("reference_case", ("model/drift", [])),
    "empty-matrix-row": edited("reference_case", ("model/drift", [[]])),
    "empty-mean": edited("reference_case", ("initial/components/0/mean", [])),
    "empty-components": edited("reference_case", ("initial/components", [])),
    # minimum and exclusiveMinimum, with their boundaries
    "dimension-below-minimum": edited("reference_case", ("model/dimension", 0)),
    "dimension-at-minimum": edited("reference_case", ("model/dimension", 1)),
    "nodes-below-minimum": edited("reference_case", ("grid/nodes", 7)),
    "nodes-at-minimum": edited("reference_case", ("grid/nodes", 8)),
    "nodes-below-minimum-and-fractional": edited("reference_case", ("grid/nodes", 3.5)),
    "diffusion-at-exclusive-minimum": edited("reference_case", ("model/diffusion", 0)),
    "diffusion-below-exclusive-minimum": edited("reference_case", ("model/diffusion", -1.0)),
    "diffusion-just-above": edited("reference_case", ("model/diffusion", 5e-324)),
    "dt-at-exclusive-minimum": edited("verify_quick", ("verify/fd/dt", 0.0)),
    "dt-minus-inf": edited("verify_quick", ("verify/fd/dt", -INF)),
    # several errors at once, at several depths
    "many-errors": edited("reference_case", ("task", 1), ("model/dimension", 0),
                          ("model/drift", [[True]]), ("initial/components/0/num", []),
                          ("grid/nodes", 2.5), ("output/extra", "x")),
    # a top level that is not an object
    "top-level-array": [shipped("reference_case")],
    "top-level-string": "evolve",
    "top-level-number": 1.0,
    "top-level-null": None,
    "top-level-empty-object": {},
}


def oracle_paths(cfg, schema=SCHEMA):
    return {tuple(e.absolute_path) for e in Draft202012Validator(schema).iter_errors(cfg)}


def walker_paths(cfg, schema=SCHEMA):
    return {path for path, _ in _schema_errors(cfg, schema)}


def test_the_oracle_accepts_the_schema():
    Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", BATTERY)
def test_the_walker_accepts_and_refuses_as_jsonschema_does(name):
    # the same verdict, and errors at the same places (jsonschema lists the
    # unexpected keys of one object in one error, the walker one per key)
    cfg = BATTERY[name]
    expected, got = oracle_paths(cfg), walker_paths(cfg)
    assert bool(got) == bool(expected)
    assert got == expected


# keyword meanings that no config can reach under SCHEMA: a value that
# matches both oneOf branches, bounds and containers on a value of another
# type (the keyword passes it), integers past a double's exact range
SMALL_SCHEMAS = [
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, "1"),
    ({"minimum": 5}, True),
    ({"minimum": 5}, "a"),
    ({"minimum": 5}, 4.999),
    ({"exclusiveMinimum": 0}, False),
    ({"exclusiveMinimum": 0}, [0]),
    ({"type": "integer"}, 2 ** 70),
    ({"type": "integer"}, 1e300),
    ({"type": "integer", "minimum": 8}, 7.5),
    ({"enum": ["a", "b"]}, ["a"]),
    ({"const": "a"}, "b"),
    ({"items": {"type": "string"}}, {"a": 1}),
    ({"minItems": 2}, "a"),
    ({"required": ["a"]}, ["a"]),
    ({"properties": {"a": {"type": "string"}}}, {"b": 1}),
    ({"additionalProperties": False}, "a"),
    ({"type": "boolean"}, 0),
    ({"type": "number"}, None),
]


@pytest.mark.parametrize("schema, value", SMALL_SCHEMAS)
def test_the_walker_keeps_each_keywords_meaning_on_small_schemas(schema, value):
    assert walker_paths(value, schema) == oracle_paths(value, schema)


def test_the_battery_holds_accepted_and_refused_configs():
    refused = {name for name, cfg in BATTERY.items() if oracle_paths(cfg)}
    assert not refused & set(SHIPPED)
    assert len(refused) >= 50 and len(BATTERY) - len(refused) >= 25


def subschemas(schema):
    """schema and every schema inside it; property names are not keywords,
    and enum, const and required hold values, not schemas."""
    yield schema
    for key, sub in schema.items():
        if key == "properties":
            for prop in sub.values():
                yield from subschemas(prop)
        elif key == "items":
            yield from subschemas(sub)
        elif key == "oneOf":
            for branch in sub:
                yield from subschemas(branch)


def test_schema_uses_only_keywords_the_walker_reads():
    # a keyword added to SCHEMA that the walker does not read would pass
    # every config; the walker reads additionalProperties as false alone
    nodes = list(subschemas(SCHEMA))
    used = {key for node in nodes for key in node}
    assert used <= WALKER_KEYWORDS, sorted(used - WALKER_KEYWORDS)
    assert all(node["additionalProperties"] is False
               for node in nodes if "additionalProperties" in node)


def test_load_config_lists_each_error_under_one_heading_sorted_by_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BATTERY["many-errors"]))
    with pytest.raises(ConfigurationError) as info:
        load_config(str(path))
    heading, *lines = str(info.value).split("\n")
    assert heading == "config does not match schema:"
    assert all(line.startswith("  at ") for line in lines)
    # grid/nodes 2.5 is neither an integer nor at least 8
    assert [line.removeprefix("  at ").split(": ", 1)[0] for line in lines] == [
        "grid/nodes", "grid/nodes", "initial/components/0/num", "model/dimension",
        "model/drift/0/0", "output", "task"]


def test_a_non_object_config_is_refused_at_the_root(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match=r"^config does not match schema:\n  at <root>: "):
        load_config(str(path))
