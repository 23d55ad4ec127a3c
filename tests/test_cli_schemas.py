"""Every subcommand's JSON output validates against its published schema."""

import json

import jsonschema
import pytest

from lambdapack import atlas
from lambdapack.cli import main
from lambdapack.planarity import verify_kuratowski

GRAPH_SCHEMA = {
    "type": "object",
    "required": ["n", "edges", "labels"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 0},
        "edges": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "labels": {"type": "object", "additionalProperties": {"type": "string"}},
    },
}

ATLAS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["name", "vertices", "edges"],
        "additionalProperties": False,
        "properties": {
            "name": {"type": "string"},
            "vertices": {"type": "integer"},
            "edges": {"type": "integer"},
        },
    },
}

_EDGE = {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}

#: a planar graph carries its rotation system, a non-planar one a Kuratowski
#: subgraph as its obstruction
CHECK_SCHEMA = {
    "type": "object",
    "required": [
        "vertices", "edges", "components", "minDegree", "maxDegree",
        "cubic", "bipartite", "planar", "connectivityAtLeast1", "connectivityAtLeast2",
    ],
    "additionalProperties": False,
    "properties": {
        "vertices": {"type": "integer"},
        "edges": {"type": "integer"},
        "components": {"type": "integer"},
        "minDegree": {"type": "integer"},
        "maxDegree": {"type": "integer"},
        "cubic": {"type": "boolean"},
        "bipartite": {"type": "boolean"},
        "planar": {"type": "boolean"},
        "coloring": {"type": "array", "items": {"enum": [0, 1]}},
        "rotation": {"type": "array", "items": _INTEGERS},
        "obstruction": {"type": "array", "items": _EDGE, "minItems": 9},
    },
    "patternProperties": {
        "^connectivityAtLeast[123]$": {"type": "boolean"},
        "^separator[123]$": _INTEGERS,
    },
    "if": {"properties": {"planar": {"const": True}}},
    "then": {"required": ["rotation"], "not": {"required": ["obstruction"]}},
    "else": {"required": ["obstruction"], "not": {"required": ["rotation"]}},
}

SOLVE_SCHEMA = {
    "type": "object",
    "required": ["verdict", "value", "paths", "nodes", "prunes"],
    "additionalProperties": False,
    "properties": {
        "verdict": {"enum": ["SAT", "UNSAT", "OPTIMUM", "INDETERMINATE"]},
        "value": {"type": ["integer", "null"]},
        "paths": {
            "type": ["array", "null"],
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 3,
                "maxItems": 3,
            },
        },
        "nodes": {"type": "integer"},
        "prunes": {"type": "object", "additionalProperties": {"type": "integer"}},
    },
}

SAMPLE_SCHEMA = {
    "type": "object",
    "required": ["n", "count", "baseSeed", "violations", "samples"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer"},
        "count": {"type": "integer"},
        "baseSeed": {"type": "integer"},
        "violations": {"type": "integer"},
        "samples": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["seed", "vertices", "edges"],
                "properties": {
                    "seed": {"type": "integer"},
                    "vertices": {"type": "integer"},
                    "edges": {"type": "integer"},
                    "bound": {"type": "integer"},
                    "satisfied": {"type": "boolean"},
                },
            },
        },
    },
}

CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["format", "graphs", "steps", "finalFacts", "notes"],
    "properties": {
        "format": {"const": "lambdapack-certificate/1"},
        "graphs": {
            "type": "object",
            "patternProperties": {"^[0-9a-f]{64}$": {"type": "object"}},
            "additionalProperties": False,
        },
        "steps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "id", "rule", "premises", "conclusion",
                    "sideConditions", "evidence",
                ],
                "properties": {
                    "rule": {"enum": ["BASE", "R1", "R2", "R3", "R4", "R5", "R6"]},
                },
            },
        },
        "finalFacts": {"type": "array"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}


def _run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_atlas_schema(capsys):
    jsonschema.validate(_run_json(capsys, "atlas", "--format", "json"), ATLAS_SCHEMA)


def test_build_schema(capsys):
    jsonschema.validate(_run_json(capsys, "build", "--expr", "atlas(S)"), GRAPH_SCHEMA)


def test_export_schema(capsys):
    data = _run_json(capsys, "export", "--expr", "atlas(K33)", "--to", "json")
    jsonschema.validate(data, GRAPH_SCHEMA)


@pytest.mark.parametrize("expr", ["atlas(Q)", "atlas(K33)"])
def test_check_schema(capsys, expr):
    data = _run_json(capsys, "check", "--expr", expr, "--format", "json")
    jsonschema.validate(data, CHECK_SCHEMA)
    if not data["planar"]:
        obstruction = frozenset(tuple(e) for e in data["obstruction"])
        assert verify_kuratowski(atlas("K33"), obstruction) == "K33"


def test_check_schema_with_separators(tmp_path, capsys):
    # a triangle with a second triangle hung on its vertex 2
    path = tmp_path / "cut_vertex.json"
    path.write_text('{"n": 5, "edges": [[0, 1], [0, 2], [1, 2], [2, 3], [2, 4], [3, 4]]}')
    data = _run_json(capsys, "check", "--input", str(path), "--format", "json")
    jsonschema.validate(data, CHECK_SCHEMA)
    assert data["separator2"] == [2]


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--expr", "atlas(S)", "--max"),
        ("solve", "--expr", "atlas(S)", "--factor"),
        ("solve", "--expr", "atlas(K4)", "--max", "--target", "1"),
    ],
)
def test_solve_schema(capsys, argv):
    jsonschema.validate(_run_json(capsys, *argv), SOLVE_SCHEMA)


def test_solve_problem_file(tmp_path, capsys):
    graph = _run_json(capsys, "build", "--expr", "ebridge(Q@e1, Q@e1)")
    problem = {
        "graph": graph,
        "mode": "FACTOR",
        "forcedEdges": [[16, 17]],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    data = _run_json(capsys, "solve", "--problem", str(path))
    jsonschema.validate(data, SOLVE_SCHEMA)
    assert data["verdict"] == "UNSAT"


def test_sample_schema(capsys):
    data = _run_json(
        capsys, "sample", "-n", "8", "--count", "3", "--seed", "1", "--test-bound"
    )
    jsonschema.validate(data, SAMPLE_SCHEMA)


def test_certificate_schema(capsys):
    jsonschema.validate(_run_json(capsys, "certify"), CERTIFICATE_SCHEMA)
