"""Mutated problem files and certificates through the CLI: each run ends
with an exit code from the ``cli`` docstring's table and at most one
``error:`` line, never with a traceback."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from lambdapack import cli, dsl, io as gio
from lambdapack.certify import certificate_to_json, replay_pipeline

EXIT_CODES = {
    cli.EXIT_OK,
    cli.EXIT_PARSE,
    cli.EXIT_PRECONDITION,
    cli.EXIT_BUDGET,
    cli.EXIT_REFUTED,
}

#: a MAX problem on the 12-vertex graph S with every kind of constraint,
#: edges excluded under both of their keys
PROBLEM_TEXT = json.dumps(
    {
        "graph": gio.to_json_dict(dsl.build("atlas(S)")),
        "mode": "MAX",
        "deletedVertices": [11],
        "deletedEdges": [[0, 1]],
        "forbiddenEdges": [[6, 7]],
        "forcedEdges": [[3, 4]],
    }
)
CERT_TEXT = certificate_to_json(replay_pipeline())

#: values of the wrong type, size or shape; an int put in place of a
#: vertex count is capped at 40, so no mutant asks for a large graph
ODD_VALUES = st.sampled_from(
    [
        None, True, False, 0, -1, 3, 40, 2**70, -(2**70), 0.5, 1.0,
        math.nan, math.inf, "", "0", [], {}, [0], [0, 0], [0, 1, 2], {"n": 3},
    ]
)


@st.composite
def mutants(draw, text: str):
    """The JSON document ``text`` changed in one place: a key or an item
    dropped, a value swapped for an odd one, or a list reversed or made a
    loop ``[x, x]`` of its first item."""
    doc = json.loads(text)
    parent, key, node = None, None, doc
    # descend from the root, one level further with probability 1/2
    while isinstance(node, (dict, list)) and node:
        if parent is not None and not draw(st.booleans()):
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        parent, node = node, node[key]
    how = draw(st.sampled_from(["drop", "swap", "reverse", "loop"]))
    if how == "drop":
        del parent[key]
    elif how == "swap":
        value = draw(ODD_VALUES)
        parent[key] = min(value, 40) if key == "n" and type(value) is int else value
    elif isinstance(node, list) and node:
        parent[key] = node[::-1] if how == "reverse" else [node[0], node[0]]
    return doc


def run_cli_on(doc, *argv: str) -> tuple[int, str]:
    """``cli.main`` with ``{file}`` in ``argv`` standing for a file that
    holds ``doc``; the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([a.replace("{file}", str(path)) for a in argv])
    return code, err.getvalue()


@seed(28)
@settings(max_examples=150, deadline=None)
@given(mutants(PROBLEM_TEXT))
def test_a_mutated_problem_file_is_solved_or_one_error_line(doc):
    code, err = run_cli_on(doc, "solve", "--problem", "{file}", "--budget-nodes", "2000")
    assert code in EXIT_CODES
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1


@seed(28)
@settings(max_examples=150, deadline=None)
@given(mutants(CERT_TEXT))
def test_a_mutated_certificate_is_valid_or_refuted(doc):
    code, err = run_cli_on(doc, "check-cert", "{file}")
    assert code in (cli.EXIT_OK, cli.EXIT_REFUTED)
    assert "Traceback" not in err
