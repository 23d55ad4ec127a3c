"""Mutated problem files, certificates, construction scripts and
expressions through the CLI: each run ends with an exit code from the
``cli`` docstring's table and at most one ``error:`` line, never with a
traceback."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from lambdapack import cli, dsl, io as gio
from lambdapack.certify import certificate_to_json, replay_pipeline
from lambdapack.pipeline import DEFAULT_SCRIPT

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

#: an integer of more digits than Python converts from text; ``json.dumps``
#: refuses it too, so a document holds ``LONG_INT`` in its place and
#: ``run_cli_on`` splices the digits into the JSON text
LONG_DIGITS = "9" * 5000
LONG_INT = "<5000 digits>"

#: values of the wrong type, size or shape; an int put in place of a
#: vertex count is capped at 40, so no mutant asks for a large graph
ODD_VALUES = st.sampled_from(
    [
        None, True, False, 0, -1, 3, 40, 2**70, -(2**70), LONG_INT, 0.5, 1.0,
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
    holds ``doc``, with ``LONG_INT`` written as its digits; the exit code
    and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc).replace(json.dumps(LONG_INT), LONG_DIGITS))
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


#: ``DEFAULT_SCRIPT`` cut into names, runs of blanks and single characters
SCRIPT_TOKENS = re.findall(r"[A-Za-z0-9_.]+|[ \t]+|\n|.", DEFAULT_SCRIPT)
#: what a mutation puts in; its numbers are small, so no mutant asks for a
#: large prism even where three of them meet; the long one is refused as
#: too long to read
NEW_TOKENS = st.sampled_from(
    [
        "(", ")", "@", ",", "-", "[", "]", "=", "#", "\n", " ", "let", "atlas",
        "prism", "vsub", "ymerge3", "ymerge", "esub", "ebridge", "Q", "S", "K4",
        "K33", "K", "H", "D", "e1", "e9", "0", "2", "3", "000", LONG_DIGITS,
        "z1", "o0", "A.000", "nosuch",
    ]
)


@st.composite
def script_mutants(draw) -> str:
    """``DEFAULT_SCRIPT`` with one to three tokens dropped, replaced or
    inserted."""
    tokens = list(SCRIPT_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "replace", "insert"]))
        i = draw(st.integers(0, len(tokens) - (how != "insert")))
        if how == "drop":
            del tokens[i]
        elif how == "replace":
            tokens[i] = draw(NEW_TOKENS)
        else:
            tokens.insert(i, draw(NEW_TOKENS))
    return "".join(tokens)


@seed(29)
@settings(max_examples=100, deadline=None)
@given(script_mutants())
def test_a_mutated_script_builds_or_is_one_error_line(text):
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "script.lp"
        path.write_text(text)
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["build", "--script", str(path)])
            runs.append((code, out.getvalue(), err.getvalue()))
    (code, out, err), again = runs
    assert code in EXIT_CODES
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
    assert again[1] == out


#: a construction whose integers, a prism size and two edge indices, are
#: what ``number_mutants`` changes; the long digit strings of ``NEW_TOKENS``
#: seldom land on the one integer of ``DEFAULT_SCRIPT``
NUMBERED_EXPR = "esub(prism(6)@e1, atlas(Q)@e12)"
NUMBERS = st.sampled_from(["0", "1", "2", "3", "12", "13", "000", LONG_DIGITS])


@st.composite
def number_mutants(draw) -> str:
    """``NUMBERED_EXPR`` with each integer kept or swapped for one of ``NUMBERS``."""

    def keep_or_swap(m: re.Match) -> str:
        return draw(st.one_of(st.just(m.group()), NUMBERS))

    return re.sub(r"\d+", keep_or_swap, NUMBERED_EXPR)


@seed(30)
@settings(max_examples=40, deadline=None)
@given(number_mutants())
def test_an_expression_with_mutated_numbers_builds_or_is_one_error_line(text):
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["build", "--expr", text])
        runs.append((code, out.getvalue(), err.getvalue()))
    (code, out, err), again = runs
    assert code in EXIT_CODES
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
    assert again[1] == out
