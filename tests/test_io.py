"""JSON and DOT serialization round-trips."""

import pytest

from lambdapack import Graph, GraphError, atlas, from_dot, from_json, to_dot, to_json
from lambdapack.io import problem_from_json
from lambdapack.pipeline import build_pipeline


def test_json_round_trip():
    for name in ("K4", "K33", "Q", "S"):
        g = atlas(name)
        assert from_json(to_json(g)) == g


def test_json_round_trip_pipeline():
    pipe = build_pipeline()
    n = pipe.graph("N")
    assert from_json(to_json(n)) == n


def test_json_is_deterministic():
    g = atlas("S")
    assert to_json(g) == to_json(atlas("S"))


def test_json_schema_shape():
    import json

    data = json.loads(to_json(atlas("K4")))
    assert set(data) == {"n", "edges", "labels"}
    assert data["n"] == 4
    assert data["labels"]["0"] == "v0"
    assert [0, 1] in data["edges"]


def test_json_malformed():
    with pytest.raises(GraphError):
        from_json("{not json")
    with pytest.raises(GraphError):
        from_json('{"n": 2, "edges": [[0, 5]], "labels": {}}')


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3.9, "edges": [[0, 1], [1, 2]]}',
        '{"n": 3, "edges": [[0.7, 1.2], [1, 2]]}',
        '{"n": 3, "edges": [[0, 1.0], [1, 2]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [["0", 1]]}',
    ],
)
def test_json_numbers_must_be_integers(text):
    """Vertex counts and edge ends are JSON integers: a float, a bool or a
    string is rejected, not rounded or converted."""
    with pytest.raises(GraphError, match="malformed graph JSON"):
        from_json(text)


@pytest.mark.parametrize(
    "field",
    [
        '"forcedEdges": [[0.5, 1.9]]',
        '"deletedEdges": [[0, 1.0]]',
        '"forbiddenEdges": [[false, 1]]',
        '"deletedVertices": [true]',
        '"deletedVertices": ["0"]',
        '"deletedVertices": [1.0]',
    ],
)
def test_problem_json_vertex_ids_must_be_integers(field):
    text = '{"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, %s}' % field
    with pytest.raises(GraphError, match="malformed problem JSON"):
        problem_from_json(text)
    assert problem_from_json(text.replace(field, '"deletedVertices": [0]'))


@pytest.mark.parametrize("labels", ['{"x": "a"}', '["a", "b"]', '{"2": "a"}', '"ab"'])
def test_json_malformed_labels(labels):
    with pytest.raises(GraphError):
        from_json('{"n": 2, "edges": [[0, 1]], "labels": %s}' % labels)


@pytest.mark.parametrize(
    "labels",
    [
        '{"1_0": "a"}',
        '{" 2": "a"}',
        '{"+3": "a"}',
        '{"007": "a"}',
        '{"2": 5}',
        '{"2": null}',
    ],
)
def test_json_label_keys_are_vertex_ids_and_labels_strings(labels):
    """A label key is ``str(i)`` for a vertex i and a label is a string:
    on 11 vertices ``"1_0"``, ``" 2"`` and ``"+3"`` would parse as vertex
    ids 10, 2 and 3 under ``int()``, and 5 or null would become text."""
    text = '{"n": 11, "edges": [[0, 1]], "labels": %s}'
    with pytest.raises(GraphError, match="malformed graph JSON"):
        from_json(text % labels)
    assert from_json(text % '{"10": "a", "2": "b"}').labels[10] == "a"


def test_dot_round_trip():
    # the last graph has an empty label, a quote, a backslash and a tab
    odd = Graph.from_edges(3, [(0, 1), (1, 2)], ["", ' "\\ ', "\t"])
    for g in [atlas(name) for name in ("K4", "K33", "Q", "S")] + [odd]:
        assert from_dot(to_dot(g)) == g


def test_dot_round_trip_composite_labels():
    pipe = build_pipeline()
    k = pipe.graph("K")
    text = to_dot(k)
    assert '"A.000"' in text and '"z1"' in text
    assert from_dot(text) == k


def test_dot_requires_unique_labels():
    g = Graph.from_edges(2, [(0, 1)], labels=["x", "x"])
    with pytest.raises(GraphError):
        to_dot(g)


@pytest.mark.parametrize(
    "brk",
    ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
)
def test_dot_rejects_labels_with_line_breaks(brk):
    # from_dot reads one statement per line, so such a label cannot round-trip
    g = Graph.from_edges(2, [(0, 1)], [f"a{brk}b", "c"])
    with pytest.raises(GraphError, match="line break"):
        to_dot(g)


def test_dot_rejects_garbage():
    with pytest.raises(GraphError):
        from_dot('graph G {\n  "a" [id=0];\n  nonsense\n}')


def test_problem_round_trip():
    from lambdapack import Mode, PackingProblem, problem_from_json, problem_to_json

    g = atlas("S")
    problem = PackingProblem(
        g, Mode.FACTOR,
        forced_edges=frozenset({(0, 1)}),
        forbidden_edges=frozenset({(6, 7)}),
    )
    text = problem_to_json(problem)
    again = problem_from_json(text)
    assert again == problem
    assert problem_to_json(again) == text


def test_problem_edges_are_ordered_as_ints():
    from lambdapack import Mode, PackingProblem, problem_from_json

    text = (
        '{"graph": {"n": 11, "edges": [[9, 10]]}, "mode": "MAX",'
        ' "forcedEdges": [[10, 9]]}'
    )
    problem = problem_from_json(text)
    assert problem == PackingProblem(
        Graph.from_edges(11, [(9, 10)]), Mode.MAX, forced_edges=frozenset({(9, 10)})
    )
    # ids given as strings would order as text ("10" < "9"): they are rejected
    with pytest.raises(GraphError, match="malformed problem JSON"):
        problem_from_json(text.replace("[10, 9]", '["10", "9"]'))


def test_problem_json_errors():
    from lambdapack import PackingError, problem_from_json

    with pytest.raises(GraphError):
        problem_from_json('{"mode": "MAX"}')  # graph missing
    # a constraint violation is a precondition error, not a shape error
    bad = (
        '{"graph": {"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3],[0,2],[1,3]],'
        ' "labels": {}}, "mode": "FACTOR"}'
    )
    with pytest.raises(PackingError):
        problem_from_json(bad)
    out_of_range = '{"graph": {"n": 3, "edges": [[0,1],[1,2]]}, "deletedVertices": [3]}'
    with pytest.raises(PackingError):
        problem_from_json(out_of_range)
