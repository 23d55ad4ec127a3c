"""Construction-expression parsing, evaluation, and error reporting."""

import pytest

from lambdapack import ParseError, atlas, build, run_script
from lambdapack.constructions import OPERATORS, PortedVertex
from lambdapack.dsl import MAX_NESTING, ResolveError
from lambdapack.pipeline import DEFAULT_SCRIPT


def test_atlas_ref_parses_and_builds():
    assert build("atlas(Q)") == atlas("Q")


def test_bare_name_is_atlas_shorthand():
    assert build("ebridge(Q@e1, Q@e1)").n == 18


def test_edge_index_matches_label_pair():
    g1 = build("ebridge(atlas(Q)@e1, atlas(Q)@e1)")
    g2 = build("ebridge(atlas(Q)@000-001, atlas(Q)@000-001)")
    assert g1 == g2


def test_ports_override():
    g = build("vsub(K4@v0[v2,v1,v3], K4@v0[v1,v2,v3])")
    # port 0 of the first side (v2) pairs with port 0 of the second (v1)
    u = g.vertex_by_label("A.v2")
    v = g.vertex_by_label("B.v1")
    assert g.has_edge(u, v)


def test_malformed_input_reports_position():
    with pytest.raises(ParseError) as err:
        build("vsub(Q")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        build("frobnicate(Q@a)")
    with pytest.raises(ParseError):
        build("atlas(Q) extra")
    vertex, edge = "Q@000", "Q@000-001"
    for op, spec in OPERATORS.items():
        anchor = vertex if spec.anchor is PortedVertex else edge
        with pytest.raises(ParseError):
            build(f"{op}({', '.join([anchor] * (spec.arity - 1))})")
    for text in (f"vsub({edge}, {vertex})", f"esub({vertex}, {edge})"):
        with pytest.raises(ParseError):
            build(text)


def test_unknown_names_report_path():
    with pytest.raises(ResolveError) as err:
        build("vsub(atlas(Q)@nosuch[a,b,c], atlas(Q)@000)")
    assert "vsub[0]" in str(err.value)
    with pytest.raises(ResolveError):
        build("atlas(Nope)")
    with pytest.raises(ResolveError):
        build("SomeBinding")


#: more digits than Python converts from text to an int
LONG_DIGITS = "9" * 5000


@pytest.mark.parametrize(
    "text, col",
    [(f"prism({LONG_DIGITS})", 7), (f"esub(Q@e{LONG_DIGITS} , Q@e1)", 9)],
    ids=["prism-size", "edge-index"],
)
def test_an_integer_too_long_to_read_is_a_parse_error_at_its_first_digit(text, col):
    with pytest.raises(ParseError) as exc:
        build(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert str(exc.value).startswith("integer of 5000 digits is too long")
    with pytest.raises(ParseError) as exc:
        run_script(f"let A = K4\nlet B = {text}\n")
    assert (exc.value.line, exc.value.col) == (2, len("let B = ") + col)


@pytest.mark.parametrize("index", ["13", "9" * 20])
def test_an_edge_index_past_the_last_edge_is_out_of_range(index):
    assert build("esub(Q@e12, Q@e1)").n == 16  # e12 is the last of Q's 12 edges
    with pytest.raises(ResolveError) as exc:
        build(f"esub(Q@e{index}, Q@e1)")
    assert str(exc.value) == (
        f"edge index e{index} out of range (graph has 12 edges) (at $/esub[0])"
    )


def test_script_bindings_and_comments():
    records = run_script(
        """
        # two cubes glued at an edge
        let A = atlas(Q)
        let G = esub(A@e1, atlas(Q)@e1)
        """
    )
    assert [r.name for r in records] == ["A", "G"]
    assert records[1].graph.n == 16


@pytest.mark.parametrize("name", ["atlas", *OPERATORS])
def test_script_rejects_reserved_binding(name):
    with pytest.raises(ParseError):
        run_script(f"let {name} = atlas(Q)")


def test_default_script_builds_counterexample():
    records = run_script(DEFAULT_SCRIPT)
    by_name = {r.name: r.graph for r in records}
    assert by_name["N"].n == 72
    assert by_name["R"].n == 54


def test_nested_expression_equals_staged_build():
    # inlining the bindings changes nothing: same ids, same labels
    k = "ebridge(atlas(Q)@000-001, atlas(Q)@000-001)"
    h = f"vsub({k}@z1[z2,A.000,B.000], atlas(S)@o0[o1,o5,i0])"
    d = f"esub({k}@z1-z2, {h}@A.B.000-B.i0)"
    f = f"esub(atlas(Q)@000-001, {d}@B.B.o5-B.A.A.000)"
    nested = build(f)
    staged = {r.name: r.graph for r in run_script(DEFAULT_SCRIPT)}["F"]
    assert nested == staged


def test_build_is_deterministic():
    text = "ymerge(ebridge(Q@e1, Q@e1)@z1[z2,A.000,B.000])"
    g1, g2 = build(text), build(text)
    assert g1 == g2 and g1.labels == g2.labels


def _nested(depth: int) -> str:
    """vsub nested ``depth`` calls deep through its first operand."""
    expr, label = "K4", "v1"
    for _ in range(depth):
        expr, label = f"vsub({expr}@{label}, K4@v0)", "B.v1"
    return expr


def test_nesting_up_to_the_limit_builds():
    # each vsub adds the 2 vertices K4 keeps beyond the removed pair
    assert build(_nested(MAX_NESTING)).n == 4 + 2 * MAX_NESTING
    assert run_script(f"let X = {_nested(MAX_NESTING)}\n")[0].graph.n == 4 + 2 * MAX_NESTING


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 250, 5000])
def test_over_deep_nesting_is_a_parse_error_with_position(depth):
    # the error points at the opening parenthesis of the first call too deep
    col = len("vsub(") * (MAX_NESTING + 1)
    text = _nested(depth)
    with pytest.raises(ParseError) as exc:
        build(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    with pytest.raises(ParseError) as exc:
        run_script(f"let A = K4\nlet B = {text}\n")
    assert (exc.value.line, exc.value.col) == (2, len("let B = ") + col)
