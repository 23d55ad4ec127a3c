"""``check_packing`` against a plain validity predicate, on witnesses that
``solve`` returns for small random problems, each changed in one place."""

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from lambdapack import (
    Graph,
    LambdaPath,
    Mode,
    PackingError,
    PackingProblem,
    check_packing,
    solve,
)


def fault(problem, paths):
    """The first rule ``paths`` breaks as a packing of ``problem``, or None:
    written path by path, with none of ``check_packing``'s shortcuts."""
    g = problem.graph
    banned = problem.forbidden_edges
    seen = []
    edges = set()
    for p in paths:
        for x in p.vertices:
            if type(x) is not int:
                return "non-int vertex"
            if not 0 <= x < g.n:
                return "vertex out of range"
            if x in problem.deleted_vertices:
                return "deleted vertex"
            if x in seen:
                return "repeated vertex"
            seen.append(x)
        for a, b in ((p.u, p.v), (p.v, p.w)):
            e = (min(a, b), max(a, b))
            if e not in g.edges:
                return "non-edge"
            if e in banned:
                return "deleted or forbidden edge"
            edges.add(e)
    if not problem.forced_edges <= edges:
        return "missed forced edge"
    if problem.mode == Mode.FACTOR and set(seen) != problem.alive:
        return "missed vertex"
    return None


@st.composite
def solved(draw):
    """A small problem with a witness from ``solve``."""
    n = draw(st.integers(min_value=3, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs), min_size=n)))
    mode = draw(st.sampled_from([Mode.FACTOR, Mode.MAX]))
    k = n % 3 if mode == Mode.FACTOR else draw(st.integers(min_value=0, max_value=2))
    vertices = st.integers(min_value=0, max_value=n - 1)
    deleted = draw(st.sets(vertices, min_size=k, max_size=k))
    edges = st.sets(st.sampled_from(sorted(g.edges)), max_size=1)
    avoided, forbidden, forced = draw(edges), draw(edges), draw(edges)
    problem = PackingProblem(
        g,
        mode,
        deleted_vertices=frozenset(deleted),
        forbidden_edges=frozenset(avoided | forbidden),
        forced_edges=frozenset(forced - avoided - forbidden),
    )
    result = solve(problem)
    assume(result.paths is not None)
    return problem, list(result.paths)


@st.composite
def mutated(draw):
    """A solved problem and its witness, as it is or changed in one place:
    a vertex replaced by another id (out of range, deleted, repeated, or
    making a non-edge or a deleted or forbidden edge) or by the equal
    float, a path dropped (missing a forced edge or, in FACTOR, a vertex),
    a path added, or a path on a deleted or forbidden edge put in place of
    the paths it meets."""
    problem, paths = draw(solved())
    g = problem.graph
    n = g.n
    kind = draw(st.sampled_from(["none", "vertex", "float", "drop", "add", "banned"]))
    if kind == "none":
        return problem, paths
    if kind == "banned":
        banned = sorted(problem.forbidden_edges)
        assume(banned)
        a, b = draw(st.sampled_from(banned))
        ends = sorted(x for e in g.edges if b in e and a not in e for x in e if x != b)
        assume(ends)
        path = LambdaPath.of(a, b, draw(st.sampled_from(ends)))
        return problem, [p for p in paths if not p.mask & path.mask] + [path]
    if kind == "add":
        ids = st.integers(min_value=-1, max_value=n)
        t = draw(st.tuples(ids, ids, ids))
        assume(len(set(t)) == 3)
        return problem, paths + [LambdaPath.of(*t)]
    assume(paths)
    i = draw(st.integers(min_value=0, max_value=len(paths) - 1))
    if kind == "drop":
        return problem, paths[:i] + paths[i + 1 :]
    t = list(paths[i].vertices)
    j = draw(st.integers(min_value=0, max_value=2))
    t[j] = float(t[j]) if kind == "float" else draw(st.integers(min_value=-1, max_value=n))
    assume(len(set(t)) == 3)
    return problem, paths[:i] + [LambdaPath.of(*t)] + paths[i + 1 :]


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_check_packing_accepts_exactly_the_valid_packings(case):
    problem, paths = case
    why = fault(problem, paths)
    event(str(why))
    try:
        check_packing(problem, paths)
    except (ValueError, TypeError):
        accepted = False
    else:
        accepted = True
    assert accepted == (why is None), why


def test_a_float_vertex_is_rejected():
    """A float equal to a vertex id passes every set test, so the whole-
    witness check must not accept it; the path-by-path check rejects it
    as it always has."""
    p3 = PackingProblem(Graph.from_edges(3, [(0, 1), (1, 2)]), Mode.FACTOR)
    check_packing(p3, [LambdaPath(0, 1, 2)])
    for path in (LambdaPath(0, 1.0, 2), LambdaPath(0.0, 1, 2), LambdaPath(0, 1, 2.0)):
        assert fault(p3, [path]) == "non-int vertex"
        with pytest.raises(TypeError):
            check_packing(p3, [path])


def test_the_first_fault_is_named_before_a_later_item_that_is_no_path():
    """A tuple has no ``u``: the whole-witness check leaves it to the path
    by path check, which names the earlier path's fault first."""
    p3 = PackingProblem(
        Graph.from_edges(3, [(0, 1), (1, 2)]), Mode.MAX, deleted_vertices=frozenset({0})
    )
    with pytest.raises(PackingError, match="uses deleted vertex 0$"):
        check_packing(p3, [LambdaPath(0, 1, 2), (0, 1, 2)])
