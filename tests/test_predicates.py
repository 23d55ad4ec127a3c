"""Constrained-factor clause battery and the sampled degree bounds."""

import pytest

from lambdapack import (
    Budget,
    Mode,
    PackingError,
    PackingProblem,
    atlas,
    check_packing,
    enumerate_paths,
    packing,
    residue_factor_clauses,
    solve,
)
from lambdapack.graph import Graph, components, degree_profile
from lambdapack.oracle import oracle_solve
from lambdapack.pipeline import build_pipeline
from lambdapack.sampling import sample_cubic, sample_degree23

CLAUSES = ("z1", "z2", "z3", "z4", "z5", "t2", "f1", "f2")


def clause_queries(g):
    """Each applicable clause's FACTOR queries with their details, in the
    order the clause is defined: the battery's contract, written out plainly."""

    def q(**kw):
        return PackingProblem(g, Mode.FACTOR, **kw)

    edges = g.sorted_edges()
    if g.n % 6 == 0:
        return {
            "z1": [(q(), "factor")],
            "z2": [(q(forbidden_edges=frozenset({e})), f"avoid {e}") for e in edges],
            "z3": [(q(forced_edges=frozenset({e})), f"contain {e}") for e in edges],
            "z4": [
                (q(deleted_edges=frozenset({e1, e2})), f"minus edges {e1},{e2}")
                for i, e1 in enumerate(edges)
                for e2 in edges[i + 1 :]
            ],
            "z5": [
                (q(deleted_vertices=frozenset(p.vertices)), f"minus path {p.vertices}")
                for p in enumerate_paths(g)
            ],
        }
    if g.n % 6 == 2:
        return {
            "t2": [
                (q(deleted_vertices=frozenset(e)), f"minus endpoints of {e}")
                for e in edges
            ]
        }
    if g.n % 6 == 4:
        return {
            "f1": [(q(deleted_vertices=frozenset({x})), f"minus {x}") for x in range(g.n)],
            "f2": [
                (
                    q(deleted_vertices=frozenset({x}), deleted_edges=frozenset({e})),
                    f"minus {x} and {e}",
                )
                for x in range(g.n)
                for e in edges
            ],
        }
    return {}


def reference_clauses(g, decide=solve):
    """One ``decide`` call per query, in order, until a clause's first failure."""
    out = {name: ("n/a", "") for name in CLAUSES}
    for name, queries in clause_queries(g).items():
        out[name] = ("holds", "")
        for prob, what in queries:
            verdict = decide(prob).verdict
            if verdict != "SAT":
                out[name] = ("fails" if verdict == "UNSAT" else "indeterminate", what)
                break
    return out


def statuses(report):
    return {name: (r.status, r.detail) for name, r in report.items()}


def test_k4_residue_4_clauses():
    report = residue_factor_clauses(atlas("K4"))
    assert report["f1"].status == "holds"  # removing any vertex leaves a triangle
    assert report["f2"].status == "holds"
    assert report["z1"].status == "n/a"
    assert report["t2"].status == "n/a"


def test_k33_residue_0_clauses():
    report = residue_factor_clauses(atlas("K33"))
    assert report["z1"].status == "holds"
    assert report["t2"].status == "n/a"


def test_six_prism_clauses():
    report = residue_factor_clauses(atlas("S"))
    assert report["z1"].status == "holds"


def test_cube_residue_2():
    q = atlas("Q")
    report = residue_factor_clauses(q)
    assert statuses(report) == reference_clauses(q, oracle_solve)
    assert report["z1"].status == "n/a"
    assert report["f1"].status == "n/a"


def test_battery_matches_one_search_per_query():
    """Answers taken from a found factor, as it is or repaired, change no
    status and no detail, on graphs of each residue where clauses hold and
    where they fail (on (16, 7) f2 fails on "minus 2 and (0, 12)").  The
    paper's gadgets add failing forced-edge and deleted-edge queries: on K
    z3 fails on "contain (16, 17)", and z4 and z5 fail too; on H f2 fails on
    "minus 0 and (1, 16)"."""
    seen = set()
    cases = [(16, 7), (18, 0), (18, 4), (20, 0), (20, 2), (22, 0), (22, 1)]
    cases += [(24, 0), (26, 0), (26, 1), (32, 0)]
    graphs = {case: sample_cubic(*case) for case in cases}
    pipe = build_pipeline()
    graphs.update((name, pipe.graph(name)) for name in ("K", "H"))
    for case, g in graphs.items():
        expected = reference_clauses(g)
        assert statuses(residue_factor_clauses(g)) == expected, case
        seen |= {(name, status) for name, (status, _) in expected.items()}
    assert {status for _, status in seen} == {"holds", "fails", "n/a"}
    assert {(name, "fails") for name in ("z3", "z4", "z5", "f2")} <= seen


@pytest.mark.parametrize("n, seed, nodes", [(20, 0, 10), (22, 1, 10)])
def test_battery_under_a_node_budget(n, seed, nodes):
    """A query answered without a search costs no budget, so where the
    one-search-per-query reference runs out of budget the battery may go
    on.  Each status is then the reference's, or the unbudgeted answer, or
    "indeterminate" on a query whose own search runs out of the budget."""
    g = sample_cubic(n, seed)
    budget = Budget(max_nodes=nodes)
    budgeted = reference_clauses(g, lambda prob: solve(prob, budget))
    exact = reference_clauses(g)
    queries = {what: prob for qs in clause_queries(g).values() for prob, what in qs}
    got = statuses(residue_factor_clauses(g, budget))
    for name, (status, what) in got.items():
        if budgeted[name][0] != "indeterminate":
            assert (status, what) == budgeted[name], name
        elif status == "indeterminate":
            assert solve(queries[what], budget).verdict == "INDETERMINATE", name
        else:
            assert (status, what) == exact[name], name
    assert "indeterminate" in {status for status, _ in budgeted.values()}


@pytest.mark.parametrize("n, seed", [(18, 4), (20, 0), (22, 1), (24, 0), (26, 0)])
def test_every_query_not_searched_is_rechecked(n, seed, monkeypatch):
    """Each query the battery asks is searched or answered by a factor
    that :func:`check_packing` re-checks; a SAT search re-checks its own
    witness."""
    g = sample_cubic(n, seed)
    reference = reference_clauses(g)
    asked = 0
    for name, qs in clause_queries(g).items():
        whats = [what for _, what in qs]
        status, what = reference[name]
        asked += whats.index(what) + 1 if status == "fails" else len(whats)
    checks, verdicts = [], []

    def counting_check(*args, **kwargs):
        checks.append(args[0])
        return check_packing(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        verdicts.append(res.verdict)
        return res

    monkeypatch.setattr(packing, "check_packing", counting_check)
    monkeypatch.setattr(packing, "solve", counting_solve)
    residue_factor_clauses(g)
    assert len(checks) == asked - len(verdicts) + verdicts.count("SAT")
    assert len(verdicts) < asked


@pytest.mark.parametrize("n, seed", [(18, 0), (20, 0), (22, 0), (24, 0), (26, 0)])
def test_battery_searches_fewer_queries_than_it_asks(n, seed, monkeypatch):
    """Most queries are answered by a factor found before: as it is when it
    has the same deleted vertices and fits the query's edge constraints,
    or else repaired.  Every t2 query (residue 2) deletes different
    vertices, so most of them are answered by repairing a factor found for
    another query."""
    g = sample_cubic(n, seed)
    asked = sum(len(qs) for qs in clause_queries(g).values())
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(packing, "solve", counting_solve)
    report = residue_factor_clauses(g)
    assert all(r.status in ("holds", "n/a") for r in report.values())
    assert 0 < len(calls) < asked


def test_non_cubic_rejected():
    with pytest.raises(PackingError):
        residue_factor_clauses(Graph.from_edges(3, [(0, 1), (1, 2)]))


def test_cubic_bound_on_samples():
    """Sampled cubic graphs always pack at least ceil(n/4) paths."""
    for seed in range(20):
        n = [8, 10, 12, 14, 16][seed % 5]
        g = sample_cubic(n, seed)
        need = -(-n // 4)
        r = solve(PackingProblem(g, Mode.MAX), target=need)
        assert r.verdict == "SAT", (n, seed)
    # every component K4 attains the bound with equality
    assert solve(PackingProblem(atlas("K4"), Mode.MAX)).value == 1 == 4 // 4


def test_degree23_bound_on_samples():
    """Degree-2/3 graphs without 5-vertex components also meet ceil(n/4)."""
    for seed in range(12):
        n = [8, 10, 12, 14][seed % 4]
        g = sample_degree23(n, seed)
        prof = degree_profile(g)
        assert 2 <= prof.min_degree and prof.max_degree <= 3
        assert all(len(c) != 5 for c in components(g))
        need = -(-n // 4)
        r = solve(PackingProblem(g, Mode.MAX), target=need)
        assert r.verdict == "SAT", (n, seed)
