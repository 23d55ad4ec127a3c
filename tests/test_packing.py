"""Solver behavior: enumeration, both modes, constraints, budgets, witnesses."""

import pytest

from lambdapack import (
    Budget,
    Graph,
    LambdaPath,
    Mode,
    PackingError,
    PackingProblem,
    Seam,
    atlas,
    check_packing,
    enumerate_paths,
    solve,
)
from lambdapack.pipeline import build_pipeline, find_seams
from lambdapack.sampling import sample_cubic


def test_lambda_path_canonical():
    p = LambdaPath.of(5, 1, 3)
    assert p.vertices == (3, 1, 5)
    assert p.edges == ((1, 3), (1, 5))
    with pytest.raises(PackingError):
        LambdaPath(4, 1, 2)  # not canonical
    with pytest.raises(PackingError):
        LambdaPath(1, 1, 2)


def test_enumerate_paths_p3():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert enumerate_paths(p3) == (LambdaPath(0, 1, 2),)


def test_enumerate_paths_k4():
    # 4 centers, 3 neighbor pairs each
    assert len(enumerate_paths(atlas("K4"))) == 12


def test_paths_through_a_cube_vertex():
    q = atlas("Q")
    paths = enumerate_paths(q)
    for v in range(q.n):
        through = [p for p in paths if v in p.vertices]
        assert len(through) == 9  # 3 centered + 6 ended


def test_enumerate_respects_constraints():
    q = atlas("Q")
    problem = PackingProblem(
        q, Mode.MAX, deleted_vertices=frozenset({0}),
        forbidden_edges=frozenset({(1, 3)}),
    )
    for p in enumerate_paths(q, problem):
        assert 0 not in p.vertices
        assert (1, 3) not in p.edges


def test_factor_of_six_prism():
    r = solve(PackingProblem(atlas("S"), Mode.FACTOR))
    assert r.verdict == "SAT"
    assert len(r.paths) == 4


def test_k_has_no_factor_containing_middle_edge():
    pipe = build_pipeline()
    k = pipe.graph("K")
    z = pipe.middle_edge_of_k()
    r = solve(PackingProblem(k, Mode.FACTOR, forced_edges=frozenset({z})))
    assert r.verdict == "UNSAT"
    # but K does have factors when the middle edge is not forced
    assert solve(PackingProblem(k, Mode.FACTOR)).verdict == "SAT"


def test_max_packing_values():
    # frozen from the exhaustive oracle
    assert solve(PackingProblem(atlas("K4"), Mode.MAX)).value == 1
    assert solve(PackingProblem(atlas("Q"), Mode.MAX)).value == 2
    assert solve(PackingProblem(atlas("K33"), Mode.MAX)).value == 2
    assert solve(PackingProblem(atlas("S"), Mode.MAX)).value == 4


def test_optimum_value_equals_witness_size():
    for name in ("K4", "K33", "Q", "S"):
        r = solve(PackingProblem(atlas(name), Mode.MAX))
        assert r.verdict == "OPTIMUM"
        assert r.value == len(r.paths)
        check_packing(PackingProblem(atlas(name), Mode.MAX), r.paths)


def test_upper_bound_floor_n_over_3():
    for seed in range(8):
        g = sample_cubic(12, seed)
        r = solve(PackingProblem(g, Mode.MAX))
        assert r.value <= g.n // 3


def test_monotone_under_vertex_deletion():
    for seed in range(5):
        g = sample_cubic(10, seed)
        base = solve(PackingProblem(g, Mode.MAX)).value
        for v in range(g.n):
            r = solve(PackingProblem(g, Mode.MAX, deleted_vertices=frozenset({v})))
            assert r.value >= base - 1


def test_deleted_forced_endpoint_is_unsat():
    k4 = atlas("K4")
    problem = PackingProblem(
        k4, Mode.FACTOR,
        deleted_vertices=frozenset({0}),
        forced_edges=frozenset({(0, 1)}),
    )
    assert solve(problem).verdict == "UNSAT"
    problem = PackingProblem(
        k4, Mode.MAX,
        deleted_vertices=frozenset({0}),
        forced_edges=frozenset({(0, 1)}),
    )
    assert solve(problem).verdict == "UNSAT"


def test_factor_mode_needs_residue_zero():
    with pytest.raises(PackingError):
        PackingProblem(atlas("K4"), Mode.FACTOR)


def test_forced_and_forbidden_disjoint():
    with pytest.raises(PackingError):
        PackingProblem(
            atlas("S"), Mode.FACTOR,
            forced_edges=frozenset({(0, 1)}),
            forbidden_edges=frozenset({(0, 1)}),
        )


def test_budget_yields_indeterminate():
    pipe = build_pipeline()
    n = pipe.graph("N")
    r = solve(PackingProblem(n, Mode.MAX), budget=Budget(max_nodes=50))
    assert r.verdict == "INDETERMINATE"
    # the fallback lower bound is a real packing
    check_packing(PackingProblem(n, Mode.MAX), r.paths)
    assert r.value == len(r.paths)


def test_target_mode():
    q = atlas("Q")
    assert solve(PackingProblem(q, Mode.MAX), target=2).verdict == "SAT"
    assert solve(PackingProblem(q, Mode.MAX), target=3).verdict == "UNSAT"


def test_negative_target_is_rejected():
    k = build_pipeline().graph("K")
    with pytest.raises(PackingError, match="target must be >= 0"):
        solve(PackingProblem(k, Mode.MAX), target=-1)
    assert solve(PackingProblem(k, Mode.MAX), target=0).paths == ()


def test_stats_name_the_exhausted_budget():
    n = build_pipeline().graph("N")
    assert solve(PackingProblem(n, Mode.MAX)).stats.exhausted is None
    r = solve(PackingProblem(n, Mode.MAX), budget=Budget(max_nodes=50))
    assert (r.verdict, r.stats.exhausted) == ("INDETERMINATE", "nodes")
    # the clock is read every 2048 nodes, and this search needs more
    big = PackingProblem(sample_cubic(600, 7), Mode.FACTOR)
    r = solve(big, budget=Budget(max_seconds=0.0))
    assert (r.verdict, r.stats.exhausted) == ("INDETERMINATE", "seconds")


def test_long_path_has_no_depth_limit():
    """One frame per placed path would exceed Python's recursion limit here."""
    n = 3000
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    unique = tuple(LambdaPath(i, i + 1, i + 2) for i in range(0, n, 3))
    results = [
        solve(PackingProblem(path, Mode.FACTOR)),
        solve(PackingProblem(path, Mode.MAX)),
        solve(PackingProblem(path, Mode.MAX), target=n // 3),
    ]
    assert [r.verdict for r in results] == ["SAT", "OPTIMUM", "SAT"]
    for r in results:
        assert r.paths == unique and r.value == n // 3


def test_deterministic_witness():
    pipe = build_pipeline()
    h = pipe.graph("H")
    prob = PackingProblem(h, Mode.FACTOR, deleted_vertices=frozenset({0}))
    r1, r2 = solve(prob), solve(prob)
    assert r1.verdict == r2.verdict
    assert r1.paths == r2.paths
    assert r1.stats.nodes == r2.stats.nodes


def test_seam_annotations_accepted_and_sound():
    pipe = build_pipeline()
    d = pipe.graph("D")
    x = pipe.marked_vertex_of_d()
    prob = PackingProblem(d, Mode.FACTOR, deleted_vertices=frozenset({x}))
    plain = solve(prob)
    seamed = solve(prob, seams=find_seams(d))
    assert plain.verdict == seamed.verdict == "UNSAT"
    assert seamed.stats.nodes <= plain.stats.nodes


def test_seam_rejects_non_matching_cut():
    k4 = atlas("K4")
    with pytest.raises(PackingError):
        solve(PackingProblem(k4, Mode.MAX), seams=(Seam(frozenset({0})),))


def test_strict_packing_deficit_iff_no_factor():
    """lambda(G) < n/3 exactly when no factor exists (n divisible by 3)."""
    corpus = [atlas("K33"), atlas("S")]
    for seed in range(6):
        corpus.append(sample_cubic(12, seed))
    for g in corpus:
        assert g.n % 3 == 0
        value = solve(PackingProblem(g, Mode.MAX)).value
        factor = solve(PackingProblem(g, Mode.FACTOR)).verdict
        assert (value < g.n // 3) == (factor == "UNSAT")
