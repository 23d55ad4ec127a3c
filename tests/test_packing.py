"""Solver behavior: enumeration, both modes, constraints, budgets, witnesses."""

import ast
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from lambdapack import (
    Budget,
    Graph,
    GraphError,
    LambdaPath,
    Mode,
    PackingError,
    PackingProblem,
    atlas,
    check_packing,
    enumerate_factors,
    enumerate_paths,
    solve,
)
from lambdapack.pipeline import build_pipeline, find_seams
from lambdapack import packing
from lambdapack.sampling import sample_cubic, sample_subcubic


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


@pytest.mark.parametrize("field", ["deleted_edges", "forced_edges", "forbidden_edges"])
def test_loop_edge_is_a_packing_error(field):
    with pytest.raises(PackingError, match="loop edge at vertex 3"):
        PackingProblem(atlas("Q"), Mode.MAX, **{field: frozenset({(3, 3)})})


# A 6-cycle, with three factors.
C6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


@pytest.mark.parametrize(
    "kw, paths, error, message",
    [
        ({}, [LambdaPath(5, 0, 6)], GraphError, "vertex 6 out of range for n=6"),
        (
            {"deleted_vertices": frozenset({0, 1, 2})},
            [LambdaPath(0, 1, 2)],
            PackingError,
            "path LambdaPath(u=0, v=1, w=2) uses deleted vertex 0",
        ),
        (
            {},
            [LambdaPath(0, 1, 2), LambdaPath(2, 3, 4)],
            PackingError,
            "vertex 2 covered twice",
        ),
        (
            {},
            [LambdaPath(0, 1, 3)],
            PackingError,
            "path LambdaPath(u=0, v=1, w=3) uses a non-edge (1, 3)",
        ),
        (
            {"deleted_edges": frozenset({(1, 2)})},
            [LambdaPath(0, 1, 2)],
            PackingError,
            "path LambdaPath(u=0, v=1, w=2) uses a deleted/forbidden edge (1, 2)",
        ),
        (
            {"forbidden_edges": frozenset({(0, 1)})},
            [LambdaPath(0, 1, 2)],
            PackingError,
            "path LambdaPath(u=0, v=1, w=2) uses a deleted/forbidden edge (0, 1)",
        ),
        (
            {"forced_edges": frozenset({(2, 3), (0, 5)})},
            [LambdaPath(0, 1, 2), LambdaPath(3, 4, 5)],
            PackingError,
            "forced edges not covered: [(0, 5), (2, 3)]",
        ),
        (
            {"mode": Mode.FACTOR},
            [LambdaPath(0, 1, 2)],
            PackingError,
            "factor misses vertices [3, 4, 5]",
        ),
    ],
)
def test_check_packing_rejections(kw, paths, error, message):
    problem = PackingProblem(C6, **{"mode": Mode.MAX, **kw})
    with pytest.raises(ValueError) as exc:
        check_packing(problem, paths)
    assert (exc.type, str(exc.value)) == (error, message)


def test_check_packing_accepts_valid_witnesses():
    pair = [LambdaPath(0, 1, 2), LambdaPath(3, 4, 5)]
    check_packing(PackingProblem(C6, Mode.FACTOR), pair)
    check_packing(PackingProblem(C6, Mode.FACTOR, forced_edges=frozenset({(2, 3)})),
                  iter([LambdaPath(1, 2, 3), LambdaPath(0, 5, 4)]))
    check_packing(PackingProblem(C6, Mode.MAX), [])
    check_packing(PackingProblem(C6, Mode.MAX, deleted_vertices=frozenset({0})),
                  [LambdaPath(2, 3, 4)])
    check_packing(
        PackingProblem(C6, Mode.MAX, deleted_edges=frozenset({(1, 2)}),
                       forbidden_edges=frozenset({(4, 5)})),
        [LambdaPath(2, 3, 4)],
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
    # a search far longer than 2048 nodes stops at the first clock reading
    big = PackingProblem(sample_cubic(600, 7), Mode.FACTOR)
    r = solve(big, budget=Budget(max_seconds=0.0))
    assert (r.verdict, r.stats.exhausted) == ("INDETERMINATE", "seconds")


@pytest.mark.parametrize("mode", [Mode.FACTOR, Mode.MAX])
def test_zero_second_budget_stops_a_small_search(mode):
    """The deadline is checked before the first node, not only every 2048."""
    r = solve(PackingProblem(atlas("S"), mode), budget=Budget(max_seconds=0))
    assert (r.verdict, r.stats.exhausted, r.stats.nodes) == ("INDETERMINATE", "seconds", 0)


def test_indeterminate_max_covers_forced_edges():
    """The lower bound returned when a budget runs out is itself admissible."""
    n = build_pipeline().graph("N")
    problem = PackingProblem(n, Mode.MAX, forced_edges=frozenset({(70, 71)}))
    r = solve(problem, Budget(max_nodes=5))
    assert r.verdict == "INDETERMINATE"
    check_packing(problem, r.paths)
    assert r.value == len(r.paths) and any((70, 71) in p.edges for p in r.paths)


def test_indeterminate_max_without_admissible_greedy_has_no_value():
    """Greedy takes 0-1-2 for the first forced edge, which strands 3-4."""
    path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    problem = PackingProblem(path, Mode.MAX, forced_edges=frozenset({(0, 1), (3, 4)}))
    r = solve(problem, Budget(max_nodes=0))
    assert (r.verdict, r.value, r.paths) == ("INDETERMINATE", None, None)
    assert solve(problem).verdict == "UNSAT"


@pytest.mark.parametrize(
    "budget, exhausted",
    [(Budget(max_nodes=0), "nodes"), (Budget(max_seconds=0), "seconds")],
)
def test_zero_budget_stops_the_target_witness_phase(budget, exhausted):
    """Greedy would find 2 paths in the cube at once; a zero budget of
    either kind still ends the query before it."""
    r = solve(PackingProblem(atlas("Q"), Mode.MAX), budget, target=2)
    assert (r.verdict, r.stats.exhausted, r.stats.nodes) == ("INDETERMINATE", exhausted, 0)
    assert solve(PackingProblem(atlas("Q"), Mode.MAX), target=2).stats.nodes == 0


def test_greedy_target_witness_keeps_forced_paths():
    """target=0 with a forced edge still returns the path on that edge."""
    k = build_pipeline().graph("K")
    edge = min(k.edges)
    problem = PackingProblem(k, Mode.MAX, forced_edges=frozenset({edge}))
    r = solve(problem, target=0)
    assert r.verdict == "SAT" and r.stats.nodes == 0
    assert len(r.paths) == 1 and edge in r.paths[0].edges


def _long_path_results(path):
    n = path.n
    return [
        solve(PackingProblem(path, Mode.FACTOR)),
        solve(PackingProblem(path, Mode.MAX)),
        solve(PackingProblem(path, Mode.MAX), target=n // 3),
    ]


def test_long_path_has_no_depth_limit():
    """One frame per placed path would exceed Python's recursion limit here;
    with labels in path order greedy answers every mode without a frame."""
    n = 3000
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    unique = tuple(LambdaPath(i, i + 1, i + 2) for i in range(0, n, 3))
    results = _long_path_results(path)
    assert [r.verdict for r in results] == ["SAT", "OPTIMUM", "SAT"]
    for r in results:
        assert r.paths == unique and r.value == n // 3
        assert r.stats.nodes == 0


def test_long_path_search_has_no_depth_limit():
    """The same path with labels 0 and 1 swapped: greedy takes 0-2-3 and
    strands the end vertex 1, so FACTOR and MAX run the search, one frame
    per placed path, 1,000 deep.  The fewest-candidates greedy answers
    target=n/3 at 0 nodes, so the search target= would run is driven
    directly, at its slack live - 3k."""
    n = 3000
    label = [1, 0, *range(2, n)]
    path = Graph.from_edges(n, [(label[i], label[i + 1]) for i in range(n - 1)])
    unique = (LambdaPath(1, 0, 2),) + tuple(
        LambdaPath(i, i + 1, i + 2) for i in range(3, n, 3)
    )
    results = _long_path_results(path)
    assert [r.verdict for r in results] == ["SAT", "OPTIMUM", "SAT"]
    for r in results:
        assert r.paths == unique and r.value == n // 3
    assert [r.stats.nodes >= n // 3 for r in results] == [True, True, False]
    engine = packing._Engine(PackingProblem(path, Mode.MAX), Budget())
    wit = engine.search(engine.alive_mask, n - 3 * (n // 3), ())
    assert sorted(LambdaPath.of(*t).vertices for t in wit) == [p.vertices for p in unique]
    assert engine.stats.nodes >= n // 3


def _reference_greedy(engine, free):
    """The reference greedy: the least canonical candidate path through the
    lowest free vertex, found by listing every candidate."""
    out = []
    while free:
        v = (free & -free).bit_length() - 1
        path = min(engine._paths_covering(v, free), default=None)
        if path is None:
            free &= ~(1 << v)
        else:
            out.append(path)
            free &= ~((1 << path[0]) | (1 << path[1]) | (1 << path[2]))
    return out


@pytest.mark.parametrize("sample", [sample_cubic, sample_subcubic])
@pytest.mark.parametrize("seed", range(6))
def test_greedy_takes_the_least_candidate_path(sample, seed):
    """Greedy's pick from the lowest free vertex's neighbourhood is the least
    canonical candidate, so its packings (and the target= witnesses cut from
    them) equal those of a greedy that lists every candidate."""
    rng = random.Random(seed)
    for n in (18, 30, 46, 64):
        g = sample(n, seed)
        edges = g.sorted_edges()
        for _ in range(4):
            picked = rng.sample(edges, min(len(edges), 4))
            problem = PackingProblem(
                g,
                Mode.MAX,
                deleted_vertices=frozenset(rng.sample(range(n), rng.randrange(4))),
                deleted_edges=frozenset(picked[:2]),
                forbidden_edges=frozenset(picked[2:]),
            )
            engine = packing._Engine(problem, Budget())
            live = engine.alive_mask.bit_count()
            expected = _reference_greedy(engine, engine.alive_mask)
            assert engine.greedy((), live) == expected
            check_packing(problem, [LambdaPath.of(*t) for t in expected])


def _reference_fewest(engine, free):
    """The reference fewest-candidates greedy: every candidate of every free
    vertex listed again at each step."""
    adj, out = engine.adj, []
    while free:
        counts = {v: len(list(engine._paths_covering(v, free))) for v in packing._bits(free)}
        v = min(counts, key=lambda x: (counts[x], x))
        if not counts[v]:
            free &= ~(1 << v)
            continue

        def isolated(t):
            rest = free & ~((1 << t[0]) | (1 << t[1]) | (1 << t[2]))
            return sum(1 for x in packing._bits(rest) if not adj[x] & rest)

        path = min(engine._paths_covering(v, free), key=lambda t: (isolated(t), t))
        out.append(path)
        free &= ~((1 << path[0]) | (1 << path[1]) | (1 << path[2]))
    return out


@pytest.mark.parametrize("sample", [sample_cubic, sample_subcubic])
@pytest.mark.parametrize("seed", range(4))
def test_fewest_greedy_matches_a_full_recount(sample, seed):
    """Recounting only within distance 2 of each removal, with stale heap
    entries skipped, picks the same vertices and paths as recounting all."""
    rng = random.Random(seed)
    for n in (18, 30, 46, 64):
        g = sample(n, seed)
        problem = PackingProblem(
            g, Mode.MAX, deleted_vertices=frozenset(rng.sample(range(n), rng.randrange(4)))
        )
        engine = packing._Engine(problem, Budget())
        live = engine.alive_mask.bit_count()
        assert engine.greedy_fewest((), live) == _reference_fewest(engine, engine.alive_mask)


def _splits_into_paths(g, hole):
    """Whether the vertex set ``hole`` splits into 3-vertex paths of ``g``,
    by trying every path through its lowest vertex."""
    if not hole:
        return True
    low = min(hole)
    for pair in itertools.combinations(sorted(hole - {low}), 2):
        t = (low, *pair)
        if any(all(g.has_edge(c, x) for x in t if x != c) for c in t):
            if _splits_into_paths(g, hole - set(t)):
                return True
    return False


@pytest.mark.parametrize("seed", range(3))
def test_cover_hole_covers_exactly_or_says_it_cannot(seed):
    """An empty hole needs no path; a hole of 3 or 6 vertices is covered
    exactly by paths of the graph inside it whenever such paths exist, and
    is None otherwise; a hole of more than 6 vertices is None even when it
    could be covered."""
    g = sample_cubic(18, seed)
    engine = packing._Engine(PackingProblem(g, Mode.MAX), Budget())
    assert engine.cover_hole(0) == []
    paths = [set(p.vertices) for p in enumerate_paths(g)]
    pairs = [p | q for p, q in itertools.combinations(paths, 2) if not p & q]
    rng = random.Random(seed)
    drawn = [set(rng.sample(range(g.n), k)) for k in (3, 6) for _ in range(300)]
    outcomes = set()
    for hole in paths + pairs + drawn:
        fill = engine.cover_hole(sum(1 << v for v in hole))
        outcomes.add((len(hole), fill is None))
        if fill is None:
            assert not _splits_into_paths(g, hole), hole
            continue
        assert len(fill) == len(hole) // 3
        assert sorted(v for t in fill for v in t) == sorted(hole)
        for t in fill:
            path = LambdaPath.of(*t)
            assert all(g.has_edge(*e) for e in path.edges)
    assert outcomes == {(3, False), (3, True), (6, False), (6, True)}
    # three disjoint paths: coverable, but more than 6 vertices
    triple = next(
        p | q | r
        for p, q, r in itertools.combinations(paths, 3)
        if len(p | q | r) == 9
    )
    assert _splits_into_paths(g, triple)
    assert engine.cover_hole(sum(1 << v for v in triple)) is None
    seven = set(rng.sample(range(g.n), 7))
    assert engine.cover_hole(sum(1 << v for v in seven)) is None


def test_greedy_gives_up_past_its_slack():
    """On the swapped-label P_6 (1-0-2-3-4-5) greedy takes 0-2-3, 4-5 is
    left with no path and vertex 1 is stranded: 3 vertices uncovered."""
    path = Graph.from_edges(6, [(1, 0), (0, 2), (2, 3), (3, 4), (4, 5)])
    engine = packing._Engine(PackingProblem(path, Mode.MAX), Budget())
    assert engine.greedy((), 3) == [(0, 2, 3)]
    assert engine.greedy((), 2) is None
    assert engine.greedy((), 0) is None
    assert engine.greedy((), 6, paths=0) == []
    # greedy's miss leaves the answer to the search
    assert solve(PackingProblem(path, Mode.FACTOR)).verdict == "SAT"


def test_deterministic_witness():
    pipe = build_pipeline()
    h = pipe.graph("H")
    prob = PackingProblem(h, Mode.FACTOR, deleted_vertices=frozenset({0}))
    r1, r2 = solve(prob), solve(prob)
    assert r1.verdict == r2.verdict
    assert r1.paths == r2.paths
    assert r1.stats.nodes == r2.stats.nodes


def test_labels_and_seams_do_not_change_the_search():
    """The search finds each split itself: composition labels, and the seams
    read off them, change no verdict, witness, node count or prune."""
    pipe = build_pipeline()
    d = pipe.graph("D")
    bare = Graph.from_edges(d.n, d.sorted_edges())  # labels v0, v1, ...
    x = pipe.marked_vertex_of_d()
    runs = [
        solve(PackingProblem(d, Mode.FACTOR, deleted_vertices=frozenset({x}))),
        solve(
            PackingProblem(d, Mode.FACTOR, deleted_vertices=frozenset({x})),
            seams=find_seams(d),
        ),
        solve(PackingProblem(bare, Mode.FACTOR, deleted_vertices=frozenset({x}))),
    ]
    assert [r.verdict for r in runs] == ["UNSAT"] * 3
    outcomes = {(r.paths, r.stats.nodes, tuple(sorted(r.stats.prunes.items()))) for r in runs}
    assert len(outcomes) == 1
    assert "seam_parity" not in runs[0].stats.prunes


def test_split_pieces_are_the_components(monkeypatch):
    """The pieces found by walks from the removed path's neighbours are
    exactly the components a full search would find, in the same order,
    and a set handed on as one piece is connected, on the paper's graphs
    and on random cubic graphs, where a walk sweeps most of a large piece
    before it reaches the neighbours left."""
    engine = packing._Engine
    split, comp, frame = engine._split, engine._comp, engine._frame
    sizes = []
    ways = Counter()

    def checked_split(self, free, slack, forced, deg, comps):
        assert comps == self._components(free)
        sizes.append(len(comps))
        return split(self, free, slack, forced, deg, comps)

    def checked_comp(self, c, slack, forced, deg):
        assert len(self._components(c)) == 1
        return comp(self, c, slack, forced, deg)

    def counted_frame(self, *args):
        splits = len(sizes)
        child = frame(self, *args)
        if child is not None:
            ways["split" if len(sizes) > splits else "whole"] += 1
        return child

    monkeypatch.setattr(engine, "_split", checked_split)
    monkeypatch.setattr(engine, "_comp", checked_comp)
    monkeypatch.setattr(engine, "_frame", counted_frame)
    pipe = build_pipeline()
    graphs = [pipe.graph("R"), pipe.graph("N")]
    graphs += [sample_subcubic(30, seed) for seed in range(8)]
    for g in graphs:
        solve(PackingProblem(g, Mode.MAX))
    assert max(sizes) >= 3
    for seed in range(3):
        problem = PackingProblem(sample_cubic(300, seed), Mode.FACTOR)
        solve(problem, Budget(max_nodes=2000))
    assert ways["split"] and ways["whole"], dict(ways)


def test_solver_imports_only_the_graph_module():
    """Label conventions (seams, pipelines) stay out of the solver."""
    source = Path(__file__).parents[1] / "src" / "lambdapack" / "packing.py"
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "graph"), ast.dump(node)
        if isinstance(node, ast.ImportFrom) and not node.level:
            assert not node.module.startswith("lambdapack"), node.module
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("lambdapack") for a in node.names)


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


def _brute_force_factors(problem: PackingProblem) -> set[frozenset[LambdaPath]]:
    """Every factor, as a subset of disjoint usable paths covering the live vertices."""
    g = problem.graph
    live = problem.alive
    banned = problem.deleted_edges | problem.forbidden_edges
    paths = [
        LambdaPath.of(a, v, b)
        for v in sorted(live)
        for a, b in itertools.combinations(g.adj[v], 2)
        if a in live and b in live
        and (min(a, v), max(a, v)) not in banned
        and (min(b, v), max(b, v)) not in banned
    ]
    factors = set()

    def extend(start: int, covered: frozenset, chosen: tuple) -> None:
        if len(covered) == len(live):
            if problem.forced_edges <= {e for p in chosen for e in p.edges}:
                factors.add(frozenset(chosen))
            return
        for i in range(start, len(paths)):
            if covered.isdisjoint(paths[i].vertices):
                extend(i + 1, covered.union(paths[i].vertices), chosen + (paths[i],))

    extend(0, frozenset(), ())
    return factors


def _constrained_problems():
    s = atlas("S")
    yield PackingProblem(s)
    yield PackingProblem(s, forced_edges=frozenset({(0, 1)}))
    yield PackingProblem(s, forbidden_edges=frozenset({(0, 1)}))
    yield PackingProblem(s, deleted_edges=frozenset({(0, 1), (6, 7)}))
    yield PackingProblem(s, deleted_vertices=frozenset({0, 1, 2}))
    yield PackingProblem(atlas("Q"), deleted_vertices=frozenset({0, 7}))
    yield PackingProblem(atlas("K33"), forced_edges=frozenset({min(atlas("K33").edges)}))
    rng = random.Random(11)
    for seed in range(12):
        g = sample_cubic(12, seed) if seed % 2 else sample_subcubic(9, seed)
        edges = g.sorted_edges()
        picked = rng.sample(edges, 3)
        kw = {
            "forced_edges": frozenset(picked[:1]),
            "forbidden_edges": frozenset(picked[1:2]),
            "deleted_edges": frozenset(picked[2:]),
        }
        if seed % 4 == 3:
            kw["deleted_vertices"] = frozenset(rng.sample(range(g.n), 3))
        yield PackingProblem(g, **kw)


def test_enumerate_factors_finds_every_factor():
    seen = 0
    for problem in _constrained_problems():
        found = list(enumerate_factors(problem))
        assert len(set(map(frozenset, found))) == len(found), problem
        assert set(map(frozenset, found)) == _brute_force_factors(problem), problem
        seen += len(found)
    assert seen > 0


def test_enumerate_factors_streams_at_any_size():
    # the first factor costs one solve; 60 live vertices are past the old cap
    problem = PackingProblem(sample_cubic(60, 1), Mode.FACTOR)
    check_packing(problem, next(enumerate_factors(problem)))


@pytest.mark.parametrize(
    "kw",
    [
        {"max_nodes": -5},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},
        {"max_nodes": float("nan")},
    ],
)
def test_invalid_budget_is_a_packing_error(kw):
    with pytest.raises(PackingError, match="must be >= 0"):
        Budget(**kw)


def test_unbounded_and_zero_budgets_are_valid():
    Budget(max_nodes=0, max_seconds=0.0)
    r = solve(PackingProblem(atlas("Q"), Mode.MAX), Budget(max_seconds=float("inf")))
    assert (r.verdict, r.value) == ("OPTIMUM", 2)


def test_enumerate_factors_spent_time_budget_is_indeterminate():
    """A deadline already past gives the next search 0 seconds, not a
    negative (invalid) budget."""
    problem = PackingProblem(atlas("S"), Mode.FACTOR)
    with pytest.raises(PackingError, match="exceeded its budget"):
        next(enumerate_factors(problem, Budget(max_seconds=0.0)))


def test_enumerate_factors_budget_covers_every_search():
    problem = PackingProblem(atlas("S"), Mode.FACTOR)
    with pytest.raises(PackingError, match="budget"):
        next(enumerate_factors(problem, Budget(max_nodes=0)))
    found = []
    with pytest.raises(PackingError, match="budget"):
        for factor in enumerate_factors(problem, Budget(max_nodes=50)):
            found.append(frozenset(factor))
    # S has 45 factors; the budget runs out part-way, after some are yielded
    assert 0 < len(set(found)) < 45
