"""Search node counts as upper bounds, and the pipeline's exact counts.

Node counts are deterministic, unlike wall times, so they are the
regression gate of the solver: a change that makes any of these searches
larger has to say why and move the bound.  The pipeline stages' node and
prune counts are also pinned exactly, because ``lambdapack solve`` prints
them: a change that moves any of them has to say why.
"""

import functools

import pytest

from lambdapack import (
    Budget,
    Graph,
    LambdaPath,
    Mode,
    PackingProblem,
    packing,
    residue_factor_clauses,
    solve,
)
from lambdapack.pipeline import family
from lambdapack.sampling import sample_cubic


@functools.cache
def pipeline_graph(name):
    """Stage ``name`` of the default pipeline; ``N_9`` is N of family member 9."""
    stage, _, m = name.partition("_")
    return family(int(m or 0)).graph(stage)


@pytest.mark.parametrize(
    "name, mode, target, verdict, max_nodes",
    [
        ("N", Mode.FACTOR, None, "UNSAT", 97),
        ("N", Mode.MAX, None, "OPTIMUM", 97),
        ("N", Mode.MAX, 23, "SAT", 0),
        ("R", Mode.FACTOR, None, "UNSAT", 138),
        ("R", Mode.MAX, None, "OPTIMUM", 138),
        ("F", Mode.MAX, 17, "SAT", 178),
        ("N_9", Mode.MAX, None, "OPTIMUM", 97),
    ],
)
def test_pipeline_node_counts(name, mode, target, verdict, max_nodes):
    r = solve(PackingProblem(pipeline_graph(name), mode), target=target)
    assert r.verdict == verdict
    assert r.stats.nodes <= max_nodes


@pytest.mark.parametrize(
    "name, mode, verdict, nodes, prunes",
    [
        ("K", Mode.FACTOR, "SAT", 6, {"residue": 9}),
        ("K", Mode.MAX, "OPTIMUM", 6, {"residue": 9}),
        ("R", Mode.FACTOR, "UNSAT", 138, {"memo_hit": 39, "residue": 361}),
        ("R", Mode.MAX, "OPTIMUM", 138, {"memo_hit": 39, "residue": 361}),
        ("H", Mode.MAX, "OPTIMUM", 10, {"residue": 6}),
        ("D", Mode.MAX, "OPTIMUM", 20, {"residue": 36}),
        ("F", Mode.FACTOR, "SAT", 70, {"memo_hit": 21, "residue": 130}),
        ("F", Mode.MAX, "OPTIMUM", 70, {"memo_hit": 21, "residue": 130}),
        ("N", Mode.FACTOR, "UNSAT", 97, {"memo_hit": 37, "residue": 204}),
        ("N", Mode.MAX, "OPTIMUM", 97, {"memo_hit": 37, "residue": 204}),
    ],
)
def test_pipeline_prune_counts_are_pinned(name, mode, verdict, nodes, prunes):
    """H (28 vertices) and D (46) have no FACTOR query: 3 divides neither."""
    r = solve(PackingProblem(pipeline_graph(name), mode))
    assert (r.verdict, r.stats.nodes, dict(r.stats.prunes)) == (verdict, nodes, prunes)


def test_random_cubic_factor_within_budget():
    problem = PackingProblem(sample_cubic(120, 7), Mode.FACTOR)
    r = solve(problem, Budget(max_nodes=5_000))
    assert r.verdict == "SAT"


def test_random_cubic_max_within_budget():
    problem = PackingProblem(sample_cubic(152, 7), Mode.MAX)
    r = solve(problem, Budget(max_nodes=5_000))
    assert r.verdict == "OPTIMUM"
    assert r.value == len(r.paths)


# The 23-packing of N that the exact search finds at slack 3; greedy
# reaches only 21 paths there.
N_SEARCH_WITNESS = [
    (0, 2, 3), (1, 5, 4), (8, 16, 19), (9, 11, 10), (12, 13, 15), (17, 44, 46),
    (18, 65, 64), (20, 21, 25), (23, 22, 24), (26, 28, 29), (30, 32, 33),
    (31, 27, 43), (35, 37, 41), (36, 34, 42), (39, 38, 40), (45, 47, 51),
    (49, 48, 50), (52, 54, 55), (56, 58, 59), (57, 53, 60), (61, 62, 63),
    (66, 67, 68), (69, 70, 71),
]

# The 23-packing of N that the fewest-candidates greedy builds.
N_FEWEST_WITNESS = [
    (0, 2, 3), (4, 6, 7), (5, 1, 17), (9, 11, 10), (12, 8, 16), (13, 15, 14),
    (19, 21, 20), (22, 18, 65), (23, 25, 24), (26, 28, 29), (30, 32, 33),
    (31, 27, 43), (34, 36, 37), (35, 39, 38), (42, 52, 56), (44, 46, 47),
    (48, 50, 51), (49, 45, 60), (53, 55, 54), (57, 59, 58), (61, 67, 66),
    (62, 63, 69), (64, 70, 71),
]


def test_n_search_at_slack_3_finds_its_witness():
    """The exact search, run on its own, is unchanged by the witness phase."""
    engine = packing._Engine(PackingProblem(pipeline_graph("N"), Mode.MAX), Budget())
    wit = engine.search(engine.alive_mask, 3, ())
    assert sorted(LambdaPath.of(*t).vertices for t in wit) == N_SEARCH_WITNESS
    assert engine.stats.nodes <= 324


def test_n_target23_witness_needs_no_search():
    """The fewest-candidates greedy answers target=23 on N after the
    lowest-id greedy misses, at 0 nodes."""
    r = solve(PackingProblem(pipeline_graph("N"), Mode.MAX), target=23)
    assert (r.verdict, r.stats.nodes) == ("SAT", 0)
    assert [p.vertices for p in r.paths] == N_FEWEST_WITNESS


def test_fewest_greedy_runs_only_where_a_witness_is_expected(monkeypatch):
    """On N: never in FACTOR; in MAX only at slack 3, once the search has
    refuted slack 0; for target=23 at its slack 3 with a cap of 23 paths."""
    calls = []
    fewest = packing._Engine.greedy_fewest

    def spy(self, forced, slack, paths=None):
        calls.append((slack, paths))
        return fewest(self, forced, slack, paths)

    monkeypatch.setattr(packing._Engine, "greedy_fewest", spy)
    n = pipeline_graph("N")
    assert solve(PackingProblem(n, Mode.FACTOR)).verdict == "UNSAT"
    assert calls == []
    assert solve(PackingProblem(n, Mode.MAX)).value == 23
    assert calls == [(3, None)]
    assert solve(PackingProblem(n, Mode.MAX), target=23).verdict == "SAT"
    assert calls == [(3, None), (3, 23)]


@pytest.mark.parametrize("n, seed", [(60, 1), (240, 2), (600, 3)])
def test_cubic_lower_bound_needs_no_search(n, seed):
    """Greedy alone reaches ceil(n/4) paths on these cubic graphs."""
    r = solve(PackingProblem(sample_cubic(n, seed), Mode.MAX), target=-(-n // 4))
    assert (r.verdict, r.stats.nodes, len(r.paths)) == ("SAT", 0, -(-n // 4))


def long_path(n, swap):
    """P_n in path order, or with labels 0 and 1 swapped (1-0-2-3-...)."""
    label = [1, 0, *range(2, n)] if swap else list(range(n))
    return Graph.from_edges(n, [(label[i], label[i + 1]) for i in range(n - 1)])


@pytest.mark.parametrize(
    "swap, max_nodes", [(False, 0), (True, 1_000)], ids=["path-order", "swapped"]
)
@pytest.mark.parametrize("mode", [Mode.FACTOR, Mode.MAX])
def test_long_path_node_counts(swap, max_nodes, mode):
    """Greedy answers P_3000 FACTOR and MAX at 0 nodes; when it strands the
    swapped path's end vertex the search places one path per node."""
    r = solve(PackingProblem(long_path(3000, swap), mode))
    assert r.verdict == ("SAT" if mode == Mode.FACTOR else "OPTIMUM")
    assert r.stats.nodes <= max_nodes


def test_max_greedy_first_skips_the_component_walk(monkeypatch):
    """Greedy leaves none of P_3000 uncovered, which meets live mod 3, so
    MAX answers without the component walk for the residue bound."""
    walks = []
    components = packing._Engine._components

    def spy(self, free):
        walks.append(free)
        return components(self, free)

    monkeypatch.setattr(packing._Engine, "_components", spy)
    r = solve(PackingProblem(long_path(3000, False), Mode.MAX))
    assert (r.verdict, r.value, r.stats.nodes, walks) == ("OPTIMUM", 1000, 0, [])


@pytest.fixture
def searches(monkeypatch):
    """The node count of each search the clause battery runs."""
    counts = []

    def counting_solve(*args, **kwargs):
        r = solve(*args, **kwargs)
        counts.append(r.stats.nodes)
        return r

    monkeypatch.setattr(packing, "solve", counting_solve)
    return counts


@pytest.mark.parametrize(
    "seed, max_calls, max_nodes", [(0, 24, 233), (1, 27, 282), (2, 25, 217)]
)
def test_clause_battery_search_counts(seed, max_calls, max_nodes, searches):
    """Search calls and their total nodes over the battery on a 24-vertex
    cubic graph (775 queries), most of which a found factor answers, as it
    is or repaired."""
    report = residue_factor_clauses(sample_cubic(24, seed))
    assert all(r.status == "holds" for name, r in report.items() if name[0] == "z")
    assert len(searches) <= max_calls
    assert sum(searches) <= max_nodes


@pytest.mark.parametrize(
    "n, seed, max_calls, max_nodes",
    [
        (20, 0, 30, 197),
        (20, 1, 30, 184),
        (22, 0, 123, 959),
        (22, 1, 140, 1_113),
        (22, 2, 132, 1_008),
    ],
)
def test_clause_battery_search_counts_residues_2_and_4(
    n, seed, max_calls, max_nodes, searches
):
    """The ceilings for t2 (n = 20, residue 2) and f1, f2 (n = 22,
    residue 4), whose queries delete vertices, from before any factor was
    reused for them; the repair rule stays well within them."""
    report = residue_factor_clauses(sample_cubic(n, seed))
    applicable = ("t2",) if n % 6 == 2 else ("f1", "f2")
    assert all(report[name].status == "holds" for name in applicable)
    assert len(searches) <= max_calls
    assert sum(searches) <= max_nodes


@pytest.mark.parametrize(
    "n, seed, max_calls, max_nodes",
    [
        (20, 0, 5, 32),
        (20, 1, 10, 62),
        (26, 0, 11, 94),
        (32, 0, 16, 227),
        (22, 0, 105, 826),
        (22, 1, 118, 959),
        (22, 2, 119, 916),
    ],
)
def test_clause_battery_search_counts_with_path_exchange(
    n, seed, max_calls, max_nodes, searches
):
    """The ceilings reached when only queries without an edge constraint
    reused a found factor (t2 at n = 20, 26, 32; f1 at n = 22); the repair
    rule, which also answers f2, must not search more than that."""
    report = residue_factor_clauses(sample_cubic(n, seed))
    applicable = ("t2",) if n % 6 == 2 else ("f1", "f2")
    assert all(report[name].status == "holds" for name in applicable)
    assert len(searches) <= max_calls
    assert sum(searches) <= max_nodes


@pytest.mark.parametrize(
    "n, seed, max_calls, max_nodes",
    [
        (20, 0, 5, 26),
        (20, 1, 10, 62),
        (26, 0, 11, 94),
        (32, 0, 16, 227),
        (22, 0, 22, 165),
        (22, 1, 29, 213),
        (22, 2, 23, 183),
    ],
)
def test_clause_battery_search_counts_with_repair(
    n, seed, max_calls, max_nodes, searches
):
    """The counts for t2 (n = 20, 26, 32, residue 2) and f1, f2 (n = 22,
    residue 4), whose queries delete vertices: most are answered by
    repairing a factor found for another query."""
    report = residue_factor_clauses(sample_cubic(n, seed))
    applicable = ("t2",) if n % 6 == 2 else ("f1", "f2")
    assert all(report[name].status == "holds" for name in applicable)
    assert len(searches) <= max_calls
    assert sum(searches) <= max_nodes
