"""Branch-and-bound vs. the naive exhaustive oracle on small graphs."""

import random
from dataclasses import replace

import pytest

from lambdapack import (
    Budget,
    LambdaPath,
    Mode,
    PackingError,
    PackingProblem,
    atlas,
    check_packing,
    oracle_solve,
    packing,
    solve,
)
from lambdapack.constructions import PortedVertex, vsub
from lambdapack.graph import Graph
from lambdapack.sampling import sample_cubic, sample_subcubic


def _agree(problem: PackingProblem) -> None:
    a = solve(problem)
    b = oracle_solve(problem)
    assert a.verdict == b.verdict, problem
    if a.verdict == "OPTIMUM":
        assert a.value == b.value, problem


def test_atlas_agreement_both_modes():
    for name in ("K4", "K33", "Q", "S"):
        g = atlas(name)
        _agree(PackingProblem(g, Mode.MAX))
        if g.n % 3 == 0:
            _agree(PackingProblem(g, Mode.FACTOR))


def test_max_when_the_residue_bound_exceeds_live_mod_3(monkeypatch):
    """P_2 + P_4: live mod 3 is 0 but the residue bound is 2 + 1 = 3, so
    greedy misses at slack 0 and runs again at the bound, where it meets
    the oracle's optimum."""
    slacks = []
    greedy = packing._Engine.greedy

    def spy(self, forced, slack, paths=None):
        slacks.append(slack)
        return greedy(self, forced, slack, paths)

    monkeypatch.setattr(packing._Engine, "greedy", spy)
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    problem = PackingProblem(g, Mode.MAX)
    r = solve(problem)
    assert slacks == [0, 3]
    assert (r.verdict, r.value) == ("OPTIMUM", oracle_solve(problem).value)
    assert r.value == 1
    check_packing(problem, r.paths)


def test_oracle_frozen_values():
    assert oracle_solve(PackingProblem(atlas("Q"), Mode.MAX)).value == 2
    assert oracle_solve(PackingProblem(atlas("K33"), Mode.MAX)).value == 2
    assert oracle_solve(PackingProblem(atlas("K4"), Mode.MAX)).value == 1


def test_composite_agreement():
    g = vsub(PortedVertex.default(atlas("K4"), 0), PortedVertex.default(atlas("K4"), 0))
    _agree(PackingProblem(g, Mode.FACTOR))
    _agree(PackingProblem(g, Mode.MAX))


def test_random_agreement_with_constraints():
    rng = random.Random(901)
    for trial in range(120):
        n = rng.choice([4, 6, 7, 8, 9, 10, 11, 12])
        g = sample_subcubic(n, seed=trial * 13 + 1)
        edges = sorted(g.edges)
        deleted = frozenset(rng.sample(range(n), k=rng.choice([0, 0, 1])))
        usable = [e for e in edges if e[0] not in deleted and e[1] not in deleted]
        forbidden = frozenset(rng.sample(usable, k=min(len(usable), rng.choice([0, 1]))))
        rest = [e for e in usable if e not in forbidden]
        forced = frozenset(rng.sample(rest, k=min(len(rest), rng.choice([0, 0, 1]))))
        problem = PackingProblem(
            g, Mode.MAX,
            deleted_vertices=deleted,
            forced_edges=forced,
            forbidden_edges=forbidden,
        )
        _agree(problem)
        if (n - len(deleted)) % 3 == 0:
            _agree(PackingProblem(
                g, Mode.FACTOR,
                deleted_vertices=deleted,
                forced_edges=forced,
                forbidden_edges=forbidden,
            ))


def _disjoint_union(parts: list[Graph]) -> Graph:
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Graph.from_edges(n, edges)


def _union_corpus(seed: int, trials: int):
    """MAX problems on disjoint unions of up to three subcubic pieces, so
    residual components of every size meet at the root as well as deeper
    down, each with up to one deleted vertex, one deleted edge, one
    forbidden edge and two forced edges."""
    rng = random.Random(seed)
    for trial in range(trials):
        sizes = [rng.randint(1, 13)]
        while len(sizes) < 3 and sum(sizes) < 11 and rng.random() < 0.6:
            sizes.append(rng.randint(1, 13 - sum(sizes)))
        g = _disjoint_union([sample_subcubic(m, seed=trial * 7 + i) for i, m in enumerate(sizes)])
        n = g.n
        edges = sorted(g.edges)
        deleted_v = frozenset(rng.sample(range(n), k=rng.choice([0, 0, 1])))
        usable = [e for e in edges if not set(e) & deleted_v]
        rng.shuffle(usable)
        k_del, k_forb, k_forced = rng.choice([0, 1]), rng.choice([0, 1]), rng.choice([0, 1, 2])
        yield PackingProblem(
            g,
            Mode.MAX,
            deleted_vertices=deleted_v,
            forbidden_edges=frozenset(usable[: k_del + k_forb]),
            forced_edges=frozenset(usable[k_del + k_forb : k_del + k_forb + k_forced]),
        )


def test_every_mode_agrees_with_oracle():
    """FACTOR, MAX and each target=k agree with the oracle under constraints.

    target=k is SAT exactly when the oracle's maximum is at least k, and its
    witness has exactly k paths, or, when k is smaller, just the paths that
    cover forced edges.
    """
    for problem in _union_corpus(4151, 300):
        forced = problem.forced_edges
        best = oracle_solve(problem)
        exact = solve(problem)
        assert (exact.verdict, exact.value) == (best.verdict, best.value), problem
        live = len(problem.alive)
        if live % 3 == 0:
            _agree(replace(problem, mode=Mode.FACTOR))
        for k in range(live // 3 + 2):
            res = solve(problem, target=k)
            reachable = best.verdict == "OPTIMUM" and best.value >= k
            assert res.verdict == ("SAT" if reachable else "UNSAT"), (problem, k)
            if res.verdict == "SAT":
                on_forced = [p for p in res.paths if set(p.edges) & forced]
                assert len(res.paths) == res.value == max(k, len(on_forced))


def test_fewest_candidates_greedy_contract():
    """The fewest-candidates greedy keeps the search's contract at every
    slack, with and without a paths cap: None, or a packing that passes
    check_packing, covers the forced edges, leaves at most ``slack`` live
    vertices uncovered and holds at most ``paths`` paths (or one per forced
    edge, when those are more).  It never beats the oracle's maximum."""
    hits = 0
    for problem in _union_corpus(2719, 200):
        best = oracle_solve(problem)
        engine = packing._Engine(problem, Budget())
        forced = tuple(sorted(problem.forced_edges))
        live = len(problem.alive)
        for slack in range(live + 1):
            need = -(-(live - slack) // 3)  # the fewest paths that meet the slack
            for cap in (None, need, need + 1):
                wit = engine.greedy_fewest(forced, slack, cap)
                if wit is None:
                    continue
                hits += 1
                paths = [LambdaPath.of(*t) for t in wit]
                check_packing(problem, paths)
                assert live - 3 * len(paths) <= slack, (problem, slack, cap)
                if cap is not None:
                    assert len(paths) <= max(cap, len(forced)), (problem, slack, cap)
                assert best.verdict == "OPTIMUM" and len(paths) <= best.value
        assert engine.stats.nodes == 0
    assert hits > 1000


def test_disjoint_union_max_is_sum_of_parts():
    """Beyond the oracle's size limit: MAX of a disjoint union is the sum of
    the oracle's MAX over its parts, and target=k is SAT up to that sum."""
    rng = random.Random(712)
    for trial in range(40):
        parts = [
            sample_subcubic(rng.randint(2, 12), seed=9000 + 5 * trial + i)
            for i in range(rng.randint(2, 4))
        ]
        expected = sum(oracle_solve(PackingProblem(p, Mode.MAX)).value for p in parts)
        g = _disjoint_union(parts)
        problem = PackingProblem(g, Mode.MAX)
        res = solve(problem)
        assert (res.verdict, res.value) == ("OPTIMUM", expected), parts
        for k in (expected - 1, expected, expected + 1):
            res = solve(problem, target=k)
            assert res.verdict == ("SAT" if k <= expected else "UNSAT"), (parts, k)
            if res.verdict == "SAT":
                assert len(res.paths) == max(k, 0)


def test_random_cubic_agreement():
    for trial in range(25):
        n = [4, 6, 8, 10, 12][trial % 5]
        g = sample_cubic(n, seed=trial)
        _agree(PackingProblem(g, Mode.MAX))
        if n % 3 == 0:
            _agree(PackingProblem(g, Mode.FACTOR))


def test_oracle_size_guard():
    g = Graph.from_edges(16, [(i, i + 1) for i in range(15)])
    with pytest.raises(PackingError):
        oracle_solve(PackingProblem(g, Mode.MAX))
