"""Crossing-case classification over seams, and hub-bundle counting.

Factors of vertex-substitution composites are enumerated exhaustively and
classified against the six allowed crossing patterns; any "violation" would
falsify the case analysis the certifier's rules rest on.  Factors of triple
merges are checked for the 1-or-2 components-per-side-bundle invariant.
"""

import pytest

from lambdapack import (
    Graph,
    LambdaPath,
    Mode,
    PackingError,
    PackingProblem,
    atlas,
    crossing_pattern,
    edge_cut,
    enumerate_factors,
    solve,
)
from lambdapack.constructions import (
    PortedVertex,
    side_vertices,
    vsub,
    ymerge,
)
from lambdapack.pipeline import find_seams

A1_TAGS = {"a1.1", "a1.2", "a1.3"}
A2_TAGS = {"a2.1", "a2.2", "a2.3"}


def _vsub_composites_up_to_20():
    """All atlas vertex substitutions whose size is divisible by 3."""
    pairs = [("K4", "K4"), ("K33", "Q"), ("Q", "K33"), ("Q", "S"), ("S", "Q")]
    for na, nb in pairs:
        a, b = atlas(na), atlas(nb)
        detail = vsub(PortedVertex.default(a, 0), PortedVertex.default(b, 0))
        assert detail.graph.n <= 20 and detail.graph.n % 3 == 0
        yield na, nb, detail


def test_every_factor_classifies_without_violation():
    seen_tags = set()
    total = 0
    for na, nb, detail in _vsub_composites_up_to_20():
        g = detail.graph
        cut = edge_cut(g, side_vertices(g, "A."))
        assert cut.size == 3
        removed_side = atlas(na).n
        for factor in enumerate_factors(PackingProblem(g, Mode.FACTOR)):
            tag = crossing_pattern(g, factor, cut)
            assert tag != "violation", (na, nb, factor)
            expected = A1_TAGS if removed_side % 3 != 1 else A2_TAGS
            assert tag in expected, (na, nb, tag)
            seen_tags.add(tag)
            total += 1
    assert total > 50
    # both case families actually occur in the corpus
    assert seen_tags & A1_TAGS
    assert seen_tags & A2_TAGS


def test_factor_avoiding_the_whole_cut_is_case_a2_1():
    # triangle prism: cover each triangle internally, no path meets the seam
    k4 = atlas("K4")
    detail = vsub(PortedVertex.default(k4, 0), PortedVertex.default(k4, 0))
    g = detail.graph
    cut = edge_cut(g, side_vertices(g, "A."))
    factor = (LambdaPath(0, 1, 2), LambdaPath(3, 4, 5))
    assert crossing_pattern(g, factor, cut) == "a2.1"


def test_non_factor_input_rejected():
    k4 = atlas("K4")
    detail = vsub(PortedVertex.default(k4, 0), PortedVertex.default(k4, 0))
    g = detail.graph
    cut = edge_cut(g, side_vertices(g, "A."))
    with pytest.raises(PackingError):
        crossing_pattern(g, (LambdaPath(0, 1, 2),), cut)


def test_crossing_requires_three_edge_matching_cut():
    k4 = atlas("K4")
    detail = vsub(PortedVertex.default(k4, 0), PortedVertex.default(k4, 0))
    g = detail.graph
    factor = (LambdaPath(0, 1, 2), LambdaPath(3, 4, 5))
    with pytest.raises(PackingError):
        crossing_pattern(g, factor, edge_cut(g, [0]))


def test_hub_bundles_have_one_or_two_components():
    """Every factor of a triple merge meets each side cut in 1 or 2 paths."""
    k33 = atlas("K33")  # 6 vertices, divisible by 6
    detail = ymerge(PortedVertex.default(k33, 0))
    g = detail.graph
    assert g.n == 18
    count = 0
    for factor in enumerate_factors(PackingProblem(g, Mode.FACTOR)):
        for side_cut in detail.side_edges:
            bundle = [
                p for p in factor if any(e in side_cut for e in p.edges)
            ]
            assert len(bundle) in (1, 2), (factor, side_cut)
        count += 1
    assert count > 0


def test_hub_bundles_on_larger_merge_spot_checks():
    s = atlas("S")  # 12 vertices, divisible by 6
    detail = ymerge(PortedVertex.default(s, 0))
    g = detail.graph
    assert g.n == 36
    base = PackingProblem(g, Mode.FACTOR)
    factors = []
    first = solve(base)
    assert first.verdict == "SAT"
    factors.append(first.paths)
    # vary the factor by forcing each hub edge in turn
    for cut in detail.side_edges:
        for edge in cut:
            r = solve(PackingProblem(g, Mode.FACTOR, forced_edges=frozenset({edge})))
            if r.verdict == "SAT":
                factors.append(r.paths)
    assert len(factors) >= 3
    for factor in factors:
        for side_cut in detail.side_edges:
            bundle = [p for p in factor if any(e in side_cut for e in p.edges)]
            assert len(bundle) in (1, 2)


def test_find_seams_skips_a_whole_graph_side_and_a_cut_that_is_no_matching():
    # the star's sides, A. = {centre} and B. = the leaves, share one cut,
    # whose three edges meet at the centre
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)], ["A.a", "B.b", "B.c", "B.d"])
    assert len(edge_cut(star, [0]).cut_edges) == 3
    assert find_seams(star) == ()
    # A. holds every vertex of the path, so it cuts nothing
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], ["A.a", "A.b", "A.c", "A.d"])
    assert find_seams(path) == ()
