"""Composition operators: counts, ports, closure properties, determinism."""

import hashlib
import itertools

import pytest

from lambdapack import (
    ConstructionError,
    Graph,
    atlas,
    components,
    connectivity_at_least,
    edge_cut,
    is_bipartite,
    is_cubic,
    prism,
)
from lambdapack.constructions import (
    ATLAS_NAMES,
    PortedEdge,
    PortedVertex,
    ebridge,
    esub,
    side_vertices,
    vsub,
    ymerge,
    ymerge3,
)
from lambdapack.certify import graph_hash
from lambdapack.dsl import run_script
from lambdapack.pipeline import (
    DEFAULT_SCRIPT,
    EXPECTED_VERTEX_COUNTS,
    build_pipeline,
    family_script,
)
from lambdapack.planarity import is_planar


def _iso_small(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism for tiny graphs (n <= 8)."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    assert g1.n <= 8
    for perm in itertools.permutations(range(g1.n)):
        if all((perm[u], perm[v]) in g2.edges or (perm[v], perm[u]) in g2.edges
               for u, v in g1.edges):
            return True
    return False


def test_atlas_counts():
    assert (atlas("Q").n, atlas("Q").m) == (8, 12)
    assert (atlas("S").n, atlas("S").m) == (12, 18)
    assert (atlas("K4").n, atlas("K4").m) == (4, 6)
    assert (atlas("K33").n, atlas("K33").m) == (6, 9)
    with pytest.raises(ConstructionError):
        atlas("Petersen")


def test_vsub_k4_k4_is_triangle_prism():
    k4 = atlas("K4")
    g = vsub(PortedVertex.default(k4, 0), PortedVertex.default(k4, 0)).graph
    assert g.n == 6
    assert is_cubic(g)
    assert connectivity_at_least(g, 3)[0]
    triangle_prism = prism(3)
    assert _iso_small(g, triangle_prism)


def test_vsub_vertex_count_over_atlas_grid():
    for na, nb in itertools.product(ATLAS_NAMES, repeat=2):
        a, b = atlas(na), atlas(nb)
        g = vsub(PortedVertex.default(a, 0), PortedVertex.default(b, 0)).graph
        assert g.n == a.n + b.n - 2


def test_vsub_requires_degree_three():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ConstructionError):
        PortedVertex.default(p3, 1)


def test_port_list_must_match_neighbors():
    k4 = atlas("K4")
    with pytest.raises(ConstructionError):
        PortedVertex(k4, 0, (1, 2, 2))
    with pytest.raises(ConstructionError):
        PortedVertex(k4, 0, (0, 1, 2))


def test_ymerge3_of_k4_matches_direct_construction():
    k4 = atlas("K4")
    g = ymerge3(*(PortedVertex.default(k4, 0) for _ in range(3))).graph
    assert g.n == 12
    # triangles on 3i..3i+2 joined to hubs 9,10,11, hub j to the j-th port
    edges = []
    for i in range(3):
        base = 3 * i
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
        for j in range(3):
            edges.append((9 + j, base + j))
    expected = Graph.from_edges(12, edges, g.labels)
    assert g == expected


def test_ymerge_copies_disjoint_and_cut_size():
    k33 = atlas("K33")
    detail = ymerge3(*(PortedVertex.default(k33, 0) for _ in range(3)))
    g = detail.graph
    assert g.n == 3 * (k33.n - 1) + 3
    sides = [side_vertices(g, f"Y{i}.") for i in (1, 2, 3)]
    assert all(len(s) == k33.n - 1 for s in sides)
    assert sides[0] & sides[1] == frozenset()
    for s in sides:
        assert edge_cut(g, s).size == 3


def test_esub_examples_and_orientation():
    q = atlas("Q")
    a = PortedEdge(q, 0, 1)
    b = PortedEdge(q, 0, 1)
    g = esub(a, b).graph
    assert g.n == q.n + q.n
    # orientation pairs endpoint 1 with endpoint 1
    u = g.vertex_by_label("A.000")
    v = g.vertex_by_label("B.000")
    assert g.has_edge(u, v)


def test_ebridge_example():
    q = atlas("Q")
    detail = ebridge(PortedEdge(q, 0, 1), PortedEdge(q, 0, 1))
    g, mid = detail.graph, detail.middle_edge
    assert g.n == q.n + q.n + 2
    z1, z2 = mid
    assert g.degree(z1) == 3 and g.degree(z2) == 3
    assert g.labels[z1] == "z1" and g.labels[z2] == "z2"


def test_edge_must_exist():
    q = atlas("Q")
    with pytest.raises(ConstructionError):
        PortedEdge(q, 0, 7)  # opposite corners of the cube


def test_vsub_closure_over_atlas_grid():
    """k-connected / cubic / bipartite / planar are preserved (k <= 3)."""
    for na, nb in itertools.product(ATLAS_NAMES, repeat=2):
        a, b = atlas(na), atlas(nb)
        g = vsub(PortedVertex.default(a, 0), PortedVertex.default(b, 0)).graph
        assert is_cubic(g)
        if is_bipartite(a)[0] and is_bipartite(b)[0]:
            assert is_bipartite(g)[0], (na, nb)
        if is_planar(a).planar and is_planar(b).planar:
            assert is_planar(g).planar, (na, nb)
        for k in (1, 2, 3):
            if connectivity_at_least(a, k)[0] and connectivity_at_least(b, k)[0]:
                assert connectivity_at_least(g, k)[0], (na, nb, k)


def test_ymerge_closure_not_planarity():
    """Triple merge preserves k-connectivity, cubicity, bipartiteness."""
    for name in ATLAS_NAMES:
        a = atlas(name)
        g = ymerge(PortedVertex.default(a, 0)).graph
        assert is_cubic(g)
        if is_bipartite(a)[0]:
            assert is_bipartite(g)[0], name
        for k in (1, 2, 3):
            if connectivity_at_least(a, k)[0]:
                assert connectivity_at_least(g, k)[0], (name, k)


def test_esub_and_ebridge_closure_two_connected():
    pairs = [("Q", "Q"), ("Q", "S"), ("S", "S"), ("Q", "K33"), ("K4", "Q")]
    for na, nb in pairs:
        a, b = atlas(na), atlas(nb)
        ea = PortedEdge(a, *a.sorted_edges()[0])
        eb = PortedEdge(b, *b.sorted_edges()[0])
        for g in (esub(ea, eb).graph, ebridge(ea, eb).graph):
            assert is_cubic(g)
            if is_bipartite(a)[0] and is_bipartite(b)[0]:
                assert is_bipartite(g)[0], (na, nb)
            if is_planar(a).planar and is_planar(b).planar:
                assert is_planar(g).planar, (na, nb)
            for k in (1, 2):
                if connectivity_at_least(a, k)[0] and connectivity_at_least(b, k)[0]:
                    assert connectivity_at_least(g, k)[0], (na, nb, k)


def test_pipeline_vertex_counts():
    pipe = build_pipeline()
    for name in ("K", "R", "H", "D", "F", "N"):
        assert pipe.graph(name).n == EXPECTED_VERTEX_COUNTS[name], name
    assert atlas("Q").n == EXPECTED_VERTEX_COUNTS["Q"]
    assert atlas("S").n == EXPECTED_VERTEX_COUNTS["S"]


def test_pipeline_propagates_properties():
    pipe = build_pipeline()
    for name in ("K", "H", "D", "F", "N"):
        g = pipe.graph(name)
        assert is_cubic(g), name
        assert is_bipartite(g)[0], name
        assert is_planar(g).planar, name
        assert connectivity_at_least(g, 2)[0], name
    r = pipe.graph("R")
    assert is_cubic(r) and is_bipartite(r)[0] and connectivity_at_least(r, 2)[0]


def test_construction_determinism():
    a = build_pipeline().graph("N")
    b = build_pipeline().graph("N")
    assert a == b
    assert a.labels == b.labels


#: SHA-256 over each record's graph hash and labels, for every statement of
#: the default pipeline and of family members 0-9: any change to the ids,
#: labels or edges an operator builds shows here
SCRIPT_GRAPHS_SHA256 = "adab254bc0fee43edd52fb76e40de0217107f33965732dde1f234a5bf7bef331"


def test_script_graphs_are_pinned():
    digest = hashlib.sha256()
    for script in (DEFAULT_SCRIPT, *map(family_script, range(10))):
        for rec in run_script(script):
            labels = " ".join(rec.graph.labels)
            digest.update(f"{graph_hash(rec.graph)} {labels}\n".encode())
    assert digest.hexdigest() == SCRIPT_GRAPHS_SHA256


def test_prism_validation():
    with pytest.raises(ConstructionError):
        prism(2)
    g = prism(8)
    assert g.n == 16 and is_cubic(g) and is_bipartite(g)[0]
    assert len(components(g)) == 1
