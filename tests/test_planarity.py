"""Planarity verdicts and both witness kinds, re-verified from scratch."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lambdapack
from lambdapack import Graph, atlas, is_bipartite, run_script, sample_cubic
from lambdapack.constructions import ATLAS_NAMES
from lambdapack.graph import GraphError, norm_edge
from lambdapack.pipeline import build_pipeline, family_script
from lambdapack.planarity import (
    is_planar,
    verify_kuratowski,
    verify_rotation_system,
)


def test_cube_is_planar_with_valid_rotation():
    q = atlas("Q")
    rep = is_planar(q)
    assert rep.planar
    assert verify_rotation_system(q, rep.rotation)


def test_k33_obstruction_is_itself():
    g = atlas("K33")
    rep = is_planar(g)
    assert not rep.planar
    assert rep.obstruction == g.edges
    assert verify_kuratowski(g, rep.obstruction) == "K33"


def test_k5_obstruction():
    g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    rep = is_planar(g)
    assert not rep.planar
    assert verify_kuratowski(g, rep.obstruction) == "K5"


def test_subdivided_k5_obstruction():
    # subdivide two edges of K5; the obstruction must still verify
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges.remove((0, 1))
    edges.remove((2, 3))
    edges += [(0, 5), (5, 1), (2, 6), (6, 3)]
    g = Graph.from_edges(7, edges)
    rep = is_planar(g)
    assert not rep.planar
    assert verify_kuratowski(g, rep.obstruction) == "K5"


def test_nonplanar_with_extra_edges_minimizes():
    # K3,3 plus a planar appendage: obstruction must shrink to a subdivision
    base = atlas("K33")
    edges = list(base.edges) + [(6, 7), (7, 8), (8, 6), (5, 6)]
    g = Graph.from_edges(9, edges)
    rep = is_planar(g)
    assert not rep.planar
    assert verify_kuratowski(g, rep.obstruction) in ("K5", "K33")
    assert len(rep.obstruction) <= 9


def test_pipeline_graphs_planar_with_witnesses():
    pipe = build_pipeline()
    for name in ("K", "H", "D", "F", "N"):
        g = pipe.graph(name)
        rep = is_planar(g)
        assert rep.planar, name
        assert verify_rotation_system(g, rep.rotation), name


def test_r_is_not_planar_but_obstruction_verifies():
    pipe = build_pipeline()
    r = pipe.graph("R")
    rep = is_planar(r)
    assert not rep.planar
    assert verify_kuratowski(r, rep.obstruction) in ("K5", "K33")


def test_deletion_loop_tests_each_edge_once(monkeypatch):
    # one LR test for the verdict, then at most one per edge: a kept edge
    # is not tested again at its upper end
    from lambdapack import planarity

    calls = 0
    test = planarity._LR.test

    def counted(self):
        nonlocal calls
        calls += 1
        return test(self)

    monkeypatch.setattr(planarity._LR, "test", counted)
    r = build_pipeline().graph("R")
    rep = is_planar(r)
    assert not rep.planar
    assert calls <= r.m + 1


def test_euler_bound_for_bipartite_planar():
    # planar verdict implies m <= 2n - 4 for bipartite graphs with n >= 3
    pipe = build_pipeline()
    for g in [atlas("Q"), atlas("S"), pipe.graph("K"), pipe.graph("N")]:
        ok, _ = is_bipartite(g)
        rep = is_planar(g)
        if ok and rep.planar and g.n >= 3:
            assert g.m <= 2 * g.n - 4


def test_rotation_verifier_rejects_bad_rotation():
    q = atlas("Q")
    rot = is_planar(q).rotation
    for v in range(q.n):
        # swapping two neighbors at a cube vertex always breaks the face count
        swapped = list(rot)
        swapped[v] = (rot[v][1], rot[v][0], *rot[v][2:])
        assert not verify_rotation_system(q, tuple(swapped)), v
        # a rotation listing a non-neighbor is rejected, not an error
        foreign = list(rot)
        foreign[v] = (99, *rot[v][1:])
        assert not verify_rotation_system(q, tuple(foreign)), v


def test_kuratowski_verifier_rejects_wrong_sets():
    q = atlas("Q")
    with pytest.raises(GraphError):
        verify_kuratowski(q, frozenset(list(q.edges)[:4]))


def test_networkx_is_imported_only_when_needed():
    src = str(Path(lambdapack.__file__).resolve().parent.parent)
    code = (
        "import sys, lambdapack\n"
        "assert 'networkx' not in sys.modules\n"
        "assert lambdapack.is_planar(lambdapack.atlas('Q')).planar\n"
        "assert 'networkx' not in sys.modules\n"
        "assert not lambdapack.is_planar(lambdapack.atlas('K33')).planar\n"
        "assert 'networkx' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Edges of the rows x cols grid, vertex r * cols + c at row r, column c."""
    return [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)] + [
        (r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)
    ]


def test_planarity_scales_and_runs_without_recursion():
    path = Graph.from_edges(3000, [(v, v + 1) for v in range(2999)])
    grid = Graph.from_edges(60 * 50, _grid_edges(60, 50))
    for g in (path, grid):
        rep = is_planar(g)
        assert rep.planar
        assert verify_rotation_system(g, rep.rotation)


def test_dense_graph_takes_the_euler_bound_and_keeps_a_witness():
    k6 = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    assert k6.m > 3 * k6.n - 6
    rep = is_planar(k6)
    assert not rep.planar
    assert verify_kuratowski(k6, rep.obstruction) == "K5"


# ----------------------------------------------------------------------
# Cross-check against networkx, whose left-right test the kernel follows
# ----------------------------------------------------------------------


def _random_graphs(count: int, seed: int) -> list[Graph]:
    rng = random.Random(seed)
    graphs = [
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        Graph.from_edges(2, []),
        Graph.from_edges(2, [(0, 1)]),
    ]
    while len(graphs) < count:
        n = rng.randint(3, 14)
        p = rng.random() * 0.8
        graphs.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        ))
    return graphs


def _diagonal_grids(count: int, seed: int) -> list[Graph]:
    """Grids whose cells get no diagonal, one, or both (some are non-planar)."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        edges = _grid_edges(rows, cols)
        for v in range(rows * cols - cols):
            if v % cols == cols - 1:
                continue
            x = rng.random()
            if x < 0.35 or x >= 0.95:
                edges.append((v, v + cols + 1))
            if 0.35 <= x < 0.7 or x >= 0.95:
                edges.append((v + 1, v + cols))
        graphs.append(Graph.from_edges(rows * cols, edges))
    return graphs


def _family_stages() -> list[Graph]:
    seen: dict[str, Graph] = {}
    for member in range(10):
        for rec in run_script(family_script(member)):
            seen.setdefault(rec.graph.digest, rec.graph)
    return list(seen.values())


CORPUS = {
    "family": _family_stages,
    "atlas": lambda: [atlas(name) for name in ATLAS_NAMES],
    "random": lambda: _random_graphs(300, 2009),
    "grid": lambda: _diagonal_grids(30, 2006),
    "cubic": lambda: [sample_cubic(n, seed) for n in (10, 12, 14, 16) for seed in (1, 2)]
    + [sample_cubic(n, 3) for n in (40, 100, 300)],
}


@pytest.mark.parametrize("kind", sorted(CORPUS))
def test_kernel_matches_networkx(kind):
    nx = pytest.importorskip("networkx")
    for g in CORPUS[kind]():
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(sorted(g.edges))
        ok, cert = nx.check_planarity(h, counterexample=True)
        rep = is_planar(g)
        assert rep.planar == ok, sorted(g.edges)
        if ok:
            data = cert.get_data()
            assert rep.rotation == tuple(tuple(data.get(v, [])) for v in range(g.n))
            assert verify_rotation_system(g, rep.rotation)
        else:
            assert rep.obstruction == frozenset(norm_edge(u, v) for u, v in cert.edges())
            verify_kuratowski(g, rep.obstruction)
