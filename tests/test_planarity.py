"""Planarity verdicts and both witness kinds, re-verified from scratch."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lambdapack
from lambdapack import Graph, atlas, is_bipartite
from lambdapack.graph import GraphError
from lambdapack.pipeline import build_pipeline
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
    rep = is_planar(q)
    rot = list(list(r) for r in rep.rotation)
    # swapping two neighbors at one vertex usually breaks face counting;
    # the verifier must also reject rotations listing wrong neighbors.
    rot[0] = [rot[0][1], rot[0][0], rot[0][2]]
    bad_faces = verify_rotation_system(q, tuple(tuple(r) for r in rot))
    rot[0] = [99, 1, 2]
    with_bad_neighbors = False
    try:
        with_bad_neighbors = verify_rotation_system(
            q, tuple(tuple(r) for r in rot)
        )
    except Exception:
        with_bad_neighbors = False
    assert not with_bad_neighbors
    assert bad_faces in (True, False)  # permutation may or may not stay planar


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
        "assert 'networkx' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
