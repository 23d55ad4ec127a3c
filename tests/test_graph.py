"""Core graph type, elementary queries, and the structural checkers."""

import itertools
import pickle
import random

import pytest

from lambdapack import (
    DegreeProfile,
    Graph,
    GraphError,
    Mode,
    PackingProblem,
    atlas,
    components,
    connectivity_at_least,
    degree_profile,
    edge_cut,
    is_bipartite,
    is_cubic,
    prism,
    run_script,
    sample_cubic,
    solve,
)
from lambdapack.constructions import PortedVertex, ymerge
from lambdapack.pipeline import DEFAULT_SCRIPT, family_script
from lambdapack.graph import induced_subgraph, norm_edge


def test_rejects_loops_and_parallel_edges():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, frozenset(), "negative vertex count -1"),
        (3, frozenset({(1, 1)}), "loop edge at vertex 1"),
        (3, frozenset({(2, 0)}), "edge (2,0) not normalized"),
    ],
)
def test_direct_construction_rejects_each_invalid_field(n, edges, message):
    """``Graph(...)`` itself, without ``from_edges`` to normalize first."""
    with pytest.raises(GraphError) as info:
        Graph(n, edges, tuple(f"v{i}" for i in range(max(n, 0))))
    assert str(info.value) == message


def test_labels_must_be_total():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1)], labels=["a", "b"])


def test_neighbors_examples():
    q = atlas("Q")
    for v in range(q.n):
        assert len(q.neighbors(v)) == 3

    k2 = Graph.from_edges(2, [(0, 1)])
    assert k2.neighbors(0) == (1,)

    k4 = atlas("K4")
    assert k4.neighbors(2) == (0, 1, 3)

    with pytest.raises(GraphError):
        k4.neighbors(7)


def test_edge_by_labels_needs_an_edge():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert p3.edge_by_labels("v2", "v1") == (1, 2)
    with pytest.raises(GraphError) as info:
        p3.edge_by_labels("v0", "v2")
    assert str(info.value) == "no edge between labels 'v0' and 'v2'"


def test_edge_cut_examples():
    # each side of a triple merge meets the hubs in exactly 3 edges
    k33 = atlas("K33")
    g = ymerge(PortedVertex.default(k33, 0)).graph
    for prefix in ("Y1.", "Y2.", "Y3."):
        side = [v for v in range(g.n) if g.labels[v].startswith(prefix)]
        assert edge_cut(g, side).size == 3

    q = atlas("Q")
    assert edge_cut(q, []).size == 0
    assert edge_cut(q, range(q.n)).size == 0


def test_cut_symmetry_random():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        x = [v for v in range(n) if rng.random() < 0.5]
        other = [v for v in range(n) if v not in set(x)]
        assert edge_cut(g, x).size == edge_cut(g, other).size


def test_components_examples():
    q = atlas("Q")
    assert len(components(q)) == 1

    k4 = atlas("K4")
    both = Graph.from_edges(
        q.n + k4.n,
        list(q.edges) + [(u + q.n, v + q.n) for u, v in k4.edges],
    )
    assert len(components(both)) == 2

    assert len(components(Graph.from_edges(3, []))) == 3


def test_degree_profile_and_handshake():
    q = atlas("Q")
    prof = degree_profile(q)
    assert prof.min_degree == prof.max_degree == 3
    assert prof.histogram == ((3, 8),)
    assert sum(d * c for d, c in prof.histogram) == 2 * q.m
    assert is_cubic(q)
    # a cubic graph has an even vertex count
    assert q.n % 2 == 0
    assert degree_profile(Graph.from_edges(0, [])) == DegreeProfile(0, 0, ())


def test_bipartite_witness_is_proper():
    for name in ("Q", "S", "K33"):
        g = atlas(name)
        ok, coloring = is_bipartite(g)
        assert ok
        assert all(coloring[u] != coloring[v] for u, v in g.edges)
    ok, coloring = is_bipartite(atlas("K4"))
    assert not ok and coloring is None


def test_connectivity_examples():
    ok, sep = connectivity_at_least(atlas("Q"), 3)
    assert ok and sep is None

    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    ok, sep = connectivity_at_least(p3, 2)
    assert not ok
    assert sep == frozenset({1})

    with pytest.raises(GraphError):
        connectivity_at_least(p3, 3)  # needs n >= 4
    for k in (0, 4):
        with pytest.raises(GraphError) as info:
            connectivity_at_least(atlas("Q"), k)
        assert str(info.value) == f"connectivity check supports k in 1..3, got {k}"


def test_connectivity_witness_disconnects():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(4, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        g = Graph.from_edges(n, edges)
        for k in (1, 2, 3):
            ok, sep = connectivity_at_least(g, k)
            if not ok:
                assert len(sep) < k
                sub, _ = induced_subgraph(g, set(range(n)) - sep)
                assert sub.n <= 1 or len(components(sub)) >= 2


def test_connectivity_matches_exhaustive_subset_removal():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(4, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        for k in (1, 2, 3):
            expected = True
            for size in range(k):
                for sep in itertools.combinations(range(n), size):
                    keep = set(range(n)) - set(sep)
                    sub, _ = induced_subgraph(g, keep)
                    if sub.n > 1 and len(components(sub)) > 1:
                        expected = False
            assert connectivity_at_least(g, k)[0] == expected


def _reference_connectivity(g, k):
    """Exhaustive search: every vertex set of size < k, in combinations order."""
    for size in range(k):
        for sep in itertools.combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in sep]
            if len(rest) <= 1:
                continue
            seen, stack = {rest[0]}, [rest[0]]
            while stack:
                v = stack.pop()
                for u in g.adj[v]:
                    if u not in sep and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) < len(rest):
                return False, frozenset(sep)
    return True, None


def _random_graph(rng, n, kind):
    """A graph on n vertices of the given kind, with shuffled vertex ids."""
    ids = list(range(n))
    rng.shuffle(ids)
    if kind == "tree":
        edges = [(ids[v], ids[rng.randrange(v)]) for v in range(1, n)]
    elif kind == "disconnected":
        cut = rng.randrange(1, n)
        edges = [
            (ids[u], ids[v])
            for u in range(n)
            for v in range(u + 1, n)
            if (u < cut) == (v < cut) and rng.random() < 0.6
        ]
    elif kind == "ring":
        # 2-connected, with chords that leave some separating pairs
        edges = [(ids[v], ids[(v + 1) % n]) for v in range(n)] if n >= 3 else []
        edges += [
            (ids[u], ids[v])
            for u in range(n)
            for v in range(u + 2, n)
            if (u, v) != (0, n - 1) and rng.random() < 0.15
        ]
    else:
        p = {"sparse": 0.3, "medium": 0.5, "dense": 0.8}[kind]
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
    return Graph.from_edges(n, edges)


GRAPH_KINDS = ("tree", "disconnected", "ring", "sparse", "medium", "dense")


def test_connectivity_witness_matches_exhaustive_reference():
    rng = random.Random(31)
    for n in range(1, 13):
        for kind in GRAPH_KINDS:
            if kind == "disconnected" and n < 2:
                continue
            for _ in range(12):
                g = _random_graph(rng, n, kind)
                for k in (1, 2, 3) if n >= 4 else (1, 2):
                    assert connectivity_at_least(g, k) == _reference_connectivity(
                        g, k
                    ), (kind, sorted(g.edges), k)


def test_connectivity_witness_on_the_pipeline_graphs():
    graphs = {b.name: b.graph for b in run_script(DEFAULT_SCRIPT)}
    for member in (1, 2, 3):
        graphs[f"N_{member}"] = run_script(family_script(member))[-1].graph
    for name in ("K", "R", "H", "D", "F", "N", "N_1", "N_2", "N_3"):
        g = graphs[name]
        for k in (1, 2, 3):
            assert connectivity_at_least(g, k) == _reference_connectivity(g, k), (
                name,
                k,
            )


def test_connectivity_scales_and_runs_without_recursion():
    assert connectivity_at_least(prism(300), 3) == (True, None)
    assert connectivity_at_least(sample_cubic(600, 1), 3) == (True, None)
    path = Graph.from_edges(3000, [(v, v + 1) for v in range(2999)])
    assert connectivity_at_least(path, 2) == (False, frozenset({1}))


def test_norm_edge():
    assert norm_edge(3, 1) == (1, 3)
    with pytest.raises(GraphError):
        norm_edge(2, 2)


def test_default_labels_are_shared_and_unchanged():
    from lambdapack import from_dot, from_json, to_dot, to_json

    edges = [(i, i + 1) for i in range(299)]
    g, h = Graph.from_edges(300, edges), Graph.from_edges(300, edges)
    assert g.labels == tuple(f"v{i}" for i in range(300))
    assert all(a is b for a, b in zip(g.labels, h.labels))
    assert g == h and hash(g) == hash(h)
    assert g == Graph(300, frozenset(edges), tuple(f"v{i}" for i in range(300)))
    assert from_json(to_json(g)) == g and from_dot(to_dot(g)) == g
    assert to_json(g) == to_json(h) and to_dot(g) == to_dot(h)


def test_a_solved_graph_pickles_without_its_caches():
    edges = [(i, i + 1) for i in range(599)]
    g = Graph.from_edges(600, edges)
    fresh = pickle.dumps(g)
    assert solve(PackingProblem(g, Mode.FACTOR)).verdict == "SAT"
    g.adj, g.adj_masks, g.digest, g.label_to_id  # build the caches the solve did not
    assert {"adj", "adj_masks", "digest", "label_to_id"} <= set(vars(g))
    assert len(pickle.dumps(g)) == len(fresh)
    h = pickle.loads(pickle.dumps(g))
    assert h == g and hash(h) == hash(g)
    assert set(vars(h)) == {"n", "edges", "labels"}
    assert h.adj == g.adj and h.adj_masks == g.adj_masks and h.digest == g.digest
    assert h.label_to_id == g.label_to_id
