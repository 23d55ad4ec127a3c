"""Random graph generation for bound testing.

``sample_cubic`` draws uniformly over stub pairings (configuration model)
and rejects pairings with loops or parallel edges, so conditioned on
acceptance the sample is uniform over simple pairings.  Everything is
deterministic per seed.
"""

from __future__ import annotations

import random

from .graph import Graph, GraphError


def sample_cubic(n: int, seed: int) -> Graph:
    """A random simple cubic graph on n vertices (n even, n >= 4)."""
    if n < 4 or n % 2 != 0:
        raise GraphError(f"cubic graphs need even n >= 4, got {n}")
    rng = random.Random(seed)
    for _ in range(10_000):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph.from_edges(n, edges)
    raise GraphError("no simple pairing found after 10000 tries")


def sample_subcubic(n: int, seed: int) -> Graph:
    """A random graph with maximum degree 3 (degrees 0..3 allowed).

    Draws random vertex pairs and keeps an edge whenever both endpoints
    still have spare degree; edge density tends toward cubic but leaves a
    mix of lower-degree vertices.
    """
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    degree = [0] * n
    edges: set[tuple[int, int]] = set()
    attempts = 6 * n
    for _ in range(attempts):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges or degree[u] >= 3 or degree[v] >= 3:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
    return Graph.from_edges(n, edges)


def sample_degree23(n: int, seed: int) -> Graph:
    """A random graph with every degree 2 or 3 and no 5-vertex components.

    Start from a random cubic graph and delete a random partial matching;
    matched vertices drop to degree 2.  Retries until no component has
    exactly 5 vertices, at most 200 times.
    """
    if n < 4 or n % 2 != 0:
        raise GraphError(f"degree-2/3 sampling needs even n >= 4, got {n}")
    from .graph import components

    for attempt in range(200):
        g = sample_cubic(n, seed + 7919 * attempt)
        rng = random.Random(seed * 1_000_003 + attempt)
        edges = sorted(g.edges)
        rng.shuffle(edges)
        removed: set[tuple[int, int]] = set()
        touched: set[int] = set()
        for u, v in edges:
            if u in touched or v in touched:
                continue
            if rng.random() < 0.5:
                removed.add((u, v))
                touched.update((u, v))
        h = Graph.from_edges(n, g.edges - frozenset(removed))
        if all(len(c) != 5 for c in components(h)):
            return h
    raise GraphError("could not sample a degree-2/3 graph without 5-vertex components")
