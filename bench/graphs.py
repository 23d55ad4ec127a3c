"""The benchmark's own seeded graph generators.

The inputs are edge lists made here from a seed, never by
``lambdapack.sampling``, so a change to the program cannot change what the
benchmark feeds it.  Every generator takes a ``random.Random`` seed value;
string seeds are hashed by ``random`` with SHA-512, so they give the same
graph in every process and on every platform.
"""

from __future__ import annotations

import random

Edge = tuple[int, int]


def cubic_edges(n: int, seed: object) -> list[Edge]:
    """A simple cubic graph on n vertices by the configuration model.

    Shuffle three stubs per vertex, pair them in order, and start over when
    a loop or a parallel edge appears.  For an integer seed this draws the
    same graph as ``lambdapack.sampling.sample_cubic(n, seed)``, which is how
    the two fixed hard instances of ``deep_search`` are named in the README.
    """
    if n < 4 or n % 2:
        raise ValueError(f"cubic graphs need even n >= 4, got {n}")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges: set[Edge] = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return sorted(edges)


def subcubic_edges(n: int, seed: object, drop: float = 0.1) -> list[Edge]:
    """A random cubic graph with each edge then dropped with probability ``drop``."""
    rng = random.Random(f"drop/{seed}")
    return [e for e in cubic_edges(n, seed) if rng.random() >= drop]


def path_edges(n: int) -> list[Edge]:
    """The path 0-1-...-(n-1)."""
    return [(i, i + 1) for i in range(n - 1)]
