"""Immutable simple undirected graphs with labeled vertices.

Vertices are dense ids ``0..n-1``; each vertex carries a provenance label
(a dotted string such as ``"A.z1"`` that records where the vertex came from
when graphs are composed).  Loops and parallel edges are rejected at
construction time.

Besides elementary queries (neighbors, cuts, components, degree profile)
this module provides three of the four structural checkers used throughout
the package: cubic, bipartite, and k-connected for k <= 3.  Planarity lives
in :mod:`lambdapack.planarity`.  Every checker that can fail returns a
witness that tests re-verify independently: a 2-coloring for bipartiteness,
a separating vertex set for connectivity.

Connectivity is decided by exhaustive separator search over all vertex
subsets of size < k.  That is quadratic-ish in n but trivially auditable,
which matters more than speed at the scales handled here (n <= 100).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph data or an out-of-range vertex/edge reference."""


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair to (min, max); reject loops."""
    if u == v:
        raise GraphError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    ``edges`` holds normalized pairs ``(u, v)`` with ``u < v``; ``labels``
    is total on the vertex range.  Instances are immutable and hashable,
    so they are safe to share across threads and to use as dict keys.
    """

    n: int
    edges: frozenset[Edge]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"negative vertex count {self.n}")
        if len(self.labels) != self.n:
            raise GraphError(
                f"labels cover {len(self.labels)} vertices, graph has {self.n}"
            )
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if not (u < v):
                raise GraphError(f"edge ({u},{v}) not normalized")
            if not (0 <= u and v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        """Build a graph, normalizing edge pairs and defaulting labels to ``v<i>``."""
        normed = set()
        for u, v in edges:
            e = norm_edge(u, v)
            if e in normed:
                raise GraphError(f"parallel edge ({u},{v})")
            normed.add(e)
        if labels is None:
            labels = tuple(f"v{i}" for i in range(n))
        else:
            labels = tuple(labels)
        return Graph(n, frozenset(normed), labels)

    # ------------------------------------------------------------------
    # Cached structure
    # ------------------------------------------------------------------

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbor lists, indexed by vertex id."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def label_to_id(self) -> dict[str, int]:
        """Label -> id map.  Duplicated labels keep the smallest id."""
        out: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            out.setdefault(lab, i)
        return out

    # ------------------------------------------------------------------
    # Elementary queries
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """All u adjacent to v, ascending."""
        self.check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def vertex_by_label(self, label: str) -> int:
        try:
            return self.label_to_id[label]
        except KeyError:
            raise GraphError(f"no vertex labeled {label!r}") from None

    def edge_by_labels(self, lu: str, lv: str) -> Edge:
        u, v = self.vertex_by_label(lu), self.vertex_by_label(lv)
        e = norm_edge(u, v)
        if e not in self.edges:
            raise GraphError(f"no edge between labels {lu!r} and {lv!r}")
        return e

    def relabel(self, labels: Iterable[str]) -> "Graph":
        return Graph(self.n, self.edges, tuple(labels))


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeProfile:
    """Degree summary: extremes plus a degree -> count histogram."""

    min_degree: int
    max_degree: int
    histogram: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CutReport:
    """The edges with exactly one endpoint inside ``inside``."""

    inside: frozenset[int]
    cut_edges: frozenset[Edge]

    @property
    def size(self) -> int:
        return len(self.cut_edges)


# ----------------------------------------------------------------------
# Queries over whole graphs
# ----------------------------------------------------------------------


def degree_profile(g: Graph) -> DegreeProfile:
    if g.n == 0:
        return DegreeProfile(0, 0, ())
    degs = [len(g.adj[v]) for v in range(g.n)]
    hist = tuple(sorted(Counter(degs).items()))
    return DegreeProfile(min(degs), max(degs), hist)


def edge_cut(g: Graph, inside: Iterable[int]) -> CutReport:
    """Edges of g with exactly one endpoint in ``inside``."""
    inner = frozenset(g.check_vertex(v) for v in inside)
    cut = frozenset(e for e in g.edges if (e[0] in inner) != (e[1] in inner))
    return CutReport(inner, cut)


def components(g: Graph) -> tuple[frozenset[int], ...]:
    """Connected components as vertex sets, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[frozenset[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack, comp = [root], []
        seen[root] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(frozenset(comp))
    return tuple(comps)


def is_cubic(g: Graph) -> bool:
    return g.n > 0 and all(len(g.adj[v]) == 3 for v in range(g.n))


def is_bipartite(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide bipartiteness; on success return a 0/1 coloring as witness."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False, None
    return True, tuple(color)


def connectivity_at_least(
    g: Graph, k: int
) -> tuple[bool, frozenset[int] | None]:
    """Decide whether no vertex set of size < k disconnects g.

    Exhaustive over all candidate separators (sizes 0..k-1).  On failure the
    returned witness is a separating set; removing it leaves >= 2 components,
    which callers can re-check with :func:`components`.
    """
    if k not in (1, 2, 3):
        raise GraphError(f"connectivity check supports k in 1..3, got {k}")
    if k == 3 and g.n < 4:
        raise GraphError(f"3-connectivity requires n >= 4, got n={g.n}")
    for size in range(k):
        for sep in itertools.combinations(range(g.n), size):
            if _disconnects(g, frozenset(sep)):
                return False, frozenset(sep)
    return True, None


def _disconnects(g: Graph, removed: frozenset[int]) -> bool:
    """True when g minus ``removed`` has >= 2 connected components."""
    remaining = [v for v in range(g.n) if v not in removed]
    if len(remaining) <= 1:
        return False
    seen = {remaining[0]}
    stack = [remaining[0]]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u not in removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) < len(remaining)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on ``keep`` with dense re-indexing; returns old->new map."""
    order = sorted(g.check_vertex(v) for v in set(keep))
    remap = {old: new for new, old in enumerate(order)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    ]
    labels = [g.labels[old] for old in order]
    return Graph.from_edges(len(order), edges, labels), remap
