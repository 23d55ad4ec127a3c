"""Immutable simple undirected graphs with labeled vertices.

Vertices are dense ids ``0..n-1``; each vertex carries a provenance label
(a dotted string such as ``"A.z1"`` that records where the vertex came from
when graphs are composed).  Loops and parallel edges are rejected at
construction time.

Cached structure: a graph computes its ascending neighbour lists
(``adj``, which the lowest-id packing greedy reads), its neighbour
bitmasks (``adj_masks``, the adjacency of the packing search), its SHA-256
edge digest and its label map on first use, and keeps them as long as it
lives.  ``adj_masks`` is one n-bit int per vertex, O(n^2 / 8) bytes, built
at the graph's first packing search (not its first solve: a solve the
greedy answers reads only ``adj``) however many problems are solved on it;
a search reads it as it is, or a copy less the problem's forbidden
edges.  None of these enters equality, hashing,
pickling and copying (a copy rebuilds them on use), or the JSON and DOT
forms.  Default labels ``v<i>`` are interned, so graphs share them.

Besides elementary queries (neighbors, cuts, components, degree profile)
this module provides three of the four structural checkers used throughout
the package: cubic, bipartite, and k-connected for k <= 3.  Planarity lives
in :mod:`lambdapack.planarity`.  Every checker that can fail returns a
witness that tests re-verify independently: a 2-coloring for bipartiteness,
a separating vertex set for connectivity.

Connectivity is decided from the components for k = 1 and by depth-first
low-link passes that find cut vertices for k = 2 and 3: one pass for k = 2,
O(n + m), and one per removed vertex for k = 3, O(n (n + m)).  The witness
is the same set an exhaustive search over separators in lexicographic order
would find first.
"""

from __future__ import annotations

import hashlib
import sys
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
            # interned, so graphs with default labels share one string each
            labels = tuple(sys.intern(f"v{i}") for i in range(n))
        else:
            labels = tuple(labels)
        return Graph(n, frozenset(normed), labels)

    def __getstate__(self) -> dict:
        """The fields alone, without the cached structure (``adj_masks``
        alone is O(n^2 / 8) bytes); a copy or an unpickled graph rebuilds
        its caches on first use."""
        return {"n": self.n, "edges": self.edges, "labels": self.labels}

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
        for ns in nbrs:
            ns.sort()
        return tuple(map(tuple, nbrs))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """The neighbours of each vertex as an int bitmask, indexed by
        vertex id: the search's adjacency.  Built once per graph, at
        O(n^2 / 8) bytes, when a packing search first reads it; a solve
        the lowest-id greedy answers never does.  A search on a problem
        that forbids edges copies it less those edges."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def digest(self) -> str:
        """SHA-256 hex of ``"n|u,v;u,v;..."`` over the sorted edges: the
        graph's label-free identity in certificates."""
        payload = f"{self.n}|" + ";".join(f"{u},{v}" for u, v in self.sorted_edges())
        return hashlib.sha256(payload.encode()).hexdigest()

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

    A set disconnects g when removing it leaves at least two vertices in at
    least two components.  On failure the witness is the lexicographically
    first smallest such set: the first of size 0, then 1, then 2, in the
    order of ``itertools.combinations(range(g.n), size)``.  Callers can
    re-check it with :func:`components`.

    k = 1 reads the components; k = 2 is one depth-first low-link pass for
    cut vertices (Hopcroft and Tarjan, "Efficient algorithms for graph
    manipulation", CACM 1973), O(n + m); k = 3 repeats that pass on g less
    each vertex in turn, O(n (n + m)).
    """
    if k not in (1, 2, 3):
        raise GraphError(f"connectivity check supports k in 1..3, got {k}")
    if k == 3 and g.n < 4:
        raise GraphError(f"3-connectivity requires n >= 4, got n={g.n}")
    if len(components(g)) > 1:
        return False, frozenset()
    if k == 1:
        return True, None
    cut = _cut_vertices(g)
    if cut:
        return False, frozenset(cut[:1])
    if k == 3:
        # g is 2-connected here, so {a, b} separates exactly when b is a cut
        # vertex of g - a; no b < a qualifies, or the pass for b had found a
        for a in range(g.n):
            cut = _cut_vertices(g, a)
            if cut:
                return False, frozenset({a, cut[0]})
    return True, None


def _cut_vertices(g: Graph, removed: int | None = None) -> list[int]:
    """Cut vertices of g, or of g minus ``removed``, ascending.

    One depth-first pass on an explicit stack, so long paths cannot exhaust
    the interpreter's recursion limit.  ``low[v]`` is the smallest discovery
    time reachable from v's subtree by one back edge; a non-root v is a cut
    vertex when some child c has ``low[c] >= disc[v]``, a root when it has
    two or more children.
    """
    adj = g.adj
    disc = [-1] * g.n
    low = [0] * g.n
    cut: set[int] = set()
    clock = 0
    for root in range(g.n):
        if disc[root] >= 0 or root == removed:
            continue
        disc[root] = low[root] = clock
        clock += 1
        children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if u == removed or u == parent:
                    continue
                if disc[u] < 0:
                    disc[u] = low[u] = clock
                    clock += 1
                    stack.append((u, v, iter(adj[u])))
                    break
                if disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if parent == root:
                    children += 1
                elif parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        cut.add(parent)
        if children >= 2:
            cut.add(root)
    return sorted(cut)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on ``keep`` with dense re-indexing; returns old->new map."""
    order = sorted(g.check_vertex(v) for v in set(keep))
    remap = {old: new for new, old in enumerate(order)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    ]
    labels = [g.labels[old] for old in order]
    return Graph.from_edges(len(order), edges, labels), remap
