"""Graph composition operators with explicit port bookkeeping.

Four operators combine two disjoint graphs (or three copies of one graph)
into a larger one:

* ``vsub``   -- delete a degree-3 vertex from each side and join the two
  neighbor triples pairwise (port i of the first side to port i of the
  second).  The three new edges form a 3-edge matching seam.
* ``ymerge3`` / ``ymerge`` -- delete a degree-3 vertex from each of three
  graphs (or three copies of one), add hub vertices z1,z2,z3, and join
  hub j to port j of every side.
* ``esub``   -- delete one edge from each side and add two bridging edges
  joining the endpoints pairwise (orientation of the deleted edges decides
  which endpoints pair up).
* ``ebridge`` -- ``esub`` with each bridging edge subdivided by a new
  vertex, plus an edge between the two new vertices (the "middle edge").

Port order is significant everywhere: the i-th port of one side always
pairs with the i-th port of the other, so the exact isomorph produced is
reproducible.  Default port order is ascending vertex id; callers override
it when a construction requires a specific alignment.

Each operator has one builder, and it returns the composite's detail: the
graph (``.graph``), the id maps from the operand graphs into it and the
newly created edges (``ebridge`` adds its ``.middle_edge``).  Labels record
provenance: "A."/"B." prefixes for binary operators, "Y1."/"Y2."/"Y3." for
the triple merge, and fresh vertices are labeled z1/z2/z3.

:data:`OPERATORS` declares each operator once: its anchor type, anchor
count and builder.  The construction language and the certifier read it,
so a new operator is one row there, plus a ``certify.RULES`` row if an
inference rule applies to it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .graph import Edge, Graph, GraphError, norm_edge


class ConstructionError(GraphError):
    """An operand does not satisfy an operator's requirements."""


# ----------------------------------------------------------------------
# Ported anchors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PortedVertex:
    """A degree-3 vertex together with an ordering of its neighbors."""

    graph: Graph
    v: int
    ports: tuple[int, int, int]

    def __post_init__(self) -> None:
        g = self.graph
        g.check_vertex(self.v)
        if g.degree(self.v) != 3:
            raise ConstructionError(
                f"vertex {self.v} ({g.labels[self.v]!r}) has degree "
                f"{g.degree(self.v)}, need 3"
            )
        if sorted(self.ports) != sorted(g.adj[self.v]):
            raise ConstructionError(
                f"ports {self.ports} are not a permutation of the neighbors "
                f"{g.adj[self.v]} of vertex {self.v}"
            )

    @staticmethod
    def default(g: Graph, v: int) -> "PortedVertex":
        """Ports in ascending id order."""
        return PortedVertex(g, v, g.neighbors(v))  # type: ignore[arg-type]


@dataclass(frozen=True)
class PortedEdge:
    """An edge with a declared orientation (first endpoint, second endpoint)."""

    graph: Graph
    e1: int
    e2: int

    def __post_init__(self) -> None:
        if norm_edge(self.e1, self.e2) not in self.graph.edges:
            raise ConstructionError(
                f"({self.e1},{self.e2}) is not an edge of the graph"
            )

    @property
    def edge(self) -> Edge:
        return norm_edge(self.e1, self.e2)


# ----------------------------------------------------------------------
# Detail results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryDetail:
    """Result of vsub/esub/ebridge with id maps into the composite."""

    graph: Graph
    map_a: dict[int, int]
    map_b: dict[int, int]
    new_edges: tuple[Edge, ...]
    middle_edge: Edge | None = None


@dataclass(frozen=True)
class TripleDetail:
    """Result of ymerge3 with per-side id maps and the three hub ids."""

    graph: Graph
    maps: tuple[dict[int, int], dict[int, int], dict[int, int]]
    hubs: tuple[int, int, int]
    side_edges: tuple[tuple[Edge, ...], ...]


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------


def _copy_side(
    g: Graph,
    skip: frozenset[int],
    prefix: str,
    offset: int,
) -> tuple[dict[int, int], list[str]]:
    remap: dict[int, int] = {}
    labels: list[str] = []
    for old in range(g.n):
        if old in skip:
            continue
        remap[old] = offset + len(labels)
        labels.append(prefix + g.labels[old])
    return remap, labels


def vsub(a: PortedVertex, b: PortedVertex) -> BinaryDetail:
    """Vertex substitution: (A - a) + (B - b) joined port-to-port."""
    ga, gb = a.graph, b.graph
    map_a, labels_a = _copy_side(ga, frozenset({a.v}), "A.", 0)
    map_b, labels_b = _copy_side(gb, frozenset({b.v}), "B.", len(labels_a))
    edges = [
        (map_a[u], map_a[v]) for u, v in ga.edges if u != a.v and v != a.v
    ]
    edges += [
        (map_b[u], map_b[v]) for u, v in gb.edges if u != b.v and v != b.v
    ]
    seam = tuple(
        norm_edge(map_a[a.ports[i]], map_b[b.ports[i]]) for i in range(3)
    )
    edges += seam
    graph = Graph.from_edges(
        len(labels_a) + len(labels_b), edges, labels_a + labels_b
    )
    return BinaryDetail(graph, map_a, map_b, seam)


def ymerge3(a1: PortedVertex, a2: PortedVertex, a3: PortedVertex) -> TripleDetail:
    """Three-way merge through three new hub vertices z1,z2,z3.

    Hub j is joined to port j of every side, so each side contributes a
    3-edge matching cut into the hubs.
    """
    sides = (a1, a2, a3)
    maps: list[dict[int, int]] = []
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    for idx, side in enumerate(sides, start=1):
        g = side.graph
        remap, labs = _copy_side(g, frozenset({side.v}), f"Y{idx}.", len(labels))
        maps.append(remap)
        labels += labs
        edges += [
            (remap[u], remap[v]) for u, v in g.edges if u != side.v and v != side.v
        ]
    hubs = tuple(len(labels) + j for j in range(3))
    labels += ["z1", "z2", "z3"]
    side_edges = []
    for side, remap in zip(sides, maps):
        cut = tuple(
            norm_edge(hubs[j], remap[side.ports[j]]) for j in range(3)
        )
        side_edges.append(cut)
        edges += cut
    graph = Graph.from_edges(len(labels), edges, labels)
    return TripleDetail(graph, tuple(maps), hubs, tuple(side_edges))


def ymerge(a: PortedVertex) -> TripleDetail:
    """ymerge3 over three copies of the same ported vertex."""
    return ymerge3(a, a, a)


def esub(a: PortedEdge, b: PortedEdge) -> BinaryDetail:
    """Edge substitution: drop one edge per side, bridge the endpoints pairwise."""
    ga, gb = a.graph, b.graph
    map_a, labels_a = _copy_side(ga, frozenset(), "A.", 0)
    map_b, labels_b = _copy_side(gb, frozenset(), "B.", len(labels_a))
    edges = [(map_a[u], map_a[v]) for u, v in ga.edges if norm_edge(u, v) != a.edge]
    edges += [(map_b[u], map_b[v]) for u, v in gb.edges if norm_edge(u, v) != b.edge]
    bridges = (
        norm_edge(map_a[a.e1], map_b[b.e1]),
        norm_edge(map_a[a.e2], map_b[b.e2]),
    )
    edges += bridges
    graph = Graph.from_edges(
        len(labels_a) + len(labels_b), edges, labels_a + labels_b
    )
    return BinaryDetail(graph, map_a, map_b, bridges)


def ebridge(a: PortedEdge, b: PortedEdge) -> BinaryDetail:
    """esub with both bridges subdivided and the two new vertices joined.

    The edge between the two new vertices is the designated middle edge.
    """
    sub = esub(a, b)
    z1, z2 = sub.graph.n, sub.graph.n + 1
    # each bridge (x, y) becomes x-z-y; z1, z2 exceed every id, so the
    # halves are already normalized
    (x1, y1), (x2, y2) = sub.new_edges
    new = ((x1, z1), (y1, z1), (x2, z2), (y2, z2), (z1, z2))
    edges = sub.graph.edges.difference(sub.new_edges).union(new)
    graph = Graph(z2 + 1, edges, sub.graph.labels + ("z1", "z2"))
    return BinaryDetail(graph, sub.map_a, sub.map_b, new, middle_edge=(z1, z2))


class Operator(NamedTuple):
    """``arity`` anchors of type ``anchor``, passed in order to ``detail``,
    the operator's builder, which returns the composite's detail."""

    anchor: type[PortedVertex] | type[PortedEdge]
    arity: int
    detail: Callable[..., BinaryDetail | TripleDetail]


OPERATORS: dict[str, Operator] = {
    "vsub": Operator(PortedVertex, 2, vsub),
    "ymerge3": Operator(PortedVertex, 3, ymerge3),
    "ymerge": Operator(PortedVertex, 1, ymerge),
    "esub": Operator(PortedEdge, 2, esub),
    "ebridge": Operator(PortedEdge, 2, ebridge),
}


# ----------------------------------------------------------------------
# Named graphs
# ----------------------------------------------------------------------

ATLAS_NAMES = ("K4", "K33", "Q", "S")


def atlas(name: str) -> Graph:
    """Named base graphs with documented canonical labelings.

    * ``K4``  -- complete graph on v0..v3.
    * ``K33`` -- complete bipartite graph on parts x1..x3 / y1..y3.
    * ``Q``   -- the cube skeleton; vertices are the 3-bit strings
      000..111 (id = binary value), edges join strings at Hamming
      distance 1.
    * ``S``   -- the six-prism (hexagon times an edge); outer ring
      o0..o5, inner ring i0..i5, rungs ok--ik.
    """
    if name == "K4":
        return Graph.from_edges(
            4,
            [(u, v) for u in range(4) for v in range(u + 1, 4)],
            [f"v{i}" for i in range(4)],
        )
    if name == "K33":
        return Graph.from_edges(
            6,
            [(u, v) for u in range(3) for v in range(3, 6)],
            ["x1", "x2", "x3", "y1", "y2", "y3"],
        )
    if name == "Q":
        edges = [
            (u, u ^ bit)
            for u in range(8)
            for bit in (1, 2, 4)
            if u < (u ^ bit)
        ]
        return Graph.from_edges(8, edges, [format(i, "03b") for i in range(8)])
    if name == "S":
        return prism(6)
    raise ConstructionError(f"unknown atlas graph {name!r}")


def prism(m: int) -> Graph:
    """Circular prism: an m-cycle times an edge (2m vertices, cubic).

    Bipartite and planar for even m; prism(6) is the atlas graph S.
    """
    if m < 3:
        raise ConstructionError(f"prism needs cycle length >= 3, got {m}")
    edges = []
    for k in range(m):
        nxt = (k + 1) % m
        edges += [(k, nxt), (m + k, m + nxt), (k, m + k)]
    labels = [f"o{k}" for k in range(m)] + [f"i{k}" for k in range(m)]
    return Graph.from_edges(2 * m, edges, labels)


# ----------------------------------------------------------------------
# Seam recovery
# ----------------------------------------------------------------------


def side_vertices(g: Graph, prefix: str) -> frozenset[int]:
    """Vertices whose label starts with ``prefix`` (e.g. "A." or "B.B.")."""
    return frozenset(v for v in range(g.n) if g.labels[v].startswith(prefix))
