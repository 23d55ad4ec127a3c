"""Planarity verdicts with independently checkable witnesses.

A planar verdict comes with a rotation system (cyclic neighbor order per
vertex); a non-planar verdict comes with an edge set forming a subdivision
of K5 or K3,3.  Neither witness has to be trusted: ``verify_rotation_system``
re-counts faces and checks Euler's formula per component, and
``verify_kuratowski`` suppresses degree-2 vertices and matches the core
graph against K5/K3,3 from scratch.

The verdict itself is delegated to networkx's left-right planarity test.
Its counterexample is already edge-minimal (networkx deletes edges one at a
time while the rest stays non-planar), so it is returned as it is;
``verify_kuratowski`` is what vouches for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, GraphError, components, norm_edge

Rotation = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PlanarityReport:
    planar: bool
    rotation: Rotation | None
    obstruction: frozenset[Edge] | None


def is_planar(g: Graph) -> PlanarityReport:
    """Planarity with witness: rotation system if planar, else a Kuratowski subdivision."""
    # networkx is imported here, on first use, because it takes most of the
    # package's import time and only planarity needs it
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(sorted(g.edges))
    ok, cert = nx.check_planarity(h, counterexample=True)
    if ok:
        data = cert.get_data()
        rotation = tuple(tuple(data.get(v, [])) for v in range(g.n))
        return PlanarityReport(True, rotation, None)
    bad = frozenset(norm_edge(u, v) for u, v in cert.edges())
    return PlanarityReport(False, None, bad)


def verify_rotation_system(g: Graph, rotation: Rotation) -> bool:
    """Check that a rotation system is a genus-0 (planar) embedding.

    Traces face orbits of directed edges per connected component and tests
    V - E + F = 2.  Also checks the rotation lists exactly the neighbors.
    """
    if len(rotation) != g.n:
        return False
    for v in range(g.n):
        if sorted(rotation[v]) != sorted(g.adj[v]):
            return False

    succ = {}
    for v in range(g.n):
        ring = rotation[v]
        pos = {u: i for i, u in enumerate(ring)}
        for u in ring:
            # next dart leaving v after arriving from u
            succ[(u, v)] = (v, ring[(pos[u] + 1) % len(ring)])

    comps = components(g)
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    verts = [len(comp) for comp in comps]
    edges = [0] * len(comps)
    faces = [0] * len(comps)
    for u, v in g.edges:
        edges[comp_of[u]] += 1

    seen: set[tuple[int, int]] = set()
    for dart in succ:
        if dart in seen:
            continue
        faces[comp_of[dart[0]]] += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
    for c in range(len(comps)):
        if edges[c] == 0:
            faces[c] = 1
        if verts[c] - edges[c] + faces[c] != 2:
            return False
    return True


def verify_kuratowski(g: Graph, edges: frozenset[Edge]) -> str:
    """Confirm ``edges`` forms a K5 or K3,3 subdivision inside g; return which.

    Raises GraphError when the edge set is not such a subdivision.
    """
    for e in edges:
        if e not in g.edges:
            raise GraphError(f"obstruction edge {e} not in graph")
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    branch = sorted(v for v, d in deg.items() if d >= 3)
    if any(d not in (2, 3, 4) for d in deg.values()):
        raise GraphError("obstruction has a vertex of unexpected degree")

    # Walk maximal degree-2 chains between branch vertices.
    nbrs: dict[int, list[int]] = {v: [] for v in deg}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    links: list[Edge] = []
    used: set[Edge] = set()
    for b in branch:
        for first in nbrs[b]:
            if norm_edge(b, first) in used:
                continue
            prev, cur = b, first
            used.add(norm_edge(prev, cur))
            while cur not in branch:
                if deg[cur] != 2:
                    raise GraphError("chain interrupted by non-degree-2 vertex")
                nxts = [w for w in nbrs[cur] if w != prev]
                if len(nxts) != 1:
                    raise GraphError("broken subdivision chain")
                prev, cur = cur, nxts[0]
                used.add(norm_edge(prev, cur))
            if b == cur:
                raise GraphError("subdivision chain loops back to its origin")
            links.append(norm_edge(b, cur))
    if len(used) != len(edges):
        raise GraphError("obstruction contains edges outside branch chains")
    # With the used-edge skip, every chain is walked exactly once.
    core = sorted(links)
    if len(set(core)) != len(core):
        raise GraphError("two branch vertices joined by parallel chains")

    k = len(branch)
    if k == 5 and len(core) == 10:
        return "K5"
    if k == 6 and len(core) == 9:
        degs = {b: sum(1 for e in core if b in e) for b in branch}
        if all(d == 3 for d in degs.values()):
            # 2-color the core graph to confirm K3,3 shape
            color = {branch[0]: 0}
            queue = [branch[0]]
            adj = {b: [] for b in branch}
            for u, v in core:
                adj[u].append(v)
                adj[v].append(u)
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if y not in color:
                        color[y] = 1 - color[x]
                        queue.append(y)
                    elif color[y] == color[x]:
                        raise GraphError("core on 6 branch vertices is not bipartite")
            if sorted(color.values()).count(0) == 3:
                return "K33"
    raise GraphError("obstruction core is neither K5 nor K3,3")
