"""Planarity verdicts with independently checkable witnesses.

The verdict comes from the left-right planarity test (U. Brandes, "The
Left-Right Planarity Test", 2009), built on the LR criterion of de
Fraysseix, Ossona de Mendez and Rosenstiehl (2006).  The kernel follows
networkx's BSD-3-licensed implementation (``networkx.algorithms.planarity``,
Copyright (c) 2004-2025 NetworkX Developers) step for step, on int
vertices and edge ids instead of tuple-keyed dicts.  Its three phases --
DFS orientation with lowpoints, the LR test on a stack of conflict pairs,
and the embedding -- each run on an explicit stack, so deep graphs raise
no ``RecursionError``.

A planar verdict comes with a rotation system (cyclic neighbor order per
vertex), listed as networkx's ``PlanarEmbedding.get_data`` lists it: from
the vertex's leftmost neighbor, clockwise.  A non-planar verdict comes with
an edge set forming a subdivision of K5 or K3,3, found by networkx's
deletion loop: visit the vertices in ascending order and each one's current
neighbors in list order, drop the edge when the rest stays non-planar, and
otherwise put it back at the end of both lists.  The edges left are
edge-minimal non-planar, hence a Kuratowski subdivision.

Neither witness has to be trusted: ``verify_rotation_system`` re-counts
faces and checks Euler's formula per component, and ``verify_kuratowski``
suppresses degree-2 vertices and matches the core graph against K5/K3,3
from scratch.
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
    adj = [list(nbrs) for nbrs in g.adj]
    m = g.m
    if not _dense(g.n, m):
        lr = _LR(g.n, adj)
        if lr.test():
            return PlanarityReport(True, lr.embed(), None)
    # the deletion loop; an edge already kept at its lower end is tested
    # again at its upper end, as networkx does
    keep: set[Edge] = set()
    for u in range(g.n):
        for v in list(adj[u]):
            adj[u].remove(v)
            adj[v].remove(u)
            if _dense(g.n, m - 1) or not _LR(g.n, adj).test():
                m -= 1
            else:
                adj[u].append(v)
                adj[v].append(u)
                keep.add(norm_edge(u, v))
    return PlanarityReport(False, None, frozenset(keep))


def _dense(n: int, m: int) -> bool:
    """Euler's bound: more than 3n - 6 edges on n > 2 vertices is non-planar."""
    return n > 2 and m > 3 * n - 6


class _LR:
    """One left-right planarity test on the neighbor lists ``adj``.

    The constructor runs the orientation phase; ``test`` and ``embed`` run
    the other two.  Edges get ids in the order the DFS orients them, from
    ``tail`` to ``head``.  A conflict pair is a list ``[left.low, left.high,
    right.low, right.high]`` of edge ids, with None for an empty end.
    """

    __slots__ = ("n", "roots", "height", "parent", "tail", "head", "out",
                 "lowpt", "nest", "ref", "side")

    def __init__(self, n: int, adj: list[list[int]]) -> None:
        height = [-1] * n
        parent = [-1] * n  # the tree edge into each vertex; -1 at a root
        tail: list[int] = []
        head: list[int] = []
        lowpt: list[int] = []  # height of the lowest return point of each edge
        lowpt2: list[int] = []  # and of its second lowest
        nest: list[int] = []  # nesting depth: the order in which edges are tested
        out: list[list[int]] = [[] for _ in range(n)]
        pos = [0] * n
        roots = []
        for root in range(n):
            if height[root] >= 0:
                continue
            height[root] = 0
            roots.append(root)
            stack = [root]
            while stack:
                v = stack[-1]
                i = pos[v]
                if i < len(adj[v]):
                    pos[v] = i + 1
                    w = adj[v][i]
                    hv = height[v]
                    hw = height[w]
                    # a visited w is v's parent or a finished descendant, so
                    # the edge is oriented already (at a root, hw >= hv holds)
                    if hw >= 0 and (hw >= hv or tail[parent[v]] == w):
                        continue
                    e = len(head)
                    tail.append(v)
                    head.append(w)
                    out[v].append(e)
                    lowpt.append(hv if hw < 0 else hw)
                    lowpt2.append(hv)
                    nest.append(0)
                    if hw < 0:  # tree edge: visit w, finish e when w is done
                        parent[w] = e
                        height[w] = hv + 1
                        stack.append(w)
                        continue
                else:
                    stack.pop()
                    e = parent[v]
                    if e < 0:
                        continue
                    v = tail[e]
                # e = (v, .) is done: its nesting depth, and its lowpoints
                # passed up to v's tree edge
                low = lowpt[e]
                nest[e] = 2 * low + (lowpt2[e] < height[v])
                up = parent[v]
                if up >= 0:
                    if low < lowpt[up]:
                        lowpt2[up] = min(lowpt[up], lowpt2[e])
                        lowpt[up] = low
                    elif low > lowpt[up]:
                        lowpt2[up] = min(lowpt2[up], low)
                    else:
                        lowpt2[up] = min(lowpt2[up], lowpt2[e])
        self.n = n
        self.roots = roots
        self.height = height
        self.parent = parent
        self.tail = tail
        self.head = head
        self.out = out
        self.lowpt = lowpt
        self.nest = nest
        self.ref: list[int | None] = [None] * len(head)
        self.side = [1] * len(head)

    def test(self) -> bool:
        """Split the back edges into left and right; False when that fails."""
        height, parent, tail, head = self.height, self.parent, self.tail, self.head
        lowpt, ref, side = self.lowpt, self.ref, self.side
        m = len(head)
        ordered = [sorted(es, key=self.nest.__getitem__) for es in self.out]
        lowpt_edge: list[int | None] = [None] * m
        bottom: list[list | None] = [None] * m  # top of S when each edge starts
        S: list[list] = []

        def add_constraints(ei: int, e: int) -> bool:
            p: list = [None, None, None, None]
            low_e = lowpt[e]
            while True:  # merge the return edges of ei into p's right
                q = S.pop()
                if q[0] is not None or q[1] is not None:
                    q = [q[2], q[3], q[0], q[1]]  # swap sides
                    if q[0] is not None or q[1] is not None:
                        return False
                if lowpt[q[2]] > low_e:
                    if p[2] is None and p[3] is None:
                        p[3] = q[3]
                    else:
                        ref[p[2]] = q[3]
                    p[2] = q[2]
                else:  # align
                    ref[q[2]] = lowpt_edge[e]
                if (S[-1] if S else None) is bottom[ei]:
                    break
            low_i = lowpt[ei]
            while True:  # merge conflicting return edges of earlier siblings into p's left
                q = S[-1]
                if not (q[1] is not None and lowpt[q[1]] > low_i
                        or q[3] is not None and lowpt[q[3]] > low_i):
                    break
                S.pop()
                if q[3] is not None and lowpt[q[3]] > low_i:
                    q = [q[2], q[3], q[0], q[1]]  # swap sides
                    if q[3] is not None and lowpt[q[3]] > low_i:
                        return False
                if p[2] is not None:
                    ref[p[2]] = q[3]
                if q[2] is not None:
                    p[2] = q[2]
                if p[0] is None and p[1] is None:
                    p[1] = q[1]
                else:
                    ref[p[0]] = q[1]
                p[0] = q[0]
            if p.count(None) < 4:
                S.append(p)
            return True

        def lowest(p: list) -> int:
            if p[0] is None and p[1] is None:
                return lowpt[p[2]]
            if p[2] is None and p[3] is None:
                return lowpt[p[0]]
            return min(lowpt[p[0]], lowpt[p[2]])

        def remove_back_edges(e: int) -> None:
            u = tail[e]
            hu = height[u]
            while S and lowest(S[-1]) == hu:  # drop whole pairs ending at u
                p = S.pop()
                if p[0] is not None:
                    side[p[0]] = -1
            if S:  # trim the back edges ending at u from the next pair
                p = S[-1]
                while p[1] is not None and head[p[1]] == u:
                    p[1] = ref[p[1]]
                if p[1] is None and p[0] is not None:
                    ref[p[0]] = p[2]
                    side[p[0]] = -1
                    p[0] = None
                while p[3] is not None and head[p[3]] == u:
                    p[3] = ref[p[3]]
                if p[3] is None and p[2] is not None:
                    ref[p[2]] = p[0]
                    side[p[2]] = -1
                    p[2] = None
            if lowpt[e] < hu:  # e's side is that of a highest return edge
                hl, hr = S[-1][1], S[-1][3]
                if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                    ref[e] = hl
                else:
                    ref[e] = hr

        pos = [0] * self.n
        for root in self.roots:
            stack = [root]
            while stack:
                v = stack[-1]
                i = pos[v]
                if i < len(ordered[v]):
                    pos[v] = i + 1
                    ei = ordered[v][i]
                    bottom[ei] = S[-1] if S else None
                    if parent[head[ei]] == ei:
                        stack.append(head[ei])
                        continue
                    lowpt_edge[ei] = ei
                    S.append([None, None, ei, ei])
                else:
                    stack.pop()
                    ei = parent[v]
                    if ei < 0:
                        continue
                    remove_back_edges(ei)
                    v = tail[ei]
                    i = pos[v] - 1
                # integrate the return edges of ei = (v, .)
                if lowpt[ei] < height[v]:
                    if i == 0:
                        lowpt_edge[parent[v]] = lowpt_edge[ei]
                    elif not add_constraints(ei, parent[v]):
                        return False
        return True

    def embed(self) -> Rotation:
        """The rotation system of a graph that passed ``test``."""
        n, parent, head, nest, ref, side = (
            self.n, self.parent, self.head, self.nest, self.ref, self.side)
        for e in range(len(head)):  # resolve each side along its ref chain
            chain = []
            x = e
            while ref[x] is not None:
                chain.append(x)
                nxt = ref[x]
                ref[x] = None
                x = nxt
            s = side[x]
            for y in reversed(chain):
                s = side[y] = side[y] * s
            nest[e] *= side[e]

        # each vertex's ring as cw/ccw successor maps, plus its leftmost neighbor
        cw: list[dict[int, int]] = []
        ccw: list[dict[int, int]] = []
        first: list[int | None] = []
        ordered = [sorted(es, key=nest.__getitem__) for es in self.out]
        for es in ordered:
            ws = [head[e] for e in es]
            cw.append(dict(zip(ws, ws[1:] + ws[:1])))
            ccw.append(dict(zip(ws, ws[-1:] + ws[:-1])))
            first.append(ws[0] if ws else None)

        def insert_after(v: int, ref_w: int, x: int) -> None:
            """Put x into v's ring clockwise next to ref_w."""
            nxt = cw[v][ref_w]
            cw[v][ref_w] = x
            ccw[v][x] = ref_w
            cw[v][x] = nxt
            ccw[v][nxt] = x

        def insert_before(v: int, ref_w: int, x: int) -> None:
            """Put x counterclockwise next to ref_w; x is leftmost if ref_w was."""
            prev = ccw[v][ref_w]
            cw[v][prev] = x
            ccw[v][x] = prev
            cw[v][x] = ref_w
            ccw[v][ref_w] = x
            if first[v] == ref_w:
                first[v] = x

        left_ref = [0] * n
        right_ref = [0] * n
        pos = [0] * n
        for root in self.roots:
            stack = [root]
            while stack:
                v = stack[-1]
                i = pos[v]
                if i == len(ordered[v]):
                    stack.pop()
                    continue
                pos[v] = i + 1
                e = ordered[v][i]
                w = head[e]
                if parent[w] == e:  # tree edge: v is w's new leftmost
                    if first[w] is None:
                        cw[w][v] = ccw[w][v] = first[w] = v
                    else:
                        insert_before(w, first[w], v)
                    left_ref[v] = right_ref[v] = w
                    stack.append(w)
                elif side[e] == 1:
                    insert_after(w, right_ref[w], v)
                else:
                    insert_before(w, left_ref[w], v)
                    left_ref[w] = v

        rotation = []
        for v in range(n):
            ring = []
            x = first[v]
            if x is not None:
                ring.append(x)
                x = cw[v][x]
                while x != first[v]:
                    ring.append(x)
                    x = cw[v][x]
            rotation.append(tuple(ring))
        return tuple(rotation)


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
