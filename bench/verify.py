"""Output checks written apart from the program.

Nothing here calls into ``lambdapack``: witnesses, colourings, faces and
clause statuses are re-derived from plain edge lists, so a fault in the
program's own checkers (``check_packing``, ``is_bipartite``,
``verify_rotation_system``) cannot hide a wrong answer.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

Edge = tuple[int, int]


class Incorrect(AssertionError):
    """The program returned a wrong output."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Incorrect(message)


def norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def check_witness(
    n: int,
    edges: Iterable[Edge],
    paths: Iterable[tuple[int, int, int]],
    *,
    deleted_vertices: Iterable[int] = (),
    deleted_edges: Iterable[Edge] = (),
    forbidden_edges: Iterable[Edge] = (),
    forced_edges: Iterable[Edge] = (),
    factor: bool = False,
) -> int:
    """Check a packing given as (end, center, end) triples; returns its size."""
    edge_set = {norm(*e) for e in edges}
    dead = set(deleted_vertices)
    banned = {norm(*e) for e in deleted_edges} | {norm(*e) for e in forbidden_edges}
    used: set[int] = set()
    covered: set[Edge] = set()
    count = 0
    for a, c, b in paths:
        count += 1
        expect(len({a, c, b}) == 3, f"path {(a, c, b)} repeats a vertex")
        for v in (a, c, b):
            expect(0 <= v < n, f"path {(a, c, b)} leaves the graph")
            expect(v not in dead, f"path {(a, c, b)} uses deleted vertex {v}")
            expect(v not in used, f"vertex {v} lies on two paths")
            used.add(v)
        for e in (norm(a, c), norm(c, b)):
            expect(e in edge_set, f"path {(a, c, b)} uses non-edge {e}")
            expect(e not in banned, f"path {(a, c, b)} uses deleted/forbidden {e}")
            covered.add(e)
    for e in forced_edges:
        expect(norm(*e) in covered, f"forced edge {e} is not covered")
    if factor:
        expect(used == set(range(n)) - dead, "factor misses a live vertex")
    return count


def adjacency(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_cubic(n: int, edges: Iterable[Edge]) -> bool:
    return all(len(a) == 3 for a in adjacency(n, edges))


def two_colouring(n: int, edges: Iterable[Edge]) -> list[int] | None:
    """A proper 2-colouring by breadth-first search, or None."""
    adj = adjacency(n, edges)
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if colour[u] < 0:
                    colour[u] = 1 - colour[v]
                    queue.append(u)
                elif colour[u] == colour[v]:
                    return None
    return colour


def _connected_without(adj: list[list[int]], skip: int | None) -> bool:
    keep = [v for v in range(len(adj)) if v != skip]
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u != skip and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(keep)


def is_biconnected(n: int, edges: Iterable[Edge]) -> bool:
    """Connected, at least 3 vertices, and no cut vertex."""
    adj = adjacency(n, edges)
    return n >= 3 and all(_connected_without(adj, v) for v in [None, *range(n)])


def face_count(rotation: list[list[int]]) -> int:
    """Faces of a rotation system: orbits of the dart map (u,v) -> (v, succ_v(u))."""
    position = [{u: i for i, u in enumerate(ring)} for ring in rotation]
    seen: set[Edge] = set()
    faces = 0
    for u, ring in enumerate(rotation):
        for v in ring:
            if (u, v) in seen:
                continue
            faces += 1
            dart = (u, v)
            while dart not in seen:
                seen.add(dart)
                a, b = dart
                ring_b = rotation[b]
                dart = (b, ring_b[(position[b][a] + 1) % len(ring_b)])
    return faces


# ----------------------------------------------------------------------
# Brute-force factor search and the clause battery
# ----------------------------------------------------------------------


def has_factor(
    n: int,
    edges: Iterable[Edge],
    deleted_vertices: Iterable[int] = (),
    unusable: Iterable[Edge] = (),
    forced: Iterable[Edge] = (),
) -> bool:
    """Plain depth-first search for a factor: cover the lowest free vertex
    by every path through it, with no decomposition, bound or memo."""
    bad = {norm(*e) for e in unusable}
    usable = [e for e in (norm(*e) for e in edges) if e not in bad]
    adj = adjacency(n, usable)
    must = {norm(*e) for e in forced}
    dead = set(deleted_vertices)
    if any(u in dead or v in dead for u, v in must):
        return False
    free = set(range(n)) - dead
    if len(free) % 3:
        return False

    def candidates(v: int) -> list[tuple[int, int, int]]:
        out = []
        nbrs = [u for u in adj[v] if u in free]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                out.append((a, v, b))
        for c in nbrs:
            out.extend((v, c, w) for w in adj[c] if w in free and w != v)
        return out

    def fits(path: tuple[int, int, int]) -> bool:
        a, c, b = path
        on = {norm(a, c), norm(c, b)}
        return all(
            e in on or (e[0] not in path and e[1] not in path) for e in must
        )

    def search() -> bool:
        if not free:
            return True
        v = min(free)
        for path in candidates(v):
            if not fits(path):
                continue
            free.difference_update(path)
            found = search()
            free.update(path)
            if found:
                return True
        return False

    return search()


def brute_clauses(n: int, edges: list[Edge]) -> dict[str, str]:
    """Clause statuses of ``residue_factor_clauses``, from their definitions."""
    edges = sorted(norm(*e) for e in edges)
    adj = adjacency(n, edges)
    paths = [
        (a, c, b) for c in range(n) for a in adj[c] for b in adj[c] if a < b
    ]

    def holds(queries) -> str:
        return "holds" if all(has_factor(n, edges, **q) for q in queries) else "fails"

    out = dict.fromkeys(("z1", "z2", "z3", "z4", "z5", "t2", "f1", "f2"), "n/a")
    if n % 6 == 0:
        out["z1"] = holds([{}])
        out["z2"] = holds({"unusable": [e]} for e in edges)
        out["z3"] = holds({"forced": [e]} for e in edges)
        out["z4"] = holds(
            {"unusable": [e1, e2]}
            for i, e1 in enumerate(edges)
            for e2 in edges[i + 1 :]
        )
        out["z5"] = holds({"deleted_vertices": p} for p in paths)
    elif n % 6 == 2:
        out["t2"] = holds({"deleted_vertices": e} for e in edges)
    elif n % 6 == 4:
        out["f1"] = holds({"deleted_vertices": [x]} for x in range(n))
        out["f2"] = holds(
            {"deleted_vertices": [x], "unusable": [e]}
            for x in range(n)
            for e in edges
        )
    return out
