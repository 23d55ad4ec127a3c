"""Exact decision and optimization for packings of 3-vertex paths.

A packing is a set of vertex-disjoint paths on 3 vertices; a factor is a
packing covering every (non-deleted) vertex.  ``solve`` answers three kinds
of query over a :class:`PackingProblem`:

* FACTOR -- does a factor exist subject to the constraints (deleted
  vertices, forbidden edges, forced edges)?  Returns SAT with a witness
  or UNSAT after exhaustion.
* MAX -- the maximum packing size, with witness (OPTIMUM).
* ``target=k`` (MAX mode) -- is there a packing of at least k paths?
  Returns SAT with a witness of exactly k paths, or UNSAT.

All of them ask one question: find a packing of the free vertices that
leaves at most ``slack`` of them uncovered and covers every forced edge.
FACTOR is slack 0; ``target=k`` is slack live - 3k; MAX starts at the
residue bound, the sum over components of (size mod 3), and raises the
slack by 3 until it is met, so the first success is optimal.  No packing
leaves fewer than live mod 3 vertices uncovered either, and that needs no
walk over the components, so MAX tries the lowest-id greedy there first
and walks the components only when it misses.
:func:`enumerate_factors` is a client of ``solve``.

Every mode first tries a witness phase: a greedy packing that covers the
forced edges and then the lowest-id free vertex each time, built without
backtracking and at no search node, which gives up as soon as it has
dropped more than ``slack`` vertices.  It reads the graph's adjacency
lists and keeps its free set as one byte per vertex, so it costs O(n + m)
and builds no bitmask.  When it meets the mode's first
slack (for MAX live mod 3, then, if that misses and the residue bound is
larger, the bound: each a lower bound on the uncovered vertices of any
packing, so the greedy packing is optimal; for ``target=k`` it stops at k
paths) it is the answer.  Where a witness is expected, a second
greedy with the same contract follows: the fewest-candidates rule of
Knuth's Algorithm X, for ``target=k`` after the first misses, and in MAX at
each slack s + 3 once the search has refuted s, so a hit is optimal.  It
never runs in FACTOR, whose queries are mostly proofs of UNSAT.
Otherwise the exact depth-first search below runs as if neither greedy
had.  So every UNSAT, and every node count of a query the greedies miss,
comes from the search alone.  The lowest-id greedy with the slack of all
live vertices is the lower bound a MAX search reports when its budget
runs out.

The search is deterministic.  Paths through an unsatisfied forced edge
come first; otherwise it branches on a vertex with a single candidate
path if there is one (residual degree 1 next to a vertex of residual
degree 2; lowest id first), else on the lowest-id uncovered vertex.
Candidate paths go in ascending canonical order, then the vertex is left
uncovered while slack remains, so verdicts and witnesses are
reproducible.  The slack is made congruent to the number of free
vertices mod 3 once, on entry, and every step keeps it so: a path
removes 3 vertices, an uncovered vertex 1 vertex and 1 slack, and each
component of a split gets a slack congruent to its size.  The root is a
frame like any other, with every free vertex near the (empty) removal.
The mask of the vertices of residual degree 1 travels down the frames and
is updated only around the removed vertices.  State is kept in bitmasks
and the frames run on an explicit stack, so input size never meets
Python's recursion limit.
The adjacency masks are the graph's cached ``Graph.adj_masks``, built at
O(n^2 / 8) bytes the first time any query on the graph reads masks (a
search, the fewest-candidates greedy, MAX's residue bound or the
battery's hole cover) and kept as long as the graph; a query the lowest-id
greedy answers builds none.  The engine reads that tuple itself, or, when
the problem forbids edges, a copy with their bits cleared; a deleted
vertex needs nothing, as every mask read is cut down to a free set, which
lies within the live vertices.  So repeated queries on one graph pay only
for their greedy or their search.
Independent residual components are solved separately: the smaller ones
are deepened to their least deficiency, the largest gets the rest of the
slack, and a failure memo keyed on (component, forced edges) keeps the
largest slack known to fail; the memo has no cap and lives as long as one
``solve``.  The main pruning rule is residue counting: a component of
size m leaves at least m mod 3 vertices uncovered.  The components of a
frame are found by walks from the free neighbours of the removed
vertices, lowest first: a walk that stops is a whole component, and one
that reaches every neighbour left holds the rest.  So a small piece cut
off by a small edge cut (as the composition operators leave behind) is
found, and at slack 0 pruned, after a walk of its own size; the search
needs no annotation of where those cuts are.

Budgets (node count and wall time) turn an unfinished search into an
explicit INDETERMINATE result, never a silent wrong answer; both are read
before any work, so a zero budget ends every query INDETERMINATE.  Every
witness ``solve`` returns (SAT, OPTIMUM, or the INDETERMINATE lower bound)
is re-checked by :func:`check_packing`, and every UNSAT comes from an
exhaustive search.  The re-check shares no logic or state with the
search: it reads only the graph's edge set and the problem's own sets,
never ``Graph.adj_masks`` (nor does the oracle).  It checks the whole
witness first, with a few set operations, and only when that fails goes
path by path to name the first fault.

:func:`residue_factor_clauses` asks hundreds of FACTOR queries per graph,
nearly all satisfiable.  It keeps each factor it finds with the set of its
edges, and answers each query from one of them by set operations on the
query's own edge sets: as it is when one found for the same deleted
vertices (looked up by that set) fits, or else repaired: a found factor
less its paths that meet the query's deleted vertices, use a forbidden
edge or touch a forced edge it misses, with the hole left covered by one
or two paths (one cover per hole, worked out once per graph), kept only
when those avoid the forbidden edges.  It searches only the rest, and
formats only the deciding query's detail.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Generator, Iterable, Iterator

from .graph import CutReport, Edge, Graph, GraphError, is_cubic, norm_edge

Triple = tuple[int, int, int]


class PackingError(ValueError):
    """Invalid problem data or an invalid claimed witness."""


class Mode(str, Enum):
    FACTOR = "FACTOR"
    MAX = "MAX"


@dataclass(frozen=True, slots=True)
class LambdaPath:
    """A 3-vertex path u-v-w with center v, stored canonically (u < w)."""

    u: int
    v: int
    w: int

    def __post_init__(self) -> None:
        if self.u == self.v or self.v == self.w or self.u == self.w:
            raise PackingError(f"path vertices not distinct: {self}")
        if self.u > self.w:
            raise PackingError(f"path not canonical (u > w): {self}")

    @staticmethod
    def of(end1: int, center: int, end2: int) -> "LambdaPath":
        return (
            LambdaPath(end1, center, end2)
            if end1 < end2
            else LambdaPath(end2, center, end1)
        )

    @property
    def vertices(self) -> tuple[int, int, int]:
        return (self.u, self.v, self.w)

    @property
    def edges(self) -> tuple[Edge, Edge]:
        return (norm_edge(self.u, self.v), norm_edge(self.v, self.w))

    @property
    def mask(self) -> int:
        return (1 << self.u) | (1 << self.v) | (1 << self.w)


@dataclass(frozen=True)
class PackingProblem:
    """A graph with constraints restricting which packings are admissible."""

    graph: Graph
    mode: Mode = Mode.FACTOR
    deleted_vertices: frozenset[int] = frozenset()
    forced_edges: frozenset[Edge] = frozenset()
    forbidden_edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        g = self.graph
        # ids must be ints, as in a witness: a float equal to an int would
        # pass the range and edge checks and then fail as a list index
        for v in self.deleted_vertices:
            if type(v) is not int:
                raise PackingError(f"deleted vertex {v!r} is not an int")
            if not 0 <= v < g.n:
                raise PackingError(f"deleted vertex {v} is not a graph vertex")
        for name in ("forced_edges", "forbidden_edges"):
            for e in getattr(self, name):
                if not (type(e[0]) is int and type(e[1]) is int):
                    raise PackingError(f"{name} entry {e!r} has an end that is not an int")
                if e[0] == e[1]:
                    raise PackingError(f"loop edge at vertex {e[0]}")
                if e not in g.edges:
                    raise PackingError(f"{name} entry {e} is not a graph edge")
        if self.forced_edges & self.forbidden_edges:
            raise PackingError("an edge cannot be both forced and forbidden")
        live = g.n - len(self.deleted_vertices)
        if self.mode == Mode.FACTOR and live % 3 != 0:
            raise PackingError(
                f"FACTOR mode needs a live vertex count divisible by 3, got {live}"
            )

    @property
    def alive(self) -> frozenset[int]:
        return frozenset(range(self.graph.n)) - self.deleted_vertices

    @property
    def alive_mask(self) -> int:
        """The live vertices as a bitmask."""
        dead = 0
        for v in self.deleted_vertices:
            dead |= 1 << v
        return ((1 << self.graph.n) - 1) & ~dead


@dataclass
class SolveStats:
    nodes: int = 0
    elapsed: float = 0.0
    prunes: Counter = field(default_factory=Counter)
    # the budget that ran out: "nodes", "seconds" or None
    exhausted: str | None = None


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a solve.

    verdict is one of SAT / UNSAT / OPTIMUM / INDETERMINATE.  For OPTIMUM,
    ``value`` equals the witness size.  For INDETERMINATE in MAX mode,
    ``value`` and ``paths`` carry a greedy packing (a lower bound), or None
    when greedy cannot cover the forced edges.
    """

    verdict: str
    value: int | None
    paths: tuple[LambdaPath, ...] | None
    stats: SolveStats


@dataclass(frozen=True)
class Budget:
    """Search limits; each must be a number >= 0 (``max_seconds`` may be inf)."""

    max_nodes: int = 100_000_000
    max_seconds: float = 600.0

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_seconds"):
            value = getattr(self, name)
            if not value >= 0:  # also rejects nan
                raise PackingError(f"budget {name} must be >= 0, got {value}")


class _BudgetExceeded(Exception):
    pass


# ----------------------------------------------------------------------
# Path enumeration and witness checking
# ----------------------------------------------------------------------

_U, _V, _W = attrgetter("u"), attrgetter("v"), attrgetter("w")


def enumerate_paths(g: Graph) -> tuple[LambdaPath, ...]:
    """All 3-vertex paths of ``g``, in canonical ascending order by (u, v, w)."""
    out = []
    for center, nbrs in enumerate(g.adj):
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                out.append(LambdaPath(a, center, b))
    return tuple(sorted(out, key=lambda p: p.vertices))


def check_packing(
    problem: PackingProblem, paths: Iterable[LambdaPath]
) -> None:
    """Re-verify a claimed packing against the problem; raises on any violation.

    Independent of the solver: it reads only ``problem.graph.edges`` and
    the problem's own sets.  The whole witness is checked first with a few
    set operations (:func:`_witness_holds`).  Only when that fails does the
    path-by-path check run, which raises the first fault: it checks, in
    this order, each vertex (in range, live, not covered before) and each
    edge (a graph edge, not forbidden) of each path, then
    forced-edge coverage, then (FACTOR mode) full coverage.  Vertices are
    tracked in one int mask.
    """
    paths = list(paths)
    if _witness_holds(problem, paths):
        return
    g = problem.graph
    n, edges = g.n, g.edges
    forced = problem.forced_edges
    alive = problem.alive_mask
    used = 0
    covered: set[Edge] = set()
    for p in paths:
        u, v, w = p.u, p.v, p.w
        for x in (u, v, w):
            if not 0 <= x < n:
                raise GraphError(f"vertex {x} out of range for n={n}")
            b = 1 << x
            if not b & alive:
                raise PackingError(f"path {p} uses deleted vertex {x}")
            if b & used:
                raise PackingError(f"vertex {x} covered twice")
            used |= b
        for e in ((u, v) if u < v else (v, u), (v, w) if v < w else (w, v)):
            if e not in edges:
                raise PackingError(f"path {p} uses a non-edge {e}")
            if e in problem.forbidden_edges:
                raise PackingError(f"path {p} uses a deleted/forbidden edge {e}")
            if e in forced:
                covered.add(e)
    if len(covered) < len(forced):
        raise PackingError(f"forced edges not covered: {sorted(forced - covered)}")
    if problem.mode == Mode.FACTOR and alive & ~used:
        raise PackingError(f"factor misses vertices {_bits(alive & ~used)}")


def _witness_holds(problem: PackingProblem, paths: list[LambdaPath]) -> bool:
    """True when ``paths`` is a valid packing of ``problem``, checked over
    the whole witness with a few set operations: every path a
    ``LambdaPath`` and every vertex an ``int`` (so no float equal to an int
    passes), live and covered once; every path edge a graph edge (which
    puts its ends in range), not forbidden; the forced
    edges among the path edges; in FACTOR, every live vertex covered.
    False sends ``check_packing`` to the path-by-path check, which finds
    the first fault."""
    if not set(map(type, paths)) <= {LambdaPath}:
        return False
    us = list(map(_U, paths))
    vs = list(map(_V, paths))
    ws = list(map(_W, paths))
    every = us + vs + ws
    if not set(map(type, every)) <= {int}:
        return False
    seen = set(every)
    if len(seen) < len(every) or not seen.isdisjoint(problem.deleted_vertices):
        return False
    # each path edge as (end, center) and (center, end); the graph's edges
    # are (low, high), so those it lacks must be graph edges reversed
    edges = problem.graph.edges
    pairs = set(zip(us, vs))
    pairs.update(zip(vs, ws))
    flipped = {(b, a) for a, b in pairs - edges}
    if not flipped <= edges:
        return False
    banned = problem.forbidden_edges
    if not (pairs.isdisjoint(banned) and flipped.isdisjoint(banned)):
        return False
    if not problem.forced_edges - pairs <= flipped:
        return False
    live = problem.graph.n - len(problem.deleted_vertices)
    return problem.mode != Mode.FACTOR or len(seen) == live


# ----------------------------------------------------------------------
# Search engine
# ----------------------------------------------------------------------


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


# A search frame is a generator: it yields a child frame, receives the
# child's witness (a list of triples) or None, and returns its own.  The
# mask ``ones`` of the free vertices of residual degree 1 travels down the
# frames; the unit rule counts the degree of such a vertex's neighbour
# directly, as a dense degree-2 mask per frame would double the memory of
# a deep search (a path on 3000 vertices keeps 1,000 frames).
_Frame = Generator


class _Engine:
    def __init__(self, problem: PackingProblem, budget: Budget):
        self.problem = problem
        self.alive_mask = problem.alive_mask
        self.budget = budget
        self.stats = SolveStats()
        self.deadline = time.monotonic() + budget.max_seconds
        self.start = time.monotonic()
        # (component, forced edges in it) -> largest slack known to fail
        self.memo: dict[tuple[int, tuple[Edge, ...]], int] = {}

    @functools.cached_property
    def adj(self) -> tuple[int, ...] | list[int]:
        """The search's adjacency: the graph's masks, less the forbidden
        edges only, as every read is cut down to a free set, which holds no
        deleted vertex.  Built at the first read, so a query the lowest-id
        greedy answers builds none."""
        adj = self.problem.graph.adj_masks
        if self.problem.forbidden_edges:
            adj = list(adj)
            for u, v in self.problem.forbidden_edges:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
        return adj

    @functools.cached_property
    def nbrs(self) -> tuple[tuple[int, ...], ...] | list[tuple[int, ...]]:
        """The greedy's adjacency: the graph's ascending lists, less the
        forbidden edges."""
        nbrs = self.problem.graph.adj
        if self.problem.forbidden_edges:
            nbrs = list(nbrs)
            for u, v in self.problem.forbidden_edges:
                nbrs[u] = tuple(x for x in nbrs[u] if x != v)
                nbrs[v] = tuple(x for x in nbrs[v] if x != u)
        return nbrs

    # -- bookkeeping ----------------------------------------------------

    def _tick(self) -> None:
        self.stats.nodes += 1
        if self.stats.nodes >= self.budget.max_nodes or self.stats.nodes % 2048 == 0:
            self._check_budget()

    def _check_budget(self) -> None:
        """Stop when the node budget or the deadline is spent.  Read before
        any work, so a zero budget of either kind stops even a query that
        needs no node, and then by ``_tick`` (the clock every 2048 nodes)."""
        if self.stats.nodes >= self.budget.max_nodes:
            self.stats.exhausted = "nodes"
            raise _BudgetExceeded()
        if time.monotonic() >= self.deadline:
            self.stats.exhausted = "seconds"
            raise _BudgetExceeded()

    def _components(self, free: int) -> list[int]:
        comps = []
        rem = free
        adj = self.adj
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    nxt |= adj[b.bit_length() - 1]
                frontier = nxt & rem & ~comp
                comp |= frontier
            comps.append(comp)
            rem &= ~comp
        return comps

    def _degrees(self, free: int, ones: int, near: int) -> int:
        """``ones`` restricted to ``free``, with the residual degrees of the
        vertices in ``near`` (a subset of ``free``) recounted."""
        ones &= free & ~near
        adj = self.adj
        while near:
            b = near & -near
            near ^= b
            if (adj[b.bit_length() - 1] & free).bit_count() == 1:
                ones |= b
        return ones

    # -- candidate moves -------------------------------------------------

    def _paths_covering(self, v: int, free: int) -> Iterator[Triple]:
        """The candidate paths through ``v`` within ``free``, unordered."""
        adj = self.adj
        nbrs = _bits(adj[v] & free)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                yield (a, v, b)
        for c in nbrs:
            for w in _bits(adj[c] & free & ~(1 << v)):
                yield (v, c, w) if v < w else (w, c, v)

    def _paths_through_edge(self, u: int, v: int, free: int) -> Iterator[Triple]:
        """The candidate paths through the edge (u, v) within ``free``, unordered."""
        adj = self.adj
        for x in _bits(adj[u] & free & ~(1 << v)):
            yield (x, u, v) if x < v else (v, u, x)
        for y in _bits(adj[v] & free & ~(1 << u)):
            yield (u, v, y) if u < y else (y, v, u)

    # -- the deficiency-bounded search ------------------------------------

    def search(
        self, free: int, slack: int, forced: tuple[Edge, ...]
    ) -> list[Triple] | None:
        """A packing of ``free`` that leaves at most ``slack`` of its vertices
        uncovered and covers every forced edge, or None when none exists.

        The slack is rounded here, once, to the size of ``free`` mod 3.
        Frames run on an explicit stack, so the depth of the search is not
        bounded by Python's recursion limit.
        """
        self._check_budget()
        slack -= (slack - free.bit_count()) % 3
        if slack < 0:
            self.stats.prunes["residue"] += 1
            return None
        root = self._frame(free, slack, forced, free, 0)
        if root is None:
            return None
        stack = [root]
        result: list[Triple] | None = None
        while True:
            try:
                child = stack[-1].send(result)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    return stop.value
                result = stop.value
            else:
                stack.append(child)
                result = None

    def _split(
        self,
        free: int,
        slack: int,
        forced: tuple[Edge, ...],
        ones: int,
        comps: list[int],
    ) -> _Frame:
        """A free set of 0 or 2+ components ``comps`` (ordered by lowest
        vertex): solve them one by one, sharing the slack.

        Each component leaves at least its size mod 3 uncovered.  The smaller
        components are deepened from that residue in steps of 3 until one
        succeeds, which finds their least deficiency; the largest component
        gets all the slack that is left, in one pass.
        """
        if free == 0:
            return []
        need = sum(c.bit_count() % 3 for c in comps)
        if need > slack:
            self.stats.prunes["residue"] += 1
            return None
        largest = max(comps, key=int.bit_count)
        comps.remove(largest)
        comps.append(largest)
        memo = self.memo
        out: list[Triple] = []
        for comp in comps:
            size = comp.bit_count()
            need -= size % 3
            room = slack - need
            key = (comp, tuple(e for e in forced if (comp >> e[0]) & 1))
            if size < 3 and not key[1]:
                slack -= size  # no path fits: all of it stays uncovered
                continue
            s = room if comp == largest else size % 3
            failed = memo.get(key, -1)
            if failed >= s:
                self.stats.prunes["memo_hit"] += 1
                s = failed + 3
            while True:
                if s > room:
                    return None
                sub = yield self._comp(comp, s, key[1], ones & comp)
                if sub is not None:
                    break
                memo[key] = s
                s += 3
            slack -= size - 3 * len(sub)
            out += sub
        return out

    def _branch_vertex(self, comp: int, ones: int) -> int:
        """The lowest-id vertex with a single candidate path (residual
        degree 1, its neighbour of residual degree 2), else the lowest-id
        vertex.  ``ones`` holds the vertices of ``comp`` of residual
        degree 1; a connected set of two or more vertices has none of
        residual degree 0."""
        adj = self.adj
        while ones:
            b = ones & -ones
            c = adj[b.bit_length() - 1] & comp
            if (adj[c.bit_length() - 1] & comp).bit_count() == 2:
                return b.bit_length() - 1
            ones ^= b
        return (comp & -comp).bit_length() - 1

    def _comp(
        self, comp: int, slack: int, forced: tuple[Edge, ...], ones: int
    ) -> _Frame:
        """One connected free set: cover its first forced edge, else the
        vertex ``_branch_vertex`` picks by each candidate path in order, or
        leave that vertex uncovered while slack remains."""
        self._tick()
        if forced:
            moves = sorted(self._paths_through_edge(*forced[0], comp))
        else:
            v = self._branch_vertex(comp, ones)
            moves = sorted(self._paths_covering(v, comp))
        if not moves and (forced or not slack):
            self.stats.prunes["stranded"] += 1
            return None
        adj = self.adj
        for path in moves:
            a, b, c = path
            rest = comp & ~((1 << a) | (1 << b) | (1 << c))
            rest_forced = forced
            if forced:
                covered = (norm_edge(a, b), norm_edge(b, c))
                rest_forced = tuple(e for e in forced if e not in covered)
            child = self._frame(
                rest, slack, rest_forced, adj[a] | adj[b] | adj[c], ones
            )
            if child is None:
                continue
            sub = yield child
            if sub is not None:
                sub.append(path)
                return sub
        if forced or not slack:
            return None
        rest = comp & ~(1 << v)
        child = self._frame(rest, slack - 1, (), adj[v], ones)
        return None if child is None else (yield child)

    def _frame(
        self,
        rest: int,
        slack: int,
        forced: tuple[Edge, ...],
        near: int,
        ones: int,
    ) -> _Frame | None:
        """The frame for what is left of a connected set after a removal (at
        the root, the free set), or None when a forced edge has lost an end
        or, at slack 0, a piece of it has a residue.

        ``near`` is the neighbourhood of the removed vertices (at the root,
        every free vertex): only their free neighbours change residual
        degree, and every piece of ``rest`` holds one of them.  So the
        pieces are found by a walk from the lowest of those neighbours not
        yet placed: a walk that stops is a whole piece, and the next walk
        starts from the next one; a walk that reaches every one left holds
        the rest.  When the first walk reaches them all, ``rest`` is
        connected and the component split is skipped.
        """
        for u, v in forced:
            if not ((rest >> u) & 1 and (rest >> v) & 1):
                self.stats.prunes["forced_dead"] += 1
                return None
        near &= rest
        adj = self.adj
        pieces: list[int] = []
        left = near
        while left:
            group = layer = left & -left
            left ^= group
            while layer and left:
                nxt = 0
                while layer:
                    b = layer & -layer
                    layer ^= b
                    nxt |= adj[b.bit_length() - 1]
                layer = nxt & rest & ~group
                group |= layer
                left &= ~layer
            if layer:  # the walk reached every neighbour left: the rest
                break
            if not slack and group.bit_count() % 3:
                self.stats.prunes["residue"] += 1
                return None
            pieces.append(group)
        ones = self._degrees(rest, ones, near)
        last = rest
        for piece in pieces:
            last ^= piece
        if last:
            pieces.append(last)
        if len(pieces) == 1:
            return self._comp(rest, slack, forced, ones)
        pieces.sort(key=lambda c: c & -c)
        return self._split(rest, slack, forced, ones, pieces)

    # -- witnesses built without a search: the two greedies (the witness
    # phases, and the lower bound when a budget runs out) and the battery's
    # hole cover

    def _cover_forced(
        self, forced: tuple[Edge, ...]
    ) -> tuple[list[Triple], bytearray] | None:
        """The greedies' first step: each forced edge not yet covered takes
        its least candidate path.  Returns those paths and the free set they
        leave, one byte per vertex, or None when an edge has no candidate."""
        free = bytearray(b"\x01") * self.problem.graph.n
        for v in self.problem.deleted_vertices:
            free[v] = 0
        nbrs = self.nbrs
        out: list[Triple] = []
        covered: set[Edge] = set()
        for u, v in forced:
            if (u, v) in covered:
                continue
            if not (free[u] and free[v]):
                return None
            path = min(
                [(x, u, v) if x < v else (v, u, x) for x in nbrs[u] if free[x] and x != v]
                + [(u, v, y) if u < y else (y, v, u) for y in nbrs[v] if free[y] and y != u],
                default=None,
            )
            if path is None:
                return None
            out.append(path)
            covered.update(LambdaPath.of(*path).edges)
            free[path[0]] = free[path[1]] = free[path[2]] = 0
        return out, free

    def greedy(
        self, forced: tuple[Edge, ...], slack: int, paths: int | None = None
    ) -> list[Triple] | None:
        """The contract of ``search`` over all live vertices, met without
        backtracking: a packing that covers every forced edge and leaves at
        most ``slack`` live vertices uncovered, or None when greedy misses.

        Each forced edge not yet covered takes its first candidate path;
        then the lowest-id free vertex takes its first candidate path, or is
        dropped, which returns None as soon as more than ``slack`` are.  It
        stops once it holds ``paths`` paths, and costs no search node.  It
        reads the adjacency lists, never the masks.
        """
        start = self._cover_forced(forced)
        if start is None:
            return None
        out, free = start
        live = self.alive_mask.bit_count()
        nbrs = self.nbrs
        cap = len(free) if paths is None else paths
        dropped = 0
        for v in range(len(free)):
            if not free[v]:
                continue
            if len(out) >= cap:
                break
            # v is the lowest free vertex, so the least candidate path is
            # (v, c, w) for the lowest neighbour c that has another free
            # neighbour, w the lowest of those; else (a, v, b) for v's two
            # lowest neighbours.  v leaves the free set first, so no w is v
            free[v] = 0
            path = None
            near = []
            for c in nbrs[v]:
                if free[c]:
                    for w in nbrs[c]:
                        if free[w]:
                            path = (v, c, w)
                            break
                    if path is not None:
                        break
                    near.append(c)
            if path is None:
                if len(near) < 2:
                    dropped += 1
                    if dropped > slack:
                        return None
                    continue
                path = (near[0], v, near[1])
            out.append(path)
            free[path[0]] = free[path[1]] = free[path[2]] = 0
        return out if live - 3 * len(out) <= slack else None

    def greedy_fewest(
        self, forced: tuple[Edge, ...], slack: int, paths: int | None = None
    ) -> list[Triple] | None:
        """``greedy``'s contract, met by the fewest-candidates rule of
        Knuth's Algorithm X instead of the lowest id.

        After the forced edges, the free vertex with the fewest candidate
        paths, C(d_v, 2) + sum over its free neighbours c of (d_c - 1) with
        d the free degree, goes next, lowest id on ties.  With no candidate
        it is dropped, against the slack; else it takes the candidate that
        leaves the fewest free vertices with no free neighbour, then the
        least.  A removal lowers the counts only within distance 2 of the
        removed vertices, so only those are recounted and pushed on a heap;
        counts never rise, so a vertex's latest entry pops first and the
        entries left behind are skipped once it is gone.  It costs no search
        node.
        """
        start = self._cover_forced(forced)
        if start is None:
            return None
        out = start[0]
        free = self.alive_mask
        for a, b, c in out:
            free &= ~((1 << a) | (1 << b) | (1 << c))
        live = self.alive_mask.bit_count()
        adj = self.adj
        deg = [0] * len(adj)
        cnt = [0] * len(adj)
        for v in _bits(free):
            deg[v] = (adj[v] & free).bit_count()

        def count(v: int) -> int:
            d = deg[v]
            return d * (d - 1) // 2 + sum(deg[c] - 1 for c in _bits(adj[v] & free))

        heap = []
        for v in _bits(free):
            cnt[v] = count(v)
            heap.append((cnt[v], v))
        heapify(heap)

        def isolated(path: Triple) -> int:
            """The free vertices left with no free neighbour by ``path``."""
            rest = free & ~((1 << path[0]) | (1 << path[1]) | (1 << path[2]))
            near = (adj[path[0]] | adj[path[1]] | adj[path[2]]) & rest
            return sum(1 for x in _bits(near) if not adj[x] & rest)

        dropped = 0
        while free and (paths is None or len(out) < paths):
            c, v = heappop(heap)
            if not (free >> v) & 1:
                continue
            if c:
                path = min(self._paths_covering(v, free), key=lambda t: (isolated(t), t))
                out.append(path)
                gone = (1 << path[0]) | (1 << path[1]) | (1 << path[2])
            else:
                dropped += 1
                if dropped > slack:
                    return None
                gone = 1 << v
            free &= ~gone
            near = 0
            for x in _bits(gone):
                near |= adj[x]
            near &= free
            around = near
            for x in _bits(near):
                deg[x] = (adj[x] & free).bit_count()
                around |= adj[x]
            for x in _bits(around & free):
                k = count(x)
                if k < cnt[x]:
                    cnt[x] = k
                    heappush(heap, (k, x))
        return out if live - 3 * len(out) <= slack else None

    def cover_hole(self, hole: int) -> list[Triple] | None:
        """One or two paths that cover exactly the vertices of ``hole``, or
        None when none do or the hole has more than 6 vertices.  Each path
        through the hole's lowest vertex is tried, and the 3 vertices it
        leaves must form a path.  It costs no search node."""
        if not hole:
            return []
        if hole.bit_count() not in (3, 6):
            return None
        adj = self.adj
        for path in self._paths_covering((hole & -hole).bit_length() - 1, hole):
            rest = hole & ~((1 << path[0]) | (1 << path[1]) | (1 << path[2]))
            if not rest:
                return [path]
            # the first path through the lowest of the 3 left, a < x < y,
            # in the order of ``_paths_covering``, read off the masks
            low, y = rest & -rest, rest.bit_length() - 1
            a, x = low.bit_length() - 1, (rest ^ low ^ (1 << y)).bit_length() - 1
            ax, ay = adj[a] >> x & 1, adj[a] >> y & 1
            if ax and ay:
                return [path, (x, a, y)]
            if adj[x] >> y & 1 and (ax or ay):
                return [path, (a, x, y) if ax else (a, y, x)]
        return None


# ----------------------------------------------------------------------
# Public solve entry points
# ----------------------------------------------------------------------


def solve(
    problem: PackingProblem,
    budget: Budget | None = None,
    seams: object = (),
    target: int | None = None,
) -> PackingResult:
    """Answer a problem; see the module docstring.

    The budget is read once before any work, then the lowest-id greedy
    runs at the mode's slack (FACTOR 0, MAX live mod 3, ``target=k``
    live - 3k and at most k paths).  For ``target=k`` the fewest-candidates
    greedy runs next at the same slack, and the exact search only when both
    miss.  FACTOR runs the search when the lowest-id greedy misses.  MAX
    walks the components for the residue bound only when the greedy
    misses, and runs it again at the bound when that is larger; then it
    searches slack s, from the bound, and tries the fewest-candidates
    greedy at s + 3 (optimal there, as s is refuted) before it searches
    s + 3.  Each witness is re-checked by :func:`check_packing`: the whole
    witness by set operations, then, only if that fails, path by path.
    ``target`` (MAX mode only, >= 0) asks for any packing of size >= target and
    returns SAT/UNSAT instead of OPTIMUM.  A SAT witness has exactly
    ``target`` paths, unless the paths covering forced edges outnumber it.
    ``seams`` is accepted and ignored: the search finds every split of the
    graph itself, so cut annotations add nothing.
    """
    if target is not None:
        if problem.mode == Mode.FACTOR:
            raise PackingError("target applies to MAX mode only")
        if target < 0:
            raise PackingError("target must be >= 0")
    budget = budget or Budget()
    engine = _Engine(problem, budget)
    alive = engine.alive_mask
    live = alive.bit_count()
    forced = tuple(sorted(problem.forced_edges))
    try:
        engine._check_budget()
        # witness phase: greedy first, at the slack of the mode's search
        if problem.mode == Mode.FACTOR:
            wit = engine.greedy(forced, 0)
            if wit is None:
                wit = engine.search(alive, 0, forced)
            return _finish(problem, engine, "SAT" if wit is not None else "UNSAT", wit)
        if target is not None:
            wit = engine.greedy(forced, live - 3 * target, target)
            if wit is None and 3 * target <= live:
                wit = engine.greedy_fewest(forced, live - 3 * target, target)
            if wit is None and 3 * target <= live:
                wit = engine.search(alive, live - 3 * target, forced)
                if wit is not None:
                    # keep every path on a forced edge, then fill up to ``target``
                    edges = problem.forced_edges
                    on_forced = [p for p in wit if set(LambdaPath.of(*p).edges) & edges]
                    others = [p for p in wit if p not in on_forced]
                    wit = on_forced + others[: max(0, target - len(on_forced))]
            return _finish(problem, engine, "SAT" if wit is not None else "UNSAT", wit)
        # MAX: the least slack that succeeds gives the optimum.  No packing
        # leaves fewer than live mod 3 vertices uncovered, nor fewer than the
        # residue bound, which the component walk finds only when greedy
        # misses at live mod 3; greedy runs again only where the bound is
        # larger, as it builds the same packing at any slack
        slack = live % 3
        wit = engine.greedy(forced, slack)
        if wit is None:
            slack = sum(c.bit_count() % 3 for c in engine._components(alive))
            if slack > live % 3:
                wit = engine.greedy(forced, slack)
        while wit is None and slack <= live:
            wit = engine.search(alive, slack, forced)
            slack += 3
            if wit is None and slack <= live:
                # slack - 3 is refuted, so a packing at this slack is optimal
                wit = engine.greedy_fewest(forced, slack)
        return _finish(problem, engine, "OPTIMUM" if wit is not None else "UNSAT", wit)
    except _BudgetExceeded:
        wit = engine.greedy(forced, live) if problem.mode == Mode.MAX else None
        return _finish(problem, engine, "INDETERMINATE", wit)


def _finish(
    problem: PackingProblem,
    engine: _Engine,
    verdict: str,
    triples: Iterable[Triple] | None,
) -> PackingResult:
    engine.stats.elapsed = time.monotonic() - engine.start
    paths = value = None
    if triples is not None:
        # the engine's triples are canonical, so they sort as their paths do
        paths = tuple(LambdaPath(*t) for t in sorted(triples))
        check_packing(problem, paths)
        value = len(paths)
    return PackingResult(verdict, value, paths, engine.stats)


def enumerate_factors(
    problem: PackingProblem,
    budget: Budget | None = None,
) -> Iterator[tuple[LambdaPath, ...]]:
    """Yield every factor of the problem once, each as soon as it is found.

    Lawler's partition method: ``solve`` finds a factor W of a part (at
    first ``problem``), and the rest of the part splits into one child per
    edge e_i of W that the part does not force, in ascending order, which
    forces e_1 .. e_(i-1) and forbids e_i; a factor other than W lies in the
    child of the first e_i it lacks.  ``solve`` re-checks each factor with
    :func:`check_packing`.  One ``budget`` covers every search; when it
    runs out, PackingError is raised, after any factors found.
    """
    if problem.mode != Mode.FACTOR:
        raise PackingError("enumerate_factors needs a FACTOR-mode problem")
    budget = budget or Budget()
    nodes = budget.max_nodes
    deadline = time.monotonic() + budget.max_seconds
    parts = [problem]
    while parts:
        part = parts.pop()
        res = solve(part, Budget(nodes, max(0.0, deadline - time.monotonic())))
        if res.verdict == "INDETERMINATE":
            raise PackingError("factor enumeration exceeded its budget")
        nodes -= res.stats.nodes
        if res.verdict == "SAT":
            yield res.paths
            unforced = sorted(
                {e for p in res.paths for e in p.edges} - part.forced_edges
            )
            for i, e in enumerate(unforced):
                forced = part.forced_edges.union(unforced[:i])
                forbidden = part.forbidden_edges | {e}
                parts.append(replace(part, forced_edges=forced, forbidden_edges=forbidden))


# ----------------------------------------------------------------------
# Crossing-case classification over a 3-edge matching cut
# ----------------------------------------------------------------------

_CASES_SIDE0MOD3 = {(1, 0): "a1.1", (0, 2): "a1.2", (2, 1): "a1.3"}
_CASES_SIDE1MOD3 = {(0, 0): "a2.1", (1, 1): "a2.2", (3, 0): "a2.3", (0, 3): "a2.3"}


def crossing_pattern(
    g: Graph, factor: Iterable[LambdaPath], cut: CutReport
) -> str:
    """Classify how a factor crosses a 3-edge matching cut.

    The side sizes force every factor into one of six patterns: with the
    deleted-vertex side counting 0 mod 3 one of a1.1/a1.2/a1.3, with it
    counting 1 mod 3 one of a2.1/a2.2/a2.3.  Returns the tag, or
    "violation" when the factor fits no enumerated pattern (which would
    refute the case analysis the certifier relies on).
    """
    paths = tuple(factor)
    check_packing(PackingProblem(g, Mode.FACTOR), paths)
    if cut.size != 3:
        raise PackingError(f"crossing analysis needs a 3-edge cut, got {cut.size}")
    ends = [v for e in cut.cut_edges for v in e]
    if len(set(ends)) != len(ends):
        raise PackingError("cut is not a matching")

    inside = cut.inside
    removed_side_count = len(inside) + 1  # side size before vertex substitution
    if removed_side_count % 3 == 0:
        side, cases = inside, _CASES_SIDE0MOD3
    elif removed_side_count % 3 == 1:
        side, cases = inside, _CASES_SIDE1MOD3
    else:
        # normalize: classify from the complement side, which counts 0 mod 3
        side = frozenset(range(g.n)) - inside
        cases = _CASES_SIDE0MOD3

    p = q = 0
    for path in paths:
        used = sum(1 for e in path.edges if e in cut.cut_edges)
        if used == 0:
            continue
        if used > 1:
            return "violation"
        k = sum(1 for v in path.vertices if v in side)
        if k == 2:
            p += 1
        elif k == 1:
            q += 1
        else:
            return "violation"
    return cases.get((p, q), "violation")


# ----------------------------------------------------------------------
# Constrained-factor predicate battery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseResult:
    status: str  # "holds" | "fails" | "n/a" | "indeterminate"
    detail: str = ""


_CLAUSES = ("z1", "z2", "z3", "z4", "z5", "t2", "f1", "f2")


def residue_factor_clauses(
    g: Graph, budget: Budget | None = None
) -> dict[str, ClauseResult]:
    """Evaluate the constrained-factor clauses applicable to v(G) mod 6.

    Residue 0: z1..z5; residue 2: t2; residue 4: f1, f2.  Every applicable
    clause is decided by constrained factor queries, asked in a fixed order
    until one fails; the rest report n/a.

    Almost every query has a factor, so each is first answered from the
    factors already found, each kept with a mask of its deleted vertices,
    the ``frozenset`` of its edges and a mask of its path at each vertex.
    Oldest first among those found for the query's deleted vertices (a
    dict keyed by their mask), one whose edges avoid the forbidden ones
    and hold the forced ones is the answer as it is.  Otherwise, newest
    first, a found factor W is repaired: it drops its paths that meet the
    deleted vertices, use a forbidden edge or touch a forced edge W
    misses, and ``_Engine.cover_hole`` re-covers the hole left (at most 6
    vertices) with one or two paths of G, without a search; the result is
    the answer if the added paths avoid the forbidden edges and its edges
    hold the forced ones, and it is kept.  Each hole has one cover, worked
    out once per call: a factor whose cover uses a forbidden edge is
    skipped.
    Every answer is re-checked by :func:`check_packing`.  Only the other
    queries are searched, each under its own ``budget``, so every "fails"
    and every "indeterminate" comes from a search of that same query, the
    only query whose detail is formatted; a query answered without a
    search spends no budget, so under a small budget a clause may hold
    where a search of each query would have run out.
    """
    if not is_cubic(g):
        raise PackingError("predicate battery expects a cubic graph")
    budget = budget or Budget()
    residue = g.n % 6
    out = dict.fromkeys(_CLAUSES, ClauseResult("n/a"))
    edges = g.sorted_edges()
    full = (1 << g.n) - 1
    # the engine has no constraints, so a hole's cover depends on it alone
    cover = functools.cache(_Engine(PackingProblem(g, Mode.MAX), budget).cover_hole)
    # every factor found so far, oldest first: (mask of its deleted
    # vertices, the factor, its edges, mask of its path at each vertex),
    # and by the mask of its deleted vertices, oldest first: (factor, edges)
    factors: list[tuple[int, tuple[LambdaPath, ...], frozenset[Edge], list[int]]] = []
    exact: dict[int, list[tuple[tuple[LambdaPath, ...], frozenset[Edge]]]] = {}

    def repaired(prob: PackingProblem) -> bool:
        """True when a found factor, as it is or repaired, is a factor of
        ``prob``; the answer is re-checked, and a repaired one is kept."""
        gone = full ^ prob.alive_mask
        cut = prob.forbidden_edges
        forced = prob.forced_edges
        for paths, used in exact.get(gone, ()):
            if cut.isdisjoint(used) and forced <= used:
                check_packing(prob, paths)
                return True
        for dead, paths, used, at in reversed(factors):
            # the hole: the factor's deleted vertices and its paths that
            # meet the query's deleted vertices, use a cut edge or touch a
            # forced edge the factor misses, less the deleted vertices
            hole = dead
            for v in prob.deleted_vertices:
                hole |= at[v]
            for u, _ in cut & used:
                hole |= at[u]
            for u, v in forced - used:
                hole |= at[u] | at[v]
            fill = cover(hole & ~gone)
            # the kept paths use no cut edge, so only the added ones can
            if fill is None or any(
                norm_edge(a, b) in cut or norm_edge(b, c) in cut for a, b, c in fill
            ):
                continue
            paths = tuple(p for p in paths if not p.mask & hole) + tuple(
                LambdaPath.of(*t) for t in fill
            )
            if forced and not forced <= {e for p in paths for e in p.edges}:
                continue
            check_packing(prob, paths)
            keep(prob, paths)
            return True
        return False

    def keep(prob: PackingProblem, paths: tuple[LambdaPath, ...]) -> None:
        at = [0] * g.n
        used = []
        for p in paths:
            u, v, w = p.u, p.v, p.w
            at[u] = at[v] = at[w] = (1 << u) | (1 << v) | (1 << w)
            used += ((u, v) if u < v else (v, u), (v, w) if v < w else (w, v))
        dead = full ^ prob.alive_mask
        factors.append((dead, paths, frozenset(used), at))
        exact.setdefault(dead, []).append(factors[-1][1:3])

    def decide(name: str, queries: Iterable[tuple[PackingProblem, str, tuple]]) -> None:
        for prob, what, args in queries:
            if repaired(prob):
                continue
            res = solve(prob, budget)
            if res.verdict == "INDETERMINATE":
                out[name] = ClauseResult("indeterminate", what.format(*args))
                return
            if res.verdict != "SAT":
                out[name] = ClauseResult("fails", what.format(*args))
                return
            keep(prob, res.paths)
        out[name] = ClauseResult("holds")

    def q(what: str, *args, **kw) -> tuple[PackingProblem, str, tuple]:
        return PackingProblem(g, Mode.FACTOR, **kw), what, args

    # residue -> {clause: its queries in definition order}, built on demand
    # for the graph's residue only; each clause's queries stay lazy, and
    # each detail is a format string and its arguments until it decides
    clauses = {
        0: lambda: {
            "z1": [q("factor")],
            "z2": (q("avoid {}", e, forbidden_edges=frozenset({e})) for e in edges),
            "z3": (q("contain {}", e, forced_edges=frozenset({e})) for e in edges),
            "z4": (
                q("minus edges {},{}", e1, e2, forbidden_edges=frozenset({e1, e2}))
                for i, e1 in enumerate(edges)
                for e2 in edges[i + 1 :]
            ),
            "z5": (
                q("minus path {}", p.vertices, deleted_vertices=frozenset(p.vertices))
                for p in enumerate_paths(g)
            ),
        },
        2: lambda: {
            "t2": (
                q("minus endpoints of {}", e, deleted_vertices=frozenset(e))
                for e in edges
            ),
        },
        4: lambda: {
            "f1": (q("minus {}", x, deleted_vertices=frozenset({x})) for x in range(g.n)),
            "f2": (
                q(
                    "minus {} and {}",
                    x,
                    e,
                    deleted_vertices=frozenset({x}),
                    forbidden_edges=frozenset({e}),
                )
                for x in range(g.n)
                for e in edges
            ),
        },
    }
    # a cubic graph has an even number of vertices: residue 0, 2 or 4
    for name, queries in clauses[residue]().items():
        decide(name, queries)
    return out
