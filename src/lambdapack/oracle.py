"""Naive exhaustive reference solver for 3-vertex-path packings.

This is the anti-regression oracle for :func:`lambdapack.packing.solve`:
it enumerates candidate paths by a plain triple loop over vertices and then
tries subsets via ``itertools.combinations``, largest size first.  No
pruning logic is shared with the branch-and-bound engine; agreement between
the two on a corpus of small graphs is what the test suite leans on.

Guards: at most 15 live vertices, and the combination count per size is
capped so a dense pathological input fails fast instead of running for
hours.
"""

from __future__ import annotations

import itertools
from math import comb

from .graph import norm_edge
from .packing import (
    LambdaPath,
    Mode,
    PackingError,
    PackingProblem,
    PackingResult,
    SolveStats,
    check_packing,
)

_MAX_VERTICES = 15
_MAX_COMBINATIONS = 50_000_000


def oracle_solve(problem: PackingProblem) -> PackingResult:
    """Exhaustively solve a small packing problem; same contract as ``solve``."""
    alive = sorted(problem.alive)
    if len(alive) > _MAX_VERTICES:
        raise PackingError(
            f"oracle handles at most {_MAX_VERTICES} live vertices, got {len(alive)}"
        )
    paths = _naive_paths(problem)
    stats = SolveStats()

    if problem.mode == Mode.FACTOR:
        k = len(alive) // 3
        found = _first_packing(problem, paths, k, stats)
        if found is not None:
            return PackingResult("SAT", len(found), found, stats)
        return PackingResult("UNSAT", None, None, stats)

    for k in range(len(alive) // 3, 0, -1):
        found = _first_packing(problem, paths, k, stats)
        if found is not None:
            return PackingResult("OPTIMUM", k, found, stats)
    if problem.forced_edges:
        # even the empty packing is inadmissible when edges are forced
        return PackingResult("UNSAT", None, None, stats)
    return PackingResult("OPTIMUM", 0, (), stats)


def _naive_paths(problem: PackingProblem) -> list[LambdaPath]:
    g = problem.graph
    usable = g.edges - problem.forbidden_edges
    dead = problem.deleted_vertices
    out = []
    for v in range(g.n):
        if v in dead:
            continue
        for u in range(g.n):
            for w in range(u + 1, g.n):
                if u == v or w == v or u in dead or w in dead:
                    continue
                if norm_edge(u, v) in usable and norm_edge(v, w) in usable:
                    out.append(LambdaPath(u, v, w))
    return sorted(out, key=lambda p: p.vertices)


def _first_packing(
    problem: PackingProblem,
    paths: list[LambdaPath],
    k: int,
    stats: SolveStats,
) -> tuple[LambdaPath, ...] | None:
    if k == 0:
        return ()
    if len(paths) < k:
        return None
    if comb(len(paths), k) > _MAX_COMBINATIONS:
        raise PackingError(
            f"oracle would enumerate more than {_MAX_COMBINATIONS} subsets"
        )
    forced = problem.forced_edges
    for combo in itertools.combinations(paths, k):
        stats.nodes += 1
        seen = 0
        ok = True
        for p in combo:
            if seen & p.mask:
                ok = False
                break
            seen |= p.mask
        if not ok:
            continue
        if forced:
            covered = {e for p in combo for e in p.edges}
            if not forced <= covered:
                continue
        check_packing(problem, combo)
        return tuple(combo)
    return None
