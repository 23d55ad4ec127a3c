"""The exact packing solver: modes, constraints, oracle agreement, bounds.

A packing is a set of vertex-disjoint 3-vertex paths; lambda(G) is the
largest possible size, never more than floor(n/3).  The solver decides
factor existence (cover everything) and computes maxima exactly, under
deleted/forced/forbidden constraints, and a naive exhaustive oracle keeps
it honest on small instances.
"""

from lambdapack import (
    Budget,
    Mode,
    PackingProblem,
    atlas,
    enumerate_paths,
    oracle_solve,
    solve,
)
from lambdapack.pipeline import build_pipeline
from lambdapack.sampling import sample_cubic

print("=== path enumeration ===")
q = atlas("Q")
paths = enumerate_paths(q)
print(f"the cube has {len(paths)} paths on 3 vertices; through any fixed "
      f"vertex: {sum(1 for p in paths if 0 in p.vertices)}")

print("\n=== small optima (oracle-confirmed) ===")
for name in ("K4", "K33", "Q", "S"):
    g = atlas(name)
    mine = solve(PackingProblem(g, Mode.MAX))
    ref = oracle_solve(PackingProblem(g, Mode.MAX))
    print(f"lambda({name}) = {mine.value} (oracle: {ref.value}), "
          f"floor(n/3) = {g.n // 3}")

print("\n=== constrained factors ===")
s = atlas("S")
r = solve(PackingProblem(s, Mode.FACTOR))
print("six-prism factor:", r.verdict, "with", len(r.paths), "paths")
r = solve(PackingProblem(s, Mode.FACTOR, forbidden_edges=frozenset({(0, 1)})))
print("six-prism factor avoiding one rim edge:", r.verdict)

pipe = build_pipeline()
k = pipe.graph("K")
z = pipe.middle_edge_of_k()
r = solve(PackingProblem(k, Mode.FACTOR, forced_edges=frozenset({z})))
print(f"K factor through the middle edge: {r.verdict} "
      f"(explored {r.stats.nodes} nodes)")
r = solve(PackingProblem(k, Mode.FACTOR))
print("K factor with no constraint:", r.verdict)

print("\n=== the heavy searches stay cheap ===")
d = pipe.graph("D")
x = pipe.marked_vertex_of_d()
r = solve(PackingProblem(d, Mode.FACTOR, deleted_vertices=frozenset({x})),
          budget=Budget(max_seconds=600))
print(f"D minus its marked vertex: {r.verdict} in {r.stats.nodes} nodes "
      f"(prunes: {dict(r.stats.prunes)})")

print("\n=== sampled lower bound ===")
worst = None
for seed in range(30):
    g = sample_cubic(16, seed)
    need = -(-g.n // 4)
    r = solve(PackingProblem(g, Mode.MAX), target=need)
    assert r.verdict == "SAT"
    worst = need
print(f"30 random cubic graphs on 16 vertices all pack >= {worst} paths "
      "(ceil(n/4) holds every time)")
print("done.")
