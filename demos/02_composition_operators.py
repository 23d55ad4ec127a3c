"""The composition operators and the 72-vertex pipeline.

Builds each operator by hand once (each builder returns the composite's
detail: its graph, id maps and new edges), then replays the whole default
pipeline from its script form and confirms the well-known vertex counts
(18, 54, 28, 46, 54, 72).  Also shows port bookkeeping: the i-th port of
one side always joins the i-th port of the other, so compositions are
reproducible down to vertex ids.
"""

from lambdapack import atlas, build, ebridge, is_bipartite, is_cubic, vsub, ymerge
from lambdapack.constructions import PortedEdge, PortedVertex, side_vertices
from lambdapack.graph import edge_cut
from lambdapack.pipeline import DEFAULT_SCRIPT, build_pipeline, find_seams
from lambdapack.planarity import is_planar

print("=== one operator at a time ===")
k4 = atlas("K4")
g = vsub(PortedVertex.default(k4, 0), PortedVertex.default(k4, 0)).graph
print(f"vsub(K4,K4): n={g.n} (triangle prism), cubic={is_cubic(g)}")

q = atlas("Q")
bridged = ebridge(PortedEdge(q, 0, 1), PortedEdge(q, 0, 1))
k, middle = bridged.graph, bridged.middle_edge
print(f"ebridge(Q,Q): n={k.n}, middle edge between "
      f"{k.labels[middle[0]]!r} and {k.labels[middle[1]]!r}")

r = ymerge(PortedVertex(k, middle[0], (middle[1], 0, 8))).graph
print(f"ymerge(K at z1): n={r.n}, bipartite={is_bipartite(r)[0]}, "
      f"planar={is_planar(r).planar}  <- the triple merge loses planarity")

print("\n=== the same thing as a script ===")
print(DEFAULT_SCRIPT)
pipe = build_pipeline()
for name in ("K", "R", "H", "D", "F", "N"):
    g = pipe.graph(name)
    print(f"{name}: n={g.n:2d} cubic={is_cubic(g)} bipartite={is_bipartite(g)[0]} "
          f"planar={is_planar(g).planar}")

print("\n=== expressions evaluate anywhere ===")
g = build("esub(atlas(Q)@e1, atlas(S)@o0-o1)")
print("esub(Q,S) via the expression language:", g.n, "vertices")

print("\n=== seams left behind by the operators ===")
n_graph = pipe.graph("N")
seams = find_seams(n_graph)
print(f"N carries {len(seams)} matching-cut seams; sizes:",
      sorted(edge_cut(n_graph, s.side).size for s in seams))
print("the 17-vertex side of the deepest seam:",
      len(side_vertices(n_graph, "B.B.B.A.")), "vertices")
print("done.")
