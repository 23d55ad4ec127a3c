"""The default construction pipeline and its distinguished anchors.

The pipeline builds, in order:

* ``K`` (18 vertices) -- two cubes bridged through a middle edge z;
  every factor of K avoids z.
* ``R`` (54) -- triple merge of K through the endpoint z1 of z; has no
  factor at all (but is not planar, so it is not the headline graph).
* ``H`` (28) -- K with z1 substituted by the six-prism; H minus the
  vertex B.o5 has no factor avoiding the edge (A.B.000, B.i0).
* ``D`` (46) -- K edge-substituted (at z) into H (at that edge);
  D minus B.B.o5 has no factor.
* ``F`` (54) -- a cube edge-substituted into D at an edge through
  D's distinguished vertex; F has no factor avoiding (A.001, B.B.A.A.000).
* ``N`` (72) -- K edge-substituted (at z) into F at that edge; N has no
  factor, hence lambda(N) <= 23 < 72/3.

All anchors are fixed here so certificates are reproducible: the cube edge
is its lexicographically smallest edge, the K ports place z2 first (so the
marked edge of K is z itself), and the prism anchor is o0 with ports in
ascending id order.  The distinguished vertices and edges named above are
where the next stage attaches, so ``PipelineGraphs`` reads them off the
build records rather than off label literals.

``find_seams`` recovers every matching cut of size 2 or 3 that the
composition operators left behind (readable off the label prefixes), as
an analysis of the construction; the solver does not need them.
``family`` swaps ever larger prisms into the pipeline, yielding the
infinite series of counterexamples; member 0 is the pipeline itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import side_vertices
from .dsl import BuildRecord, run_script
from .graph import Edge, Graph, edge_cut


def family_script(member: int) -> str:
    """Pipeline script for the member-th counterexample (member 0 = default).

    Member t substitutes the prism over a (6 + 6t)-cycle for the six-prism;
    all residue side conditions are unchanged, so the certificate chain
    replays verbatim and the final graph has 72 + 12t vertices.  The prism
    anchor keeps ports in ascending id order (o1, o{m-1}, i0).
    """
    if member < 0:
        raise ValueError("family member index must be >= 0")
    m = 6 + 6 * member
    hi = f"o{m - 1}"
    return (
        "let K = ebridge(atlas(Q)@000-001, atlas(Q)@000-001)\n"
        "let R = ymerge(K@z1[z2,A.000,B.000])\n"
        f"let H = vsub(K@z1[z2,A.000,B.000], prism({m})@o0[o1,{hi},i0])\n"
        "let D = esub(K@z1-z2, H@A.B.000-B.i0)\n"
        f"let F = esub(atlas(Q)@000-001, D@B.B.{hi}-B.A.A.000)\n"
        "let N = esub(K@z1-z2, F@A.001-B.B.A.A.000)\n"
    )


DEFAULT_SCRIPT = family_script(0)

EXPECTED_VERTEX_COUNTS = {
    "Q": 8,
    "S": 12,
    "K": 18,
    "R": 54,
    "H": 28,
    "D": 46,
    "F": 54,
    "N": 72,
}


@dataclass(frozen=True)
class PipelineGraphs:
    """The evaluated pipeline with its distinguished vertices/edges."""

    records: dict[str, BuildRecord]

    def graph(self, name: str) -> Graph:
        return self.records[name].graph

    def middle_edge_of_k(self) -> Edge:
        return self.records["K"].detail.middle_edge

    def marked_vertex_of_h(self) -> int:
        """The image in H of the prism anchor's second port."""
        rec = self.records["H"]
        return rec.detail.map_b[rec.anchors[1].ports[1]]

    def marked_edge_of_h(self) -> Edge:
        """The edge of H that D substitutes at."""
        return self.records["D"].anchors[1].edge

    def marked_vertex_of_d(self) -> int:
        """The vertex of D that F's anchor edge starts from."""
        return self.records["F"].anchors[1].e1

    def marked_edge_of_f(self) -> Edge:
        """The edge of F that N substitutes at."""
        return self.records["N"].anchors[1].edge


def build_pipeline(script: str = DEFAULT_SCRIPT) -> PipelineGraphs:
    """Evaluate a pipeline script into named graphs."""
    records = {}
    for rec in run_script(script):
        if rec.name is not None:
            records[rec.name] = rec
    return PipelineGraphs(records)


@dataclass(frozen=True)
class Seam:
    """One side of a small matching edge cut left by a composition operator.

    ``side`` is the vertex set on one side; the cut has 2 or 3 edges and is
    a matching (no shared endpoints), which is what the operators produce.
    """

    side: frozenset[int]


def find_seams(g: Graph) -> tuple[Seam, ...]:
    """Matching cuts of size 2 or 3 recovered from composition label prefixes.

    Every composite label starts with a chain of side prefixes ("A.", "B.",
    "Y1."...); each proper prefix marks one side of the cut its operator
    created.  A prefix qualifies as a seam when the edges leaving its side
    form a matching of 2 or 3 edges.  Cuts are deduplicated by edge set.
    """
    prefixes: set[str] = set()
    for label in g.labels:
        parts = label.split(".")
        for depth in range(1, len(parts)):
            prefixes.add(".".join(parts[:depth]) + ".")
    seams = []
    seen_cuts: set[frozenset[Edge]] = set()
    for prefix in sorted(prefixes):
        side = side_vertices(g, prefix)
        if not side or len(side) == g.n:
            continue
        cut = edge_cut(g, side).cut_edges
        if not (2 <= len(cut) <= 3) or cut in seen_cuts:
            continue
        ends = [v for e in cut for v in e]
        if len(set(ends)) != len(ends):
            continue
        seen_cuts.add(cut)
        seams.append(Seam(side))
    return tuple(seams)


def family(member: int) -> PipelineGraphs:
    """Build the member-th pipeline of the infinite family."""
    return build_pipeline(family_script(member))
