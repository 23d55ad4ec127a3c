"""lambdapack: exact 3-vertex-path packing, graph composition, certificates.

The package is organized as:

* :mod:`lambdapack.graph` -- immutable graphs, elementary queries, and the
  cubic/bipartite/connectivity checkers (with witnesses).
* :mod:`lambdapack.planarity` -- planarity with verifiable witnesses.
* :mod:`lambdapack.io` -- JSON and DOT round-trip serialization.
* :mod:`lambdapack.constructions` -- composition operators, named graphs.
* :mod:`lambdapack.dsl` -- the construction expression language.
* :mod:`lambdapack.pipeline` -- the counterexample pipeline and families.
* :mod:`lambdapack.packing` -- the exact packing solver and invariants.
* :mod:`lambdapack.oracle` -- the naive exhaustive reference solver.
* :mod:`lambdapack.sampling` -- random cubic/subcubic graph generation.
* :mod:`lambdapack.certify` -- inference rules and certificates.
* :mod:`lambdapack.cli` -- the command-line front end.
"""

from .constructions import (
    ConstructionError,
    PortedEdge,
    PortedVertex,
    atlas,
    ebridge,
    esub,
    prism,
    vsub,
    ymerge,
    ymerge3,
)
from .dsl import ParseError, build, run_script
from .graph import (
    CutReport,
    DegreeProfile,
    Graph,
    GraphError,
    components,
    connectivity_at_least,
    degree_profile,
    edge_cut,
    is_bipartite,
    is_cubic,
)
from .io import (
    from_dot,
    from_json,
    problem_from_json,
    problem_to_json,
    to_dot,
    to_json,
)
from .oracle import oracle_solve
from .packing import (
    Budget,
    LambdaPath,
    Mode,
    PackingError,
    PackingProblem,
    PackingResult,
    check_packing,
    crossing_pattern,
    enumerate_factors,
    enumerate_paths,
    solve,
    residue_factor_clauses,
)
from .pipeline import Seam
from .planarity import PlanarityReport, is_planar, verify_kuratowski, verify_rotation_system
from .sampling import sample_cubic, sample_degree23, sample_subcubic

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "ConstructionError",
    "CutReport",
    "DegreeProfile",
    "Graph",
    "GraphError",
    "LambdaPath",
    "Mode",
    "PackingError",
    "PackingProblem",
    "PackingResult",
    "ParseError",
    "PlanarityReport",
    "PortedEdge",
    "PortedVertex",
    "Seam",
    "atlas",
    "build",
    "check_packing",
    "components",
    "connectivity_at_least",
    "crossing_pattern",
    "degree_profile",
    "ebridge",
    "edge_cut",
    "enumerate_factors",
    "enumerate_paths",
    "esub",
    "from_dot",
    "from_json",
    "is_bipartite",
    "is_cubic",
    "is_planar",
    "oracle_solve",
    "prism",
    "problem_from_json",
    "problem_to_json",
    "run_script",
    "sample_cubic",
    "sample_degree23",
    "sample_subcubic",
    "solve",
    "residue_factor_clauses",
    "to_dot",
    "to_json",
    "verify_kuratowski",
    "verify_rotation_system",
    "vsub",
    "ymerge",
    "ymerge3",
]
