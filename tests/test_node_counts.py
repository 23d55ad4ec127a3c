"""Search node counts as upper bounds.

Node counts are deterministic, unlike wall times, so they are the
regression gate of the solver: a change that makes any of these searches
larger has to say why and move the bound.
"""

import functools

import pytest

from lambdapack import Budget, Mode, PackingProblem, solve
from lambdapack.pipeline import family
from lambdapack.sampling import sample_cubic


@functools.cache
def pipeline_graph(name):
    """Stage ``name`` of the default pipeline; ``N_9`` is N of family member 9."""
    stage, _, m = name.partition("_")
    return family(int(m or 0)).graph(stage)


@pytest.mark.parametrize(
    "name, mode, target, verdict, max_nodes",
    [
        ("N", Mode.FACTOR, None, "UNSAT", 97),
        ("N", Mode.MAX, None, "OPTIMUM", 372),
        ("N", Mode.MAX, 23, "SAT", 324),
        ("R", Mode.FACTOR, None, "UNSAT", 138),
        ("R", Mode.MAX, None, "OPTIMUM", 156),
        ("F", Mode.MAX, 17, "SAT", 178),
        ("N_9", Mode.MAX, None, "OPTIMUM", 408),
    ],
)
def test_pipeline_node_counts(name, mode, target, verdict, max_nodes):
    r = solve(PackingProblem(pipeline_graph(name), mode), target=target)
    assert r.verdict == verdict
    assert r.stats.nodes <= max_nodes


def test_random_cubic_factor_within_budget():
    problem = PackingProblem(sample_cubic(120, 7), Mode.FACTOR)
    r = solve(problem, Budget(max_nodes=5_000))
    assert r.verdict == "SAT"


def test_random_cubic_max_within_budget():
    problem = PackingProblem(sample_cubic(152, 7), Mode.MAX)
    r = solve(problem, Budget(max_nodes=5_000))
    assert r.verdict == "OPTIMUM"
    assert r.value == len(r.paths)
