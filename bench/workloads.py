"""The three workloads: their inputs, operations and output checks.

A workload is a fixed list of operations built from the seed before the
first timed call.  Every round runs the whole list in order, one operation
at a time.  Each operation calls the program's public functions through
the tracer (``T.call``), and its ``check`` re-derives the answer with
``verify`` and returns False only for an operation that failed because of
a known program fault; a wrong answer raises ``verify.Incorrect``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import lambdapack as lp
from lambdapack import certify, cli, pipeline
from lambdapack import io as gio
from lambdapack.packing import Mode, PackingProblem

import graphs
import verify
from spans import NullTracer
from verify import expect

#: node budget of every solve except the two below; no call has a time budget
NODE_BUDGET = 200_000
#: target=23 on N takes 1,294,381 nodes with lowest-id branching
N_TARGET_BUDGET = 2_000_000
#: the two fixed cubic FACTOR instances that lowest-id branching leaves open
#: (still INDETERMINATE after 200k nodes); 5k keeps each near 0.3 s
HARD_BUDGET = 5_000
NO_SECONDS = 1e9

FAMILY_MEMBERS = range(10)
CLAUSE_SIZES = (18, 20, 22, 24, 26, 32)
CLAUSE_GRAPHS_PER_SIZE = 8
BRUTE_FORCE_SIZES = (18, 20, 22)
LAMBDA_SIZES = range(60, 601, 4)


def budget(nodes: int) -> lp.Budget:
    return lp.Budget(max_nodes=nodes, max_seconds=NO_SECONDS)


@dataclass
class Op:
    name: str
    run: Callable[[NullTracer], Any]
    # True: correct; False: failed by a known fault; raises Incorrect otherwise
    check: Callable[[Any], bool]


def edge_list(g: lp.Graph) -> list[tuple[int, int]]:
    return sorted(g.edges)


def triples(result: lp.PackingResult) -> list[tuple[int, int, int]]:
    return [p.vertices for p in result.paths or ()]


def solve(T, kind: str, problem, nodes: int, target=None, seams=()):
    """One solver call, with its counters recorded at the call boundary."""
    result = T.call(
        f"packing.{kind}", lp.solve, problem, budget(nodes), seams=seams, target=target
    )
    if T.enabled:
        stats = result.stats
        T.count(f"packing.{kind}_calls", 1)
        T.count(f"packing.{kind}_nodes", stats.nodes)
        T.count("packing.nodes", stats.nodes)
        T.count("packing.solve_s", stats.elapsed)
        T.count("packing.paths", len(result.paths or ()))
        for reason, value in stats.prunes.items():
            T.count(f"packing.prunes.{reason}", value)
    if result.paths:
        T.call("packing.check_packing", lp.check_packing, problem, result.paths)
    return result


def check_solution(
    g: lp.Graph, result, *, factor: bool = False, size: int | None = None
) -> int:
    count = verify.check_witness(g.n, g.edges, triples(result), factor=factor)
    expect(result.value == count, f"value {result.value} != witness size {count}")
    if size is not None:
        expect(count == size, f"witness has {count} paths, expected {size}")
    return count


# ----------------------------------------------------------------------
# paper_chain
# ----------------------------------------------------------------------


@dataclass
class ChainOut:
    graph: lp.Graph
    properties: tuple
    planar: Any
    seams: tuple
    cert_dict: dict
    graph_copy: lp.Graph
    plain_ok: bool
    strict_ok: bool
    factor: lp.PackingResult
    maximum: lp.PackingResult
    cli: dict[str, tuple[int, str]]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def properties(g: lp.Graph) -> tuple:
    return lp.is_cubic(g), lp.is_bipartite(g), lp.connectivity_at_least(g, 2)


def json_round_trip(cert: certify.Certificate, g: lp.Graph):
    text = certify.certificate_to_json(cert)
    return certify.certificate_from_json(text), json.loads(text), gio.from_json(gio.to_json(g))


def chain_op(member: int, script: str, script_file: Path, cert_file: Path) -> Op:
    n_expected = 72 + 12 * member
    checked: dict[str, str] = {}

    def run(T) -> ChainOut:
        records = T.call("dsl.run_script", lp.run_script, script)
        g = records[-1].graph
        props = T.call("graph.properties", properties, g)
        planar = T.call("planarity.is_planar", lp.is_planar, g)
        seams = T.call("pipeline.find_seams", pipeline.find_seams, g)
        cert = T.call("certify.replay", certify.replay_pipeline, script, deep=True)
        if T.enabled:
            T.count("certify.replays", 1)
            T.count(
                "certify.base_nodes",
                sum(s.evidence.get("nodes", 0) for s in cert.steps if s.rule == "BASE"),
            )
        cert2, cert_dict, g2 = T.call("io.cert_json", json_round_trip, cert, g)
        plain = T.call("certify.check", certify.check_certificate, cert2)
        strict = T.call("certify.check_strict", certify.check_certificate, cert2, strict=True)
        fac = solve(T, "factor", PackingProblem(g, Mode.FACTOR), NODE_BUDGET, seams=seams)
        mx = solve(T, "max", PackingProblem(g, Mode.MAX), NODE_BUDGET, seams=seams)
        src = ["--script", str(script_file), "--name", "N"]
        outs = {
            "check": T.call("cli.check", run_cli, ["check", *src, "--format", "json"]),
            "solve": T.call("cli.solve", run_cli, ["solve", *src, "--factor"]),
            "certify": T.call(
                "cli.certify",
                run_cli,
                ["certify", "--pipeline", str(script_file), "--output", str(cert_file)],
            ),
            "check_cert": T.call(
                "cli.check_cert", run_cli, ["check-cert", str(cert_file), "--strict"]
            ),
        }
        return ChainOut(
            g, props, planar, seams, cert_dict, g2, plain, strict, fac, mx, outs
        )

    def check(out: ChainOut) -> bool:
        g = out.graph
        n, edges = g.n, edge_list(g)
        expect(n == n_expected, f"N_{member} has {n} vertices, expected {n_expected}")
        key = json.dumps(edges)
        if checked.get("graph") != key:
            # the same graph comes back every round; re-derive its facts once
            expect(verify.is_cubic(n, edges), "N_m is not cubic")
            expect(verify.two_colouring(n, edges) is not None, "N_m is not bipartite")
            expect(verify.is_biconnected(n, edges), "N_m has a cut vertex")
            checked["graph"] = key
        cubic, (bip, colouring), (conn2, separator) = out.properties
        expect(cubic and bip and conn2 and separator is None, "property suite disagrees")
        expect(all(colouring[u] != colouring[v] for u, v in edges), "bad 2-colouring")
        report = out.planar
        expect(report.planar and report.rotation is not None, "N_m reported non-planar")
        rotation = [list(ring) for ring in report.rotation]
        adj = verify.adjacency(n, edges)
        expect(all(sorted(r) == sorted(a) for r, a in zip(rotation, adj)), "bad rotation")
        expect(n - len(edges) + verify.face_count(rotation) == 2, "V - E + F != 2")
        expect(len(out.seams) > 0, "no seams found")
        for seam in out.seams:
            cut = [(u, v) for u, v in edges if (u in seam.side) != (v in seam.side)]
            ends = [x for e in cut for x in e]
            expect(2 <= len(cut) <= 3 and len(set(ends)) == len(ends), "seam cut not a matching")
        expect(out.plain_ok and out.strict_ok, "certificate rejected by its checker")
        expect(edge_list(out.graph_copy) == edges, "graph JSON round trip changed the graph")
        finals = [
            f for f in out.cert_dict["finalFacts"] if f["kind"] == "no_factor" and f["n"] == n
        ]
        expect(len(finals) == 1, "no final no_factor fact on N_m")
        table = out.cert_dict["graphs"][finals[0]["graph"]]
        expect(sorted(map(tuple, table["edges"])) == edges, "final fact names another graph")
        if checked.get("tamper") != key:
            expect(not certify.check_certificate(tampered(out.cert_dict)), "tampered cert accepted")
            checked["tamper"] = key
        expect(out.factor.verdict == "UNSAT", f"FACTOR on N_{member} is {out.factor.verdict}")
        expect(out.maximum.verdict == "OPTIMUM", f"MAX on N_{member} is {out.maximum.verdict}")
        check_solution(g, out.maximum, size=n // 3 - 1)
        for name, (code, _text) in out.cli.items():
            expect(code == 0, f"cli {name} exited {code}")
        report_json = json.loads(out.cli["check"][1])
        expect(
            all(report_json[k] for k in ("cubic", "bipartite", "planar", "connectivityAtLeast2")),
            "cli check disagrees",
        )
        expect(json.loads(out.cli["solve"][1])["verdict"] == "UNSAT", "cli solve disagrees")
        return True

    return Op(f"chain.m{member}", run, check)


def tampered(cert_dict: dict) -> dict:
    """A copy whose last rule step (R6, two premises) cites its first premise twice."""
    bad = copy.deepcopy(cert_dict)
    step = [s for s in bad["steps"] if s["rule"] != "BASE"][-1]
    step["premises"] = [step["premises"][0]] * 2
    return bad


def paper_chain(seed: int, T: NullTracer, work: Path) -> list[Op]:
    order = list(FAMILY_MEMBERS)
    random.Random(f"{seed}/order").shuffle(order)
    ops = []
    for m in order:
        script = pipeline.family_script(m)
        script_file = work / f"member{m}.txt"
        script_file.write_text(script)
        ops.append(chain_op(m, script, script_file, work / f"member{m}.cert.json"))
    return ops


# ----------------------------------------------------------------------
# deep_search
# ----------------------------------------------------------------------


def target_op(
    name: str, g: lp.Graph, need: int, nodes: int, exact_paths=None, log: dict | None = None
) -> Op:
    """target=need; SAT is expected unless ``log`` brings this round's FACTOR
    and MAX results on the same graph, which the verdict must agree with."""

    def run(T):
        return solve(T, "target", PackingProblem(g, Mode.MAX), nodes, target=need)

    def check(res) -> bool:
        if res.verdict == "INDETERMINATE":
            return False
        expect(res.verdict in ("SAT", "UNSAT"), f"{name}: verdict {res.verdict}")
        if log is None:
            expect(res.verdict == "SAT", f"{name}: target={need} is {res.verdict}")
        elif "factor" in log and "max" in log:
            best = log.pop("max").value
            expect((log.pop("factor").verdict == "SAT") == (3 * best == g.n), f"{name}: FACTOR != MAX")
            expect((res.verdict == "SAT") == (best >= need), f"{name}: target != MAX")
        if res.verdict == "SAT":
            check_solution(g, res, size=need)
        if exact_paths is not None:
            expect(sorted(triples(res)) == exact_paths, f"{name}: not the unique factor")
        return True

    return Op(name, run, check)


def mode_op(
    name: str, g: lp.Graph, mode: Mode, nodes: int, exact_paths=None, log: dict | None = None
) -> Op:
    kind = "factor" if mode == Mode.FACTOR else "max"

    def run(T):
        return solve(T, kind, PackingProblem(g, mode), nodes)

    def check(res) -> bool:
        if res.verdict == "INDETERMINATE":
            return False
        if mode == Mode.FACTOR:
            expect(res.verdict in ("SAT", "UNSAT"), f"{name}: verdict {res.verdict}")
            if res.verdict == "SAT":
                check_solution(g, res, factor=True, size=g.n // 3)
        else:
            expect(res.verdict == "OPTIMUM", f"{name}: verdict {res.verdict}")
            expect(res.value <= g.n // 3, f"{name}: MAX {res.value} > live/3")
            check_solution(g, res)
        if exact_paths is not None:
            expect(sorted(triples(res)) == exact_paths, f"{name}: not the unique factor")
        if log is not None:
            log[kind] = res
        return True

    return Op(name, run, check)


def triple_ops(name: str, g: lp.Graph) -> list[Op]:
    """FACTOR, MAX and target=n/3 on one graph, cross-checked by the last."""
    log: dict = {}
    return [
        mode_op(f"{name}.factor", g, Mode.FACTOR, NODE_BUDGET, log=log),
        mode_op(f"{name}.max", g, Mode.MAX, NODE_BUDGET, log=log),
        target_op(f"{name}.target", g, g.n // 3, NODE_BUDGET, log=log),
    ]


def deep_search(seed: int, T: NullTracer, work: Path) -> list[Op]:
    records = T.call("dsl.run_script", lp.run_script, pipeline.DEFAULT_SCRIPT)
    named = {r.name: r.graph for r in records if r.name}
    ops = [target_op("N.target23", named["N"], 23, N_TARGET_BUDGET)]
    ops += [target_op(f"F.target{k}", named["F"], k, NODE_BUDGET) for k in (17, 18)]
    for n in (1500, 3000):
        p = lp.Graph.from_edges(n, graphs.path_edges(n))
        unique = [(i, i + 1, i + 2) for i in range(0, n, 3)]
        ops.append(mode_op(f"P{n}.factor", p, Mode.FACTOR, NODE_BUDGET, unique))
        ops.append(mode_op(f"P{n}.max", p, Mode.MAX, NODE_BUDGET, unique))
        ops.append(target_op(f"P{n}.target", p, n // 3, NODE_BUDGET, unique))
    for n, s in ((120, 2), (150, 1)):
        g = lp.Graph.from_edges(n, graphs.cubic_edges(n, s))
        ops.append(mode_op(f"cubic{n}s{s}.factor", g, Mode.FACTOR, HARD_BUDGET))
    cubic = graphs.cubic_edges(48, f"{seed}/deep/cubic")
    subcubic = graphs.subcubic_edges(48, f"{seed}/deep/subcubic")
    ops += triple_ops("cubic48", lp.Graph.from_edges(48, cubic))
    ops += triple_ops("subcubic48", lp.Graph.from_edges(48, subcubic))
    return ops


# ----------------------------------------------------------------------
# query_batch
# ----------------------------------------------------------------------


CLAUSES = ("z1", "z2", "z3", "z4", "z5", "t2", "f1", "f2")


def clause_op(name: str, g: lp.Graph, brute: bool) -> Op:
    expected: dict[str, str] = {}

    def run(T):
        return T.call("packing.clauses", lp.residue_factor_clauses, g, budget(NODE_BUDGET))

    def check(res) -> bool:
        statuses = {k: v.status for k, v in res.items()}
        expect(set(statuses) == set(CLAUSES), f"{name}: clause names {sorted(statuses)}")
        if "indeterminate" in statuses.values():
            return False
        applicable = {0: CLAUSES[:5], 2: ("t2",), 4: ("f1", "f2")}[g.n % 6]
        for k, status in statuses.items():
            allowed = ("holds", "fails") if k in applicable else ("n/a",)
            expect(status in allowed, f"{name}: {k} is {status}")
        if brute:
            if not expected:
                expected.update(verify.brute_clauses(g.n, edge_list(g)))
            expect(statuses == expected, f"{name}: {statuses} != brute force {expected}")
        return True

    return Op(name, run, check)


def query_batch(seed: int, T: NullTracer, work: Path) -> list[Op]:
    ops = []
    for n in CLAUSE_SIZES:
        for i in range(CLAUSE_GRAPHS_PER_SIZE):
            g = lp.Graph.from_edges(n, graphs.cubic_edges(n, f"{seed}/clauses/{n}/{i}"))
            ops.append(clause_op(f"clauses{n}.{i}", g, n in BRUTE_FORCE_SIZES and i == 0))
    for n in LAMBDA_SIZES:
        g = lp.Graph.from_edges(n, graphs.cubic_edges(n, f"{seed}/lambda/{n}"))
        ops.append(target_op(f"lambda{n}", g, -(-n // 4), NODE_BUDGET))
    random.Random(f"{seed}/order").shuffle(ops)
    return ops


#: name -> builder(seed, tracer, scratch directory for CLI files) -> operations
WORKLOADS = {
    "paper_chain": paper_chain,
    "deep_search": deep_search,
    "query_batch": query_batch,
}
