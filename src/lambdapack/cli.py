"""Command-line front end.

Subcommands: ``atlas``, ``build``, ``check``, ``solve``, ``certify``,
``sample``, ``export``.  Results go to stdout (JSON unless asked
otherwise); progress and diagnostics go to stderr.  JSON output is
byte-identical across identical invocations: volatile quantities (wall
time) never appear in it, only deterministic ones (node counts).

Exit codes, each decided by ``main`` from the error class: 0 success;
2 parse/input error (``OSError``, ``UnicodeError``, ``ParseError``,
``GraphError``, and ``MemoryError`` from an input too large for the
memory at hand, reported as the one line ``error: out of memory``);
3 precondition violation (``ConstructionError``, ``PackingError``,
``CertificateError``); 4 budget exhausted (an INDETERMINATE search, or a
``ReplayError`` without a cause); 5 a claimed fact was refuted
(``FactRefuted``, a failed certificate check, or a bound test that an
exhaustive search refuted).  A ``ReplayError`` with a cause gets the code
of its cause.

Budgets default to those of ``Budget()`` (1e8 nodes / 600 s) and can be
overridden per invocation (``--budget-nodes``, ``--budget-seconds``).

``main`` builds its argument parser once per process, on its first call,
and parses every later call with it; ``make_parser`` returns a new parser
each time.  Every JSON document the CLI writes comes from
:func:`lambdapack.io.pretty_json`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import certify as cert_mod
from . import dsl, io as gio
from .constructions import ATLAS_NAMES, ConstructionError, atlas
from .graph import (
    Graph,
    GraphError,
    components,
    connectivity_at_least,
    degree_profile,
    is_bipartite,
    is_cubic,
)
from .packing import (
    Budget,
    Mode,
    PackingError,
    PackingProblem,
    solve,
)
from .pipeline import DEFAULT_SCRIPT
from .planarity import is_planar
from .sampling import sample_cubic

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_REFUTED = 5


class _CliError(Exception):
    """A failed check of the CLI's own arguments, with its exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


def _load_graph(args: argparse.Namespace) -> Graph:
    sources = [s for s in ("input", "expr", "script") if getattr(args, s, None)]
    if len(sources) != 1:
        raise _CliError(
            "give exactly one of --input, --expr, --script", EXIT_PARSE
        )
    if args.input:
        text = Path(args.input).read_text()
        if args.input.endswith(".dot"):
            return gio.from_dot(text)
        return gio.from_json(text)
    if args.expr:
        return dsl.build(args.expr)
    records = dsl.run_script(Path(args.script).read_text())
    if not records:
        raise _CliError("script is empty", EXIT_PARSE)
    if args.name:
        for rec in records:
            if rec.name == args.name:
                return rec.graph
        raise _CliError(f"script binds no name {args.name!r}", EXIT_PARSE)
    return records[-1].graph


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_edge(g: Graph, spec: str) -> tuple[int, int]:
    """An edge given as 'u,v' (ids) or 'label-label', as an ordered pair."""
    try:
        if "," in spec:
            u, v = (int(part) for part in spec.split(",", 1))
        else:
            lu, lv = spec.split("-", 1)
            u, v = g.vertex_by_label(lu), g.vertex_by_label(lv)
    except ValueError as exc:  # GraphError included
        raise GraphError(f"bad edge {spec!r}: {exc}") from exc
    return (u, v) if u < v else (v, u)


def _parse_vertex(g: Graph, spec: str) -> int:
    try:
        return int(spec)
    except ValueError:
        return g.vertex_by_label(spec)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_atlas(args: argparse.Namespace) -> int:
    rows = []
    for name in ATLAS_NAMES:
        g = atlas(name)
        rows.append({"name": name, "vertices": g.n, "edges": g.m})
    if args.format == "json":
        text = gio.pretty_json(rows) + "\n"
    else:
        text = "".join(
            f"{row['name']:4s} vertices={row['vertices']:3d} edges={row['edges']:3d}\n"
            for row in rows
        )
    _emit(args, text)
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    _emit(args, gio.to_dot(g) if args.format == "dot" else gio.to_json(g))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = _property_report(g)
    if args.format == "json":
        _emit(args, gio.pretty_json(report) + "\n")
    else:
        lines = [
            f"vertices: {report['vertices']}  edges: {report['edges']}",
            f"components: {report['components']}",
            f"degrees: min={report['minDegree']} max={report['maxDegree']}",
            f"cubic: {report['cubic']}",
            f"bipartite: {report['bipartite']}",
            f"planar: {report['planar']}",
        ]
        for k in (1, 2, 3):
            key = f"connectivityAtLeast{k}"
            if key in report:
                lines.append(f"{k}-connected: {report[key]}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _property_report(g: Graph) -> dict:
    prof = degree_profile(g)
    bip, coloring = is_bipartite(g)
    planar = is_planar(g)
    report = {
        "vertices": g.n,
        "edges": g.m,
        "components": len(components(g)),
        "minDegree": prof.min_degree,
        "maxDegree": prof.max_degree,
        "cubic": is_cubic(g),
        "bipartite": bip,
        "planar": planar.planar,
    }
    if coloring is not None:
        report["coloring"] = list(coloring)
    if planar.rotation is not None:
        report["rotation"] = [list(ring) for ring in planar.rotation]
    if planar.obstruction is not None:
        report["obstruction"] = sorted(list(e) for e in planar.obstruction)
    for k in (1, 2, 3):
        if k == 3 and g.n < 4:
            continue
        ok, sep = connectivity_at_least(g, k)
        report[f"connectivityAtLeast{k}"] = ok
        if sep is not None:
            report[f"separator{k}"] = sorted(sep)
    return report


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.problem:
        if any(getattr(args, s, None) for s in ("input", "expr", "script")):
            raise _CliError("--problem replaces --input/--expr/--script", EXIT_PARSE)
        g, fields = gio.problem_parts(gio.load_json(Path(args.problem).read_text()))
    else:
        g, fields = _load_graph(args), {"mode": Mode.MAX}
    if args.factor or args.max:
        fields["mode"] = Mode.FACTOR if args.factor else Mode.MAX

    def edges(specs: list[str]) -> frozenset:
        return frozenset(_parse_edge(g, s) for s in specs)

    flags = {
        "deleted_vertices": frozenset(_parse_vertex(g, s) for s in args.delete_vertex),
        "deleted_edges": edges(args.delete_edge),
        "forced_edges": edges(args.force_edge),
        "forbidden_edges": edges(args.avoid_edge),
    }
    for name, extra in flags.items():
        fields[name] = fields.get(name, frozenset()) | extra
    # validated once, with every flag applied
    problem = PackingProblem(g, **fields)
    result = solve(problem, _budget(args), target=args.target)
    payload = {
        "verdict": result.verdict,
        "value": result.value,
        "paths": [list(p.vertices) for p in result.paths] if result.paths else None,
        "nodes": result.stats.nodes,
        "prunes": dict(sorted(result.stats.prunes.items())),
    }
    budget_name = {"nodes": "node", "seconds": "time"}.get(result.stats.exhausted)
    note = f" ({budget_name} budget exhausted)" if budget_name else ""
    print(f"explored {result.stats.nodes} nodes{note}", file=sys.stderr)
    _emit(args, gio.pretty_json(payload) + "\n")
    return EXIT_BUDGET if result.verdict == "INDETERMINATE" else EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    default = args.pipeline == "default"
    script = DEFAULT_SCRIPT if default else Path(args.pipeline).read_text()
    certificate = cert_mod.replay_pipeline(
        script, base_budget=_budget(args), deep=args.deep
    )
    problems = cert_mod.check_certificate_detailed(certificate)
    if problems:
        for p in problems:
            print(f"self-check failed: {p}", file=sys.stderr)
        return EXIT_REFUTED
    for fact in certificate.final_facts:
        name = certificate.graph_names.get(fact.graph_hash, fact.graph_hash[:12])
        print(f"verified: {fact.kind} on {name} (n={fact.n})", file=sys.stderr)
    _emit(args, cert_mod.certificate_to_json(certificate))
    return EXIT_OK


def _cmd_checkcert(args: argparse.Namespace) -> int:
    text = Path(args.certificate).read_text()
    problems = cert_mod.check_certificate_detailed(text, strict=args.strict)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_REFUTED
    print("certificate valid", file=sys.stderr)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.n % 2 != 0 or args.n < 4:
        raise _CliError("cubic sampling needs even n >= 4", EXIT_PRECONDITION)
    if args.count < 0:
        raise _CliError("--count must be >= 0", EXIT_PRECONDITION)
    results = []
    violations = undecided = 0
    for i in range(args.count):
        g = sample_cubic(args.n, args.seed + i)
        row: dict = {"seed": args.seed + i, "vertices": g.n, "edges": g.m}
        if args.test_bound:
            need = -(-g.n // 4)  # ceil(n/4)
            res = solve(
                PackingProblem(g, Mode.MAX), _budget(args), target=need
            )
            row["bound"] = need
            row["satisfied"] = res.verdict == "SAT"
            # only an exhaustive search refutes the bound
            violations += res.verdict == "UNSAT"
            undecided += res.verdict == "INDETERMINATE"
        results.append(row)
    payload = {
        "n": args.n,
        "count": args.count,
        "baseSeed": args.seed,
        "violations": violations,
        "samples": results,
    }
    if undecided:
        print(
            f"{undecided} of {args.count} bound searches ran out of budget",
            file=sys.stderr,
        )
    _emit(args, gio.pretty_json(payload) + "\n")
    if violations:
        return EXIT_REFUTED
    return EXIT_BUDGET if undecided else EXIT_OK


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="graph file (.json or .dot)")
    p.add_argument("--expr", help="inline construction expression")
    p.add_argument("--script", help="construction script file")
    p.add_argument("--name", help="binding to select from a script")


def _add_budget(p: argparse.ArgumentParser) -> None:
    default = Budget()
    p.add_argument("--budget-nodes", type=int, default=default.max_nodes)
    p.add_argument("--budget-seconds", type=float, default=default.max_seconds)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdapack",
        description="Exact 3-vertex-path packing, graph construction, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atlas", help="list the named base graphs")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("build", help="evaluate a construction and export it")
    _add_graph_source(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="structural property report")
    _add_graph_source(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="run the exact packing solver")
    _add_graph_source(p)
    p.add_argument("--problem", help="packing-problem JSON file (graph embedded)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--factor", action="store_true", help="decide factor existence")
    mode.add_argument("--max", action="store_true", help="maximize (default)")
    p.add_argument("--target", type=int, default=None,
                   help="look only for a packing of at least this size")
    p.add_argument("--force-edge", action="append", default=[], metavar="E",
                   help="edge that must lie on a path ('u,v' ids or 'x-y' labels)")
    p.add_argument("--avoid-edge", action="append", default=[], metavar="E")
    p.add_argument("--delete-edge", action="append", default=[], metavar="E")
    p.add_argument("--delete-vertex", action="append", default=[], metavar="V")
    _add_budget(p)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="replay a pipeline into a certificate")
    p.add_argument("--pipeline", default="default",
                   help="'default' or a construction script file")
    p.add_argument("--deep", action="store_true",
                   help="base-verify every fact regardless of size")
    _add_budget(p)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check-cert", help="validate a certificate file")
    p.add_argument("certificate")
    p.add_argument("--strict", action="store_true", help="re-run base searches")
    p.set_defaults(func=_cmd_checkcert)

    p = sub.add_parser("sample", help="random cubic graphs, optional bound test")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--test-bound", action="store_true",
                   help="check each sample packs at least ceil(n/4) paths")
    _add_budget(p)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("export", help="convert between graph formats")
    _add_graph_source(p)
    p.add_argument("--to", dest="format", choices=("json", "dot"), required=True)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_build)

    return parser


#: Library error classes and their exit codes, looked up in order (a
#: ``ConstructionError`` is also a ``GraphError``).
_EXIT_CODES = (
    (cert_mod.FactRefuted, EXIT_REFUTED),
    ((ConstructionError, PackingError, cert_mod.CertificateError), EXIT_PRECONDITION),
    ((OSError, UnicodeError, dsl.ParseError, GraphError), EXIT_PARSE),
)


def _exit_code(exc: Exception) -> int | None:
    if isinstance(exc, _CliError):
        return exc.code
    if isinstance(exc, cert_mod.ReplayError):
        if exc.__cause__ is None:
            return EXIT_BUDGET
        exc = exc.__cause__
    return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), None)


#: the parser ``main`` uses, built by its first call: argparse keeps no
#: state between ``parse_args`` calls (it copies a list default before
#: appending to it), so one parser serves every call in the process
_parser = functools.cache(make_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
