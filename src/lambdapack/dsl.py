"""A small expression language for describing graph constructions.

Grammar (EBNF)::

    script   = { line } ;
    line     = [ "let" NAME "=" ] expr ;
    expr     = "atlas" "(" NAME ")"
             | "prism" "(" INT ")"
             | "vsub" "(" vanchor "," vanchor ")"
             | "ymerge3" "(" vanchor "," vanchor "," vanchor ")"
             | "ymerge" "(" vanchor ")"
             | "esub" "(" eanchor "," eanchor ")"
             | "ebridge" "(" eanchor "," eanchor ")"
             | NAME ;                      (* binding ref, or atlas shorthand *)
    vanchor  = expr "@" NAME [ "[" NAME "," NAME "," NAME "]" ] ;
    eanchor  = expr "@" edgeref ;
    edgeref  = NAME "-" NAME               (* endpoint labels, oriented *)
             | "e" INT ;                   (* k-th edge, 1-based, sorted order *)
    NAME     = letter-digit-underscore-dot sequence (no dash) ;

Operator names, anchor kinds and anchor counts come from ``constructions.OPERATORS``.
Lines are independent statements; ``#`` starts a comment.  Vertex anchors
name the vertex to remove by its label; the optional bracket list fixes the
port order (default: neighbors ascending by id).  Edge anchors are oriented:
``x-y`` pairs endpoint x with the first endpoint of the other anchor.

Evaluation is deterministic: the same script always produces bit-identical
graphs (same ids, same labels).  Resolution errors report the path into the
expression tree; syntax errors report line and column.  Calls nest at most
``MAX_NESTING`` deep, so neither parsing nor evaluation, which both recurse
once per level, meets Python's recursion limit.  The parser and the
evaluator count depth alike (``atlas(...)`` and ``prism(...)`` are calls
too), so a hand-built AST nested deeper than the limit is a
``ResolveError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import constructions as cons
from .graph import Graph, GraphError


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ResolveError(GraphError):
    """A name in an expression does not resolve; carries the AST path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AtlasRef:
    name: str


@dataclass(frozen=True)
class PrismRef:
    size: int


@dataclass(frozen=True)
class BindingRef:
    name: str


@dataclass(frozen=True)
class VertexAnchor:
    expr: "Expr"
    label: str
    ports: tuple[str, str, str] | None


@dataclass(frozen=True)
class EdgeAnchor:
    expr: "Expr"
    endpoints: tuple[str, str] | None
    index: int | None


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple  # VertexAnchor or EdgeAnchor, as many as the operator takes


Expr = AtlasRef | PrismRef | BindingRef | Call

_RESERVED = {"atlas", "prism", "let", *cons.OPERATORS}

#: the deepest call nesting an expression may have, far above any
#: construction in use (the pipeline inlined into one expression nests 5 deep)
MAX_NESTING = 100


# ----------------------------------------------------------------------
# Tokenizer / parser
# ----------------------------------------------------------------------

_NAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_."
)


class _Parser:
    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
        self.line = line
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.pos + 1)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of line"
            raise self.error(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            found = self.peek() or "end of line"
            raise self.error(f"expected a name, found {found!r}")
        return self.text[start : self.pos]

    def expr(self) -> Expr:
        name = self.name()
        if self.peek() != "(":
            if name in _RESERVED:
                raise self.error(f"{name!r} needs an argument list")
            return BindingRef(name)
        if self.depth == MAX_NESTING:
            raise self.error(f"calls nested more than {MAX_NESTING} deep")
        self.depth += 1
        self.expect("(")
        node = self._call(name)
        self.expect(")")
        self.depth -= 1
        return node

    def _call(self, op: str) -> Expr:
        if op == "atlas":
            return AtlasRef(self.name())
        if op == "prism":
            num = self.name()
            if not num.isdigit():
                raise self.error(f"prism size must be an integer, got {num!r}")
            return PrismRef(int(num))
        spec = cons.OPERATORS.get(op)
        if spec is None:
            raise self.error(f"unknown operator {op!r}")
        vertex = spec.anchor is cons.PortedVertex
        anchor = self.vertex_anchor if vertex else self.edge_anchor
        args = [anchor()]
        for _ in range(spec.arity - 1):
            self.expect(",")
            args.append(anchor())
        return Call(op, tuple(args))

    def vertex_anchor(self) -> VertexAnchor:
        sub = self.expr()
        self.expect("@")
        label = self.name()
        ports = None
        if self.peek() == "[":
            self.expect("[")
            p1 = self.name()
            self.expect(",")
            p2 = self.name()
            self.expect(",")
            p3 = self.name()
            self.expect("]")
            ports = (p1, p2, p3)
        return VertexAnchor(sub, label, ports)

    def edge_anchor(self) -> EdgeAnchor:
        sub = self.expr()
        self.expect("@")
        first = self.name()
        if self.peek() == "-":
            self.expect("-")
            second = self.name()
            return EdgeAnchor(sub, (first, second), None)
        if first[:1] == "e" and first[1:].isdigit():
            return EdgeAnchor(sub, None, int(first[1:]))
        raise self.error(
            f"edge anchor must be 'label-label' or 'e<k>', got {first!r}"
        )


def parse_expr(text: str) -> Expr:
    """Parse a single construction expression, reported as line 1."""
    p = _Parser(text, 1)
    node = p.expr()
    if not p.at_end():
        raise p.error(f"trailing input {p.text[p.pos:]!r}")
    return node


@dataclass(frozen=True)
class Statement:
    name: str | None
    expr: Expr
    line: int


def parse_script(text: str) -> tuple[Statement, ...]:
    """Parse a script: one statement per line, ``let name = expr`` or bare expr."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        p = _Parser(line, lineno)
        name = None
        save = p.pos
        first = p.name() if p.peek() in _NAME_CHARS else ""
        if first == "let":
            name = p.name()
            if name in _RESERVED:
                raise p.error(f"{name!r} is reserved and cannot be bound")
            p.expect("=")
        else:
            p.pos = save
        expr = p.expr()
        if not p.at_end():
            raise p.error(f"trailing input {p.text[p.pos:]!r}")
        statements.append(Statement(name, expr, lineno))
    return tuple(statements)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BuildRecord:
    """One evaluated statement: the graph plus how its top operator was applied."""

    name: str | None
    expr: Expr
    graph: Graph
    op: str | None
    anchors: tuple
    detail: cons.BinaryDetail | cons.TripleDetail | None


def _resolve_anchor(
    anchor: VertexAnchor | EdgeAnchor, env: dict[str, Graph], path: str, depth: int
) -> cons.PortedVertex | cons.PortedEdge:
    g = _evaluate_record(anchor.expr, env, path + "/expr", None, depth).graph
    try:
        if isinstance(anchor, VertexAnchor):
            v = g.vertex_by_label(anchor.label)
            if anchor.ports is None:
                return cons.PortedVertex.default(g, v)
            ports = tuple(g.vertex_by_label(p) for p in anchor.ports)
            return cons.PortedVertex(g, v, ports)  # type: ignore[arg-type]
        if anchor.endpoints is not None:
            lu, lv = anchor.endpoints
            return cons.PortedEdge(g, g.vertex_by_label(lu), g.vertex_by_label(lv))
        assert anchor.index is not None
        ordered = g.sorted_edges()
        if not (1 <= anchor.index <= len(ordered)):
            raise GraphError(
                f"edge index e{anchor.index} out of range (graph has {len(ordered)} edges)"
            )
        u, v = ordered[anchor.index - 1]
        return cons.PortedEdge(g, u, v)
    except GraphError as exc:
        raise ResolveError(str(exc), path) from exc


def _evaluate_record(
    node: Expr, env: dict[str, Graph], path: str, name: str | None, depth: int = 0
) -> BuildRecord:
    """Evaluate ``node``, which sits inside ``depth`` calls."""
    if depth >= MAX_NESTING and not isinstance(node, BindingRef):
        raise ResolveError(f"calls nested more than {MAX_NESTING} deep", path)
    if isinstance(node, AtlasRef):
        try:
            return BuildRecord(name, node, cons.atlas(node.name), None, (), None)
        except GraphError as exc:
            raise ResolveError(str(exc), path) from exc
    if isinstance(node, PrismRef):
        try:
            return BuildRecord(name, node, cons.prism(node.size), None, (), None)
        except GraphError as exc:
            raise ResolveError(str(exc), path) from exc
    if isinstance(node, BindingRef):
        if node.name in env:
            return BuildRecord(name, node, env[node.name], None, (), None)
        if node.name in cons.ATLAS_NAMES:
            return BuildRecord(name, node, cons.atlas(node.name), None, (), None)
        raise ResolveError(f"unknown name {node.name!r}", path)
    assert isinstance(node, Call)
    # a parsed Call is checked against OPERATORS already; a hand-built one is not
    spec = cons.OPERATORS.get(node.op)
    if spec is None:
        raise ResolveError(f"unknown operator {node.op!r}", path)
    if len(node.args) != spec.arity:
        raise ResolveError(
            f"{node.op} takes {spec.arity} anchors, got {len(node.args)}", path
        )
    anchors = tuple(
        _resolve_anchor(a, env, f"{path}/{node.op}[{i}]", depth + 1)
        for i, a in enumerate(node.args)
    )
    if not all(isinstance(a, spec.anchor) for a in anchors):
        raise ResolveError(f"{node.op} takes {spec.anchor.__name__} anchors", path)
    try:
        detail = spec.detail(*anchors)
    except cons.ConstructionError as exc:
        raise ResolveError(str(exc), path) from exc
    return BuildRecord(name, node, detail.graph, node.op, anchors, detail)


def build(source: str | Expr) -> Graph:
    """Evaluate one expression (text or AST) to a graph."""
    node = parse_expr(source) if isinstance(source, str) else source
    return _evaluate_record(node, {}, "$", None).graph


def run_script(text: str) -> tuple[BuildRecord, ...]:
    """Evaluate a script top to bottom; returns one record per statement."""
    records = []
    env: dict[str, Graph] = {}
    for stmt in parse_script(text):
        rec = _evaluate_record(
            stmt.expr, env, stmt.name or f"line{stmt.line}", stmt.name
        )
        records.append(rec)
        if stmt.name is not None:
            env[stmt.name] = rec.graph
    return tuple(records)
