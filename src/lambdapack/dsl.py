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

Text is read in one pass that builds what it reads: a name, label or edge
index is resolved as soon as it is read, and a call is applied as soon as
its closing parenthesis is read.  So the first error in reading order is
the one reported: a resolution error (``ResolveError``) carries the path
into the expression, a syntax error (``ParseError``) its line and column.
Building is deterministic: the same script always produces bit-identical
graphs (same ids, same labels).  Calls (``atlas(...)`` and ``prism(...)``
too) nest at most ``MAX_NESTING`` deep, so the reader, which recurses once
per level, never meets Python's recursion limit.
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
    """A name in an expression does not resolve; carries the expression path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


@dataclass(frozen=True)
class BuildRecord:
    """One built statement: the graph plus how its top operator was applied."""

    name: str | None
    graph: Graph
    op: str | None
    anchors: tuple
    detail: cons.BinaryDetail | cons.TripleDetail | None


_RESERVED = {"atlas", "prism", "let", *cons.OPERATORS}

#: the deepest call nesting an expression may have, far above any
#: construction in use (the pipeline inlined into one expression nests 5 deep)
MAX_NESTING = 100

_NAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_."
)


def _resolved(path: str, make, *args):
    """``make(*args)``, with a ``GraphError`` from it reported at ``path``."""
    try:
        return make(*args)
    except GraphError as exc:
        raise ResolveError(str(exc), path) from exc


class _Reader:
    """Reads one line and builds each expression on it as it goes.

    ``path`` arguments name where an expression sits: the statement (``$``,
    a bound name or ``line<n>``), then ``/<op>[i]`` for each anchor and
    ``/expr`` for the expression an anchor is taken on.
    """

    def __init__(self, text: str, line: int, env: dict[str, Graph]):
        self.text = text
        self.pos = 0
        self.line = line
        self.env = env
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.pos + 1)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of line"
            raise self.error(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def name(self) -> str:
        self.peek()  # past the blanks
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            found = self.peek() or "end of line"
            raise self.error(f"expected a name, found {found!r}")
        return self.text[start : self.pos]

    def integer(self, digits: str, end: int) -> int:
        """``digits``, which end at ``end``, as an int; a digit string longer
        than Python converts is a ParseError at its first digit."""
        try:
            return int(digits)
        except ValueError:
            message = f"integer of {len(digits)} digits is too long"
            raise ParseError(message, self.line, end - len(digits) + 1) from None

    def end(self) -> None:
        if self.peek():
            raise self.error(f"trailing input {self.text[self.pos:]!r}")

    def expr(self, path: str, name: str | None = None) -> BuildRecord:
        word = self.name()
        if self.peek() != "(":
            if word in _RESERVED:
                raise self.error(f"{word!r} needs an argument list")
            if word in self.env:
                return BuildRecord(name, self.env[word], None, (), None)
            if word in cons.ATLAS_NAMES:
                return BuildRecord(name, cons.atlas(word), None, (), None)
            raise ResolveError(f"unknown name {word!r}", path)
        if self.depth == MAX_NESTING:
            raise self.error(f"calls nested more than {MAX_NESTING} deep")
        self.depth += 1
        self.pos += 1
        record = self.call(word, path, name)
        self.depth -= 1
        return record

    def call(self, op: str, path: str, name: str | None) -> BuildRecord:
        """The call to ``op`` whose opening parenthesis was just read."""
        if op in ("atlas", "prism"):
            arg: str | int = self.name()
            if op == "prism":
                if not arg.isdigit():
                    raise self.error(f"prism size must be an integer, got {arg!r}")
                arg = self.integer(arg, self.pos)
            self.expect(")")
            make = cons.atlas if op == "atlas" else cons.prism
            return BuildRecord(name, _resolved(path, make, arg), None, (), None)
        spec = cons.OPERATORS.get(op)
        if spec is None:
            raise self.error(f"unknown operator {op!r}")
        vertex = spec.anchor is cons.PortedVertex
        anchor = self.vertex_anchor if vertex else self.edge_anchor
        anchors = [anchor(f"{path}/{op}[0]")]
        for i in range(1, spec.arity):
            self.expect(",")
            anchors.append(anchor(f"{path}/{op}[{i}]"))
        self.expect(")")
        detail = _resolved(path, spec.detail, *anchors)
        return BuildRecord(name, detail.graph, op, tuple(anchors), detail)

    def vertex_anchor(self, path: str) -> cons.PortedVertex:
        g = self.expr(path + "/expr").graph
        self.expect("@")
        labels = [self.name()]
        if self.peek() == "[":
            self.pos += 1
            labels.append(self.name())
            for _ in range(2):
                self.expect(",")
                labels.append(self.name())
            self.expect("]")

        def make() -> cons.PortedVertex:
            v, *ports = (g.vertex_by_label(label) for label in labels)
            if not ports:
                return cons.PortedVertex.default(g, v)
            return cons.PortedVertex(g, v, tuple(ports))  # type: ignore[arg-type]

        return _resolved(path, make)

    def edge_anchor(self, path: str) -> cons.PortedEdge:
        g = self.expr(path + "/expr").graph
        self.expect("@")
        first, end = self.name(), self.pos
        second = index = None
        if self.peek() == "-":
            self.pos += 1
            second = self.name()
        elif first[:1] == "e" and first[1:].isdigit():
            index = self.integer(first[1:], end)
        else:
            raise self.error(
                f"edge anchor must be 'label-label' or 'e<k>', got {first!r}"
            )

        def make() -> cons.PortedEdge:
            if second is not None:
                u, v = g.vertex_by_label(first), g.vertex_by_label(second)
                return cons.PortedEdge(g, u, v)
            ordered = g.sorted_edges()
            if not 1 <= index <= len(ordered):
                raise GraphError(
                    f"edge index e{index} out of range (graph has {len(ordered)} edges)"
                )
            return cons.PortedEdge(g, *ordered[index - 1])

        return _resolved(path, make)


def build(text: str) -> Graph:
    """Build one expression, reported as line 1, to a graph."""
    reader = _Reader(text, 1, {})
    graph = reader.expr("$").graph
    reader.end()
    return graph


def run_script(text: str) -> tuple[BuildRecord, ...]:
    """Build a script top to bottom: one statement per line, ``let name =
    expr`` or a bare expr; returns one record per statement."""
    records = []
    env: dict[str, Graph] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        reader = _Reader(line, lineno, env)
        name = None
        if reader.peek() in _NAME_CHARS and reader.name() == "let":
            name = reader.name()
            if name in _RESERVED:
                raise reader.error(f"{name!r} is reserved and cannot be bound")
            reader.expect("=")
        else:
            reader.pos = 0
        record = reader.expr(name or f"line{lineno}", name)
        reader.end()
        records.append(record)
        if name is not None:
            env[name] = record.graph
    return tuple(records)
