"""Lossless graph serialization: a small JSON schema and a DOT subset.

Graph JSON schema::

    { "n": 8, "edges": [[0,1], ...], "labels": {"0": "Q.000", ...} }

Packing problems serialize with the graph embedded::

    { "graph": {...}, "mode": "FACTOR",
      "deletedVertices": [3], "forcedEdges": [[0,1]], "forbiddenEdges": [] }

``"deletedEdges"`` is read as a synonym of ``"forbiddenEdges"``, never written.

Vertex counts, edge ends and vertex ids are JSON integers: a float, a bool
or a string there is a :class:`GraphError`, never rounded or converted.
Each label key is a vertex id written as ``str(i)`` (so ``"007"`` or
``"+3"`` is an error) and each label a string.

DOT uses vertex labels as node names (so files are human-readable) and an
``id`` attribute to pin the dense vertex id, e.g.::

    graph G {
      "A.z1" [id=0];
      "A.z1" -- "A.z2";
    }

DOT export therefore requires labels to be unique, which every graph built
by this package guarantees.  ``from_dot`` reads one statement per line, so
DOT export also rejects a label holding a character that ``str.splitlines``
breaks on (``\\n``, ``\\r``, ``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``,
``\\u2028``, ``\\u2029``).  ``from_dot`` parses exactly the subset emitted
by ``to_dot``; both formats round-trip bit-identically.

Every pretty JSON document the package writes (graphs, problems,
certificates and the CLI's reports) comes from one writer,
:func:`pretty_json`.  Its output equals ``json.dumps(obj, sort_keys=True,
indent=2)`` byte for byte, but it writes dicts with str keys, lists,
tuples, strings, ints, bools and None itself: CPython before 3.13 runs
json's pure-Python encoder whenever ``indent`` is set, and that encoder
took most of the time of writing a certificate.  From 3.13 on json's C
encoder handles ``indent`` too and is the faster one, so there
:func:`pretty_json` is ``json.dumps`` itself.
"""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii as _quote_json

from .graph import Graph, GraphError


def to_json_dict(g: Graph) -> dict:
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.sorted_edges()],
        "labels": {str(i): g.labels[i] for i in range(g.n)},
    }


_INTS = frozenset((int,))
_STRS = frozenset((str,))


def _pretty(obj, pad: str) -> str:
    """``obj`` written at the indent ``pad`` (a newline and the spaces of
    the enclosing level); a TypeError for any value :func:`pretty_json`
    leaves to ``json.dumps``."""
    t = type(obj)
    if t is str:
        return _quote_json(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = pad + "  "
    if t is dict:
        if not obj:
            return "{}"
        # _quote_json raises the TypeError for a key that is not a str
        items = [_quote_json(k) + ": " + _pretty(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        # a container of ints or of strings, such as an edge or a label
        # list, is written in one join
        types = set(map(type, obj))
        if types == _INTS:
            items = map(int.__repr__, obj)
        elif types == _STRS:
            items = map(_quote_json, obj)
        else:
            items = [_pretty(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"{t.__name__} is left to json.dumps")


def pretty_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    Dicts with str keys, lists, tuples, strings, ints, bools and None are
    written directly; an object holding anything else (a float, a key that
    is not a str, a subclass) is handed whole to ``json.dumps``, which
    also raises its errors.  From CPython 3.13 on, every object is."""
    if sys.version_info >= (3, 13):
        return json.dumps(obj, sort_keys=True, indent=2)
    try:
        return _pretty(obj, "\n")
    except TypeError:
        return json.dumps(obj, sort_keys=True, indent=2)


def to_json(g: Graph) -> str:
    return pretty_json(to_json_dict(g)) + "\n"


def _int(x: object) -> int:
    """``x`` if it is a JSON integer; a bool, a float or a string is a TypeError."""
    if type(x) is not int:
        raise TypeError(f"not an integer: {x!r}")
    return x


def from_json_dict(data: dict) -> Graph:
    try:
        n = _int(data["n"])
        edges = [(_int(u), _int(v)) for u, v in data["edges"]]
        labels = [f"v{i}" for i in range(n)]
        for key, lab in (data.get("labels") or {}).items():
            i = int(key)
            if str(i) != key or not 0 <= i < n:
                raise ValueError(f"label key {key!r} is not a vertex id")
            if type(lab) is not str:
                raise TypeError(f"label {lab!r} is not a string")
            labels[i] = lab
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    return Graph.from_edges(n, edges, labels)


def from_json(text: str) -> Graph:
    return from_json_dict(load_json(text))


def problem_to_dict(problem) -> dict:
    """Serialize a packing problem (graph embedded) to its JSON shape."""
    return {
        "graph": to_json_dict(problem.graph),
        "mode": problem.mode.value,
        "deletedVertices": sorted(problem.deleted_vertices),
        "forcedEdges": [list(e) for e in sorted(problem.forced_edges)],
        "forbiddenEdges": [list(e) for e in sorted(problem.forbidden_edges)],
    }


def problem_to_json(problem) -> str:
    return pretty_json(problem_to_dict(problem)) + "\n"


def problem_parts(data: dict) -> tuple[Graph, dict]:
    """The graph and the :class:`~lambdapack.packing.PackingProblem` fields
    a problem dict describes, before the problem validates them."""
    from .packing import Mode

    def edge_set(key: str) -> frozenset:
        pairs = [(_int(u), _int(v)) for u, v in data.get(key, [])]
        return frozenset((u, v) if u < v else (v, u) for u, v in pairs)

    try:
        graph = from_json_dict(data["graph"])
        fields = dict(
            mode=Mode(data.get("mode", "MAX")),
            deleted_vertices=frozenset(_int(v) for v in data.get("deletedVertices", [])),
            forced_edges=edge_set("forcedEdges"),
            forbidden_edges=edge_set("forbiddenEdges") | edge_set("deletedEdges"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed problem JSON: {exc}") from exc
    return graph, fields


def problem_from_dict(data: dict):
    from .packing import PackingProblem

    graph, fields = problem_parts(data)
    return PackingProblem(graph, **fields)


def load_json(text: str):
    """Parse JSON text; malformed text, or text nested deeper than the
    parser's recursion allows, is a :class:`GraphError`."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc


def problem_from_json(text: str):
    return problem_from_dict(load_json(text))


_DOT_NODE = re.compile(r'^"((?:[^"\\]|\\.)*)"\s*\[id=(\d+)\];$')
_DOT_EDGE = re.compile(r'^"((?:[^"\\]|\\.)*)"\s*--\s*"((?:[^"\\]|\\.)*)";$')


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unquote(s: str) -> str:
    return s.replace('\\"', '"').replace("\\\\", "\\")


def to_dot(g: Graph) -> str:
    """Emit DOT with labels as node names; requires unique labels without
    line breaks."""
    if len(set(g.labels)) != g.n:
        raise GraphError("DOT export requires unique vertex labels")
    for lab in g.labels:
        if "".join(lab.splitlines()) != lab:
            raise GraphError(f"DOT export rejects the line break in label {lab!r}")
    lines = ["graph G {"]
    for i in range(g.n):
        lines.append(f"  {_quote(g.labels[i])} [id={i}];")
    for u, v in g.sorted_edges():
        lines.append(f"  {_quote(g.labels[u])} -- {_quote(g.labels[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def from_dot(text: str) -> Graph:
    """Parse the DOT subset produced by :func:`to_dot`."""
    ids: dict[str, int] = {}
    edge_lines: list[tuple[str, str]] = []
    body = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("graph") and line.endswith("{"):
            body = True
            continue
        if line == "}":
            body = False
            continue
        if not body:
            raise GraphError(f"DOT line {lineno}: statement outside graph block")
        m = _DOT_NODE.match(line)
        if m:
            label, idx = _unquote(m.group(1)), int(m.group(2))
            if label in ids:
                raise GraphError(f"DOT line {lineno}: duplicate node {label!r}")
            ids[label] = idx
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edge_lines.append((_unquote(m.group(1)), _unquote(m.group(2))))
            continue
        raise GraphError(f"DOT line {lineno}: unrecognized statement {line!r}")

    n = len(ids)
    if sorted(ids.values()) != list(range(n)):
        raise GraphError("DOT node ids are not dense 0..n-1")
    labels = [""] * n
    for label, i in ids.items():
        labels[i] = label
    edges = []
    for lu, lv in edge_lines:
        if lu not in ids or lv not in ids:
            raise GraphError(f"DOT edge references unknown node {lu!r} or {lv!r}")
        edges.append((ids[lu], ids[lv]))
    return Graph.from_edges(n, edges, labels)
