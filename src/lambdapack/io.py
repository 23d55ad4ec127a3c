"""Lossless graph serialization: a small JSON schema and a DOT subset.

Graph JSON schema::

    { "n": 8, "edges": [[0,1], ...], "labels": {"0": "Q.000", ...} }

Packing problems serialize with the graph embedded::

    { "graph": {...}, "mode": "FACTOR",
      "deletedVertices": [3], "deletedEdges": [], "forcedEdges": [[0,1]],
      "forbiddenEdges": [] }

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
"""

from __future__ import annotations

import json
import re

from .graph import Graph, GraphError


def to_json_dict(g: Graph) -> dict:
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.sorted_edges()],
        "labels": {str(i): g.labels[i] for i in range(g.n)},
    }


def to_json(g: Graph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True, indent=2) + "\n"


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
        "deletedEdges": [list(e) for e in sorted(problem.deleted_edges)],
        "forcedEdges": [list(e) for e in sorted(problem.forced_edges)],
        "forbiddenEdges": [list(e) for e in sorted(problem.forbidden_edges)],
    }


def problem_to_json(problem) -> str:
    return json.dumps(problem_to_dict(problem), sort_keys=True, indent=2) + "\n"


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
            deleted_edges=edge_set("deletedEdges"),
            forced_edges=edge_set("forcedEdges"),
            forbidden_edges=edge_set("forbiddenEdges"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed problem JSON: {exc}") from exc
    return graph, fields


def problem_from_dict(data: dict):
    from .packing import PackingProblem

    graph, fields = problem_parts(data)
    return PackingProblem(graph, **fields)


def load_json(text: str):
    """Parse JSON text; malformed text is a :class:`GraphError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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
