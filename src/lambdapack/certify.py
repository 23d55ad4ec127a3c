"""Inference rules over no-factor facts, and certificates that replay them.

A *fact* asserts one of five things about a concrete graph: it has no
factor, no factor containing a given edge, no factor avoiding a given edge,
no factor after deleting a given vertex, or no factor after deleting a
vertex that also avoids a given edge.  Facts are keyed by a canonical hash
of the concrete graph (vertex count plus sorted edge list), not by
isomorphism class.

Facts arise two ways:

* BASE -- an exhaustive solver run returned UNSAT (the step records the
  search statistics);
* R1..R6 -- a composition rule transported facts about the operands to a
  fact about the composite.  :data:`RULES` is the single source of the
  rules: one row each gives the operator, the operand residues (vertex
  counts mod 6), the premise patterns, and how the conclusion and the
  recorded side conditions follow from the anchors.  Every rule also
  requires cubic operands.  In summary:

  ====  =========  ==========================  =============================
  rule  operator   side conditions              premises -> conclusion
  ====  =========  ==========================  =============================
  R1    ebridge    v(A)=v(B)=2 mod 6            -> no factor of G contains
                                                   the middle edge
  R2    ymerge     v(A)=0 mod 6                 no factor of A contains
                                                (a,a1) -> G has no factor
  R3    vsub       v(A)=v(B)=0 mod 6            no factor of A contains
                                                (a,a1) -> G - b2 has no
                                                factor avoiding (a3,b3)
  R4    esub       v(A)=0, v(B)=4 mod 6,        A-fact: contains a;
                   x not incident to b          B-fact: B-x avoiding b
                                                -> G - x has no factor
  R5    esub       v(A)=2, v(B)=4 mod 6         B - b1 has no factor
                                                -> no factor of G avoids
                                                   (a2,b2)
  R6    esub       v(A)=v(B)=0 mod 6            A-fact: contains a;
                                                B-fact: avoids b
                                                -> G has no factor
  ====  =========  ==========================  =============================

``replay_pipeline`` evaluates a construction script, derives one fact per
bound stage whose operator and residues match a rule (``apply_rule``),
cross-checks every fact whose residual search is small enough by a direct
BASE run, and packs everything into a :class:`Certificate`.
``check_certificate`` re-validates a certificate offline.  It recomputes
hashes and premise linkage, and re-derives each rule step whole from its
row: it rebuilds the composite from the stored operand graphs, derives the
expected premises, conclusion, side conditions and (empty) evidence, and
rejects the step on any difference.  A BASE step is rebuilt the same way:
from its recorded verdict and node count, or, under ``strict=True``, by
re-running the search.  A certificate read from JSON must also be in its
canonical form (the form ``certificate_to_dict`` writes), so the fact
labels, which are read from the graph table, cannot disagree with it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

from . import constructions as cons
from .dsl import BuildRecord, run_script
from .graph import Edge, Graph, GraphError, is_cubic, norm_edge
from .io import load_json, pretty_json
from .packing import Budget, Mode, PackingError, PackingProblem, PackingResult, solve
from .pipeline import DEFAULT_SCRIPT

KIND_NO_FACTOR = "no_factor"
KIND_CONTAINING = "no_factor_containing"
KIND_AVOIDING = "no_factor_avoiding"
KIND_MINUS_VERTEX = "no_factor_minus_vertex"
KIND_MINUS_VERTEX_AVOIDING = "no_factor_minus_vertex_avoiding"

#: what each kind means as a FACTOR search: (deletes a vertex, the
#: PackingProblem field that forces or forbids the fact's edge, if any)
_KINDS: dict[str, tuple[bool, str | None]] = {
    KIND_NO_FACTOR: (False, None),
    KIND_CONTAINING: (False, "forced_edges"),
    KIND_AVOIDING: (False, "forbidden_edges"),
    KIND_MINUS_VERTEX: (True, None),
    KIND_MINUS_VERTEX_AVOIDING: (True, "forbidden_edges"),
}

#: corrected readings applied by the rule engine, recorded in certificates
NOTES = (
    "R2 reads its hypothesis as: the operand graph (not the removed vertex) "
    "has no factor containing the edge from the removed vertex to its first "
    "port.",
    "R2 accepts an edge-specified merge anchor as the vertex form with the "
    "other endpoint placed first in the port order.",
    "The middle-edge argument pins the crossing edge set to the two "
    "subdivision edges at the new vertices.",
)


class CertificateError(ValueError):
    """Malformed certificate or an inapplicable rule application."""


class FactRefuted(ValueError):
    """A base search found a factor that a claimed fact says cannot exist."""

    def __init__(self, fact: "Fact", result: PackingResult):
        super().__init__(f"fact refuted by a witness: {fact}")
        self.fact = fact
        self.result = result


def graph_hash(g: Graph) -> str:
    return g.digest


@dataclass(frozen=True)
class Fact:
    """A no-factor claim about a concrete graph."""

    kind: str
    graph_hash: str
    n: int
    vertex: int | None = None
    edge: Edge | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise CertificateError(f"unknown fact kind {self.kind!r}")
        deletes_vertex, edge_field = _KINDS[self.kind]
        if deletes_vertex != (self.vertex is not None):
            raise CertificateError(f"fact kind {self.kind} vertex parameter mismatch")
        if (edge_field is not None) != (self.edge is not None):
            raise CertificateError(f"fact kind {self.kind} edge parameter mismatch")
        if self.edge is not None and self.vertex in self.edge:
            raise CertificateError("fact edge must not touch the deleted vertex")

    @property
    def residue(self) -> int:
        return self.n % 6

    @property
    def key(self) -> tuple:
        return (self.kind, self.graph_hash, self.vertex, self.edge)

    def residual_size(self) -> int:
        """Live vertex count of the search that grounds this fact."""
        return self.n - (1 if self.vertex is not None else 0)

    def to_problem(self, g: Graph) -> PackingProblem:
        """The FACTOR search that grounds this fact on g.

        Raises CertificateError unless the fact is about g, its vertex and
        edge are g's, and the live vertex count is divisible by 3.
        """
        if graph_hash(g) != self.graph_hash:
            raise CertificateError("fact does not describe this graph")
        kw: dict = {}
        if self.vertex is not None:
            kw["deleted_vertices"] = frozenset({self.vertex})
        edge_field = _KINDS[self.kind][1]
        if edge_field is not None:
            kw[edge_field] = frozenset({self.edge})
        try:
            return PackingProblem(g, Mode.FACTOR, **kw)
        except (GraphError, PackingError) as exc:
            raise CertificateError(f"fact is no FACTOR search on its graph: {exc}") from exc


def make_fact(
    g: Graph, kind: str, vertex: int | None = None, edge: Edge | None = None
) -> Fact:
    return Fact(kind, graph_hash(g), g.n, vertex, edge and norm_edge(*edge))


@dataclass(frozen=True)
class CertStep:
    step_id: str
    rule: str  # "BASE" or "R1".."R6"
    premises: tuple[str, ...]
    conclusion: Fact
    side_conditions: dict
    evidence: dict


@dataclass
class Certificate:
    graphs: dict[str, Graph]  # hash -> graph
    graph_names: dict[str, str]  # hash -> human name from the script
    steps: tuple[CertStep, ...]
    final_facts: tuple[Fact, ...]
    notes: tuple[str, ...] = NOTES


# ----------------------------------------------------------------------
# The rule table
# ----------------------------------------------------------------------


@dataclass
class _FactStore:
    """Facts by key, each with the id of the first step that concluded it."""

    by_key: dict[tuple, tuple[Fact, str]] = field(default_factory=dict)

    def add(self, fact: Fact, step_id: str) -> None:
        self.by_key.setdefault(fact.key, (fact, step_id))

    def find(self, kind: str, ghash: str, vertex: int | None, edge: Edge | None):
        """The (fact, step id) entry with this key, or None.

        A vertex-deleting kind asked for with ``vertex=None`` matches the
        first stored fact of that kind, graph and edge, whatever its vertex.
        """
        if vertex is None and _KINDS[kind][0]:
            for (k, h, _v, e), entry in self.by_key.items():
                if (k, h, e) == (kind, ghash, edge):
                    return entry
            return None
        return self.by_key.get((kind, ghash, vertex, edge))


@dataclass(frozen=True)
class Premise:
    """A fact a rule needs about one operand (0 = A, 1 = B).

    ``vertex`` and ``edge`` compute the fact's parameters from the anchors.
    A vertex-deleting kind without ``vertex`` leaves the vertex free.
    """

    kind: str
    operand: int
    vertex: Callable[[tuple], int] | None = None
    edge: Callable[[tuple], Edge] | None = None


@dataclass(frozen=True)
class Rule:
    """One inference rule, read both to derive and to check a step.

    ``conclusion`` and ``extra`` take the anchors, the construction detail
    and the premise facts.  ``conclusion`` gives the (kind, vertex, edge)
    concluded about the composite; ``extra`` gives the side conditions
    recorded besides the operator, the anchors and the residues.
    """

    name: str
    op: str
    residues: tuple[int, ...]
    premises: tuple[Premise, ...]
    conclusion: Callable[[tuple, object, tuple], tuple]
    extra: Callable[[tuple, object, tuple], dict] = lambda a, d, p: {}


def _marked(a: cons.PortedVertex) -> Edge:
    """The edge from a ported vertex to its first port."""
    return norm_edge(a.v, a.ports[0])


RULES = (
    Rule(
        "R1", "ebridge", (2, 2), (),
        lambda a, d, p: (KIND_CONTAINING, None, d.middle_edge),
        lambda a, d, p: {"middle_edge": list(d.middle_edge)},
    ),
    Rule(
        "R2", "ymerge", (0,),
        (Premise(KIND_CONTAINING, 0, edge=lambda a: _marked(a[0])),),
        lambda a, d, p: (KIND_NO_FACTOR, None, None),
        lambda a, d, p: {"marked_edge": list(_marked(a[0]))},
    ),
    Rule(
        "R3", "vsub", (0, 0),
        (Premise(KIND_CONTAINING, 0, edge=lambda a: _marked(a[0])),),
        lambda a, d, p: (
            KIND_MINUS_VERTEX_AVOIDING,
            d.map_b[a[1].ports[1]],
            norm_edge(d.map_a[a[0].ports[2]], d.map_b[a[1].ports[2]]),
        ),
        lambda a, d, p: {"marked_edge": list(_marked(a[0]))},
    ),
    # x is the free vertex of the B-premise; a fact's deleted vertex never
    # touches its edge, so x is not incident to b
    Rule(
        "R4", "esub", (0, 4),
        (
            Premise(KIND_CONTAINING, 0, edge=lambda a: a[0].edge),
            Premise(KIND_MINUS_VERTEX_AVOIDING, 1, edge=lambda a: a[1].edge),
        ),
        lambda a, d, p: (KIND_MINUS_VERTEX, d.map_b[p[1].vertex], None),
        lambda a, d, p: {"x": p[1].vertex},
    ),
    Rule(
        "R5", "esub", (2, 4),
        (Premise(KIND_MINUS_VERTEX, 1, vertex=lambda a: a[1].e1),),
        lambda a, d, p: (
            KIND_AVOIDING,
            None,
            norm_edge(d.map_a[a[0].e2], d.map_b[a[1].e2]),
        ),
    ),
    Rule(
        "R6", "esub", (0, 0),
        (
            Premise(KIND_CONTAINING, 0, edge=lambda a: a[0].edge),
            Premise(KIND_AVOIDING, 1, edge=lambda a: a[1].edge),
        ),
        lambda a, d, p: (KIND_NO_FACTOR, None, None),
    ),
)

_RULES_BY_NAME = {rule.name: rule for rule in RULES}


def _anchor_payload(a: cons.PortedVertex | cons.PortedEdge, ghash: str) -> dict:
    if isinstance(a, cons.PortedVertex):
        return {"graph": ghash, "vertex": a.v, "ports": list(a.ports)}
    return {"graph": ghash, "edge": [a.e1, a.e2]}


def _anchor_from_payload(cert: Certificate, op: str, payload: dict):
    g = cert.graphs.get(payload["graph"])
    if g is None:
        raise CertificateError("operand graph missing from table")
    if cons.OPERATORS[op].anchor is cons.PortedVertex:
        return cons.PortedVertex(g, payload["vertex"], tuple(payload["ports"]))
    return cons.PortedEdge(g, *payload["edge"])


def _derive(
    rule: Rule, anchors: tuple, detail, store: _FactStore, step_id: str
) -> CertStep:
    """The step ``rule`` yields on a construction, premises found in ``store``.

    Raises CertificateError when a residue, cubicity or premise fails.
    """
    residues = tuple(x.graph.n % 6 for x in anchors)
    if residues != rule.residues:
        raise CertificateError(
            f"{rule.name} needs operand residues {rule.residues} mod 6, "
            f"got {residues}"
        )
    if not all(is_cubic(x.graph) for x in anchors):
        raise CertificateError("rule requires cubic operands")
    hashes = [graph_hash(x.graph) for x in anchors]
    found = []
    for pat in rule.premises:
        vertex = pat.vertex(anchors) if pat.vertex else None
        edge = pat.edge(anchors) if pat.edge else None
        entry = store.find(pat.kind, hashes[pat.operand], vertex, edge)
        if entry is None:
            raise CertificateError(
                f"{rule.name} premise missing: {pat.kind} on operand "
                f"{'AB'[pat.operand]} (vertex {vertex}, edge {edge})"
            )
        found.append(entry)
    facts = tuple(fact for fact, _ in found)
    kind, vertex, edge = rule.conclusion(anchors, detail, facts)
    side = {
        "op": rule.op,
        **{key: _anchor_payload(x, h) for key, x, h in zip("ab", anchors, hashes)},
        "residues": list(rule.residues),
        **rule.extra(anchors, detail, facts),
    }
    return CertStep(
        step_id,
        rule.name,
        tuple(sid for _, sid in found),
        make_fact(detail.graph, kind, vertex, edge),
        side,
        {},
    )


def apply_rule(
    record: BuildRecord, store: _FactStore, step_id: str
) -> CertStep | None:
    """Derive the fact (if any) that a construction step supports.

    Returns None when the operator/residue signature matches no rule.
    Raises CertificateError when a rule matches but its premises are
    missing or a side condition fails.
    """
    residues = tuple(a.graph.n % 6 for a in record.anchors)
    for rule in RULES:
        if (rule.op, rule.residues) == (record.op, residues):
            return _derive(rule, record.anchors, record.detail, store, step_id)
    return None


# ----------------------------------------------------------------------
# Base verification
# ----------------------------------------------------------------------


def verify_base(
    fact: Fact,
    g: Graph,
    step_id: str,
    budget: Budget | None = None,
) -> CertStep:
    """Ground a fact by exhaustive search.

    Returns a BASE step whose evidence verdict is UNSAT (verified) or
    INDETERMINATE (budget ran out).  Raises FactRefuted when the search
    finds a factor, which falsifies the fact, and CertificateError when the
    fact is no FACTOR search on g.
    """
    result = solve(fact.to_problem(g), budget or Budget())
    if result.verdict == "SAT":
        raise FactRefuted(fact, result)
    return _base_step(fact, step_id, result.verdict, result.stats.nodes)


def _base_step(fact: Fact, step_id: str, verdict: str, nodes: int) -> CertStep:
    """The BASE step for a search on ``fact`` that ended so."""
    side = {"problem": _problem_payload(fact)}
    return CertStep(step_id, "BASE", (), fact, side, {"verdict": verdict, "nodes": nodes})


def _problem_payload(fact: Fact) -> dict:
    out: dict = {"mode": "FACTOR"}
    if fact.vertex is not None:
        out["deleted_vertices"] = [fact.vertex]
    edge_field = _KINDS[fact.kind][1]
    if edge_field is not None:
        out[edge_field] = [list(fact.edge)]
    return out


# ----------------------------------------------------------------------
# Pipeline replay
# ----------------------------------------------------------------------


class ReplayError(ValueError):
    """Replay aborted by its ``__cause__`` (an inapplicable rule's
    ``CertificateError`` or a base search's ``FactRefuted``), or, with no
    cause, by a base search that ran out of budget."""


#: the most live vertices a fact may have for replay to ground it by a
#: BASE search, unless ``deep``
BASE_BUDGETED_MAX = 46


def replay_pipeline(
    script: str = DEFAULT_SCRIPT,
    base_budget: Budget | None = None,
    deep: bool = False,
) -> Certificate:
    """Evaluate a construction script and certify its no-factor facts.

    Every bound stage whose operator and residues match a rule yields a
    rule step.  Facts whose grounding search stays within
    ``BASE_BUDGETED_MAX`` live vertices are additionally BASE-verified;
    ``deep=True`` removes the size cap so even the largest facts get a
    direct search.  Every grounding search must finish: one that runs out
    of ``base_budget`` fails the replay with a ``ReplayError`` without a
    cause, so a replayed certificate holds only UNSAT BASE steps.
    Final facts are all conclusions except the middle-edge gadget facts,
    which exist to feed the other rules.
    """
    base_budget = base_budget or Budget()
    records = run_script(script)
    store = _FactStore()
    steps: list[CertStep] = []
    graphs: dict[str, Graph] = {}
    names: dict[str, str] = {}

    for rec in records:
        if rec.name is None:
            continue
        h = graph_hash(rec.graph)
        graphs.setdefault(h, rec.graph)
        names.setdefault(h, rec.name)
        for anchor in rec.anchors:
            ah = graph_hash(anchor.graph)
            graphs.setdefault(ah, anchor.graph)
        try:
            step = apply_rule(rec, store, f"s{len(steps) + 1}")
        except CertificateError as exc:
            raise ReplayError(f"stage {rec.name!r}: {exc}") from exc
        if step is None:
            continue
        steps.append(step)
        store.add(step.conclusion, step.step_id)

    rule_steps = list(steps)
    for step in rule_steps:
        fact = step.conclusion
        size = fact.residual_size()
        if size > BASE_BUDGETED_MAX and not deep:
            continue
        subject = graphs[fact.graph_hash]
        try:
            base = verify_base(fact, subject, f"s{len(steps) + 1}", base_budget)
        except FactRefuted as exc:
            raise ReplayError(
                f"base search refuted {fact.kind} on "
                f"{names.get(fact.graph_hash, fact.graph_hash[:12])}: {exc}"
            ) from exc
        if base.evidence["verdict"] == "INDETERMINATE":
            raise ReplayError(
                f"strict base check ran out of budget on {size} vertices"
            )
        steps.append(base)

    finals = tuple(
        s.conclusion
        for s in steps
        if s.rule != "BASE" and s.conclusion.kind != KIND_CONTAINING
    )
    return Certificate(graphs, names, tuple(steps), finals)


# ----------------------------------------------------------------------
# Certificate serialization
# ----------------------------------------------------------------------


def certificate_to_dict(cert: Certificate) -> dict:
    """The JSON form; fact labels are read from the graph table."""

    def fact_payload(f: Fact) -> dict:
        out: dict = {
            "kind": f.kind,
            "graph": f.graph_hash,
            "n": f.n,
            "residue": f.residue,
        }
        if f.vertex is not None:
            out["vertex"] = f.vertex
            out["vertexLabel"] = cert.graphs[f.graph_hash].labels[f.vertex]
        if f.edge is not None:
            out["edge"] = list(f.edge)
            out["edgeLabels"] = [cert.graphs[f.graph_hash].labels[v] for v in f.edge]
        return out

    return {
        "format": "lambdapack-certificate/1",
        "graphs": {
            h: {
                "name": cert.graph_names.get(h, ""),
                "n": g.n,
                "edges": [list(e) for e in g.sorted_edges()],
                "labels": list(g.labels),
            }
            for h, g in sorted(cert.graphs.items())
        },
        "steps": [
            {
                "id": s.step_id,
                "rule": s.rule,
                "premises": list(s.premises),
                "conclusion": fact_payload(s.conclusion),
                "sideConditions": s.side_conditions,
                "evidence": s.evidence,
            }
            for s in cert.steps
        ],
        "finalFacts": [fact_payload(f) for f in cert.final_facts],
        "notes": list(cert.notes),
    }


def certificate_to_json(cert: Certificate) -> str:
    return pretty_json(certificate_to_dict(cert)) + "\n"


def _typed(value, cls: type, what: str):
    """``value`` if its type is exactly ``cls`` (a bool is no int), else a
    CertificateError: no list or dict may reach a set or a dict key."""
    if type(value) is not cls:
        noun = {str: "a string", int: "an integer", dict: "an object"}[cls]
        raise CertificateError(f"{what} must be {noun}, not {type(value).__name__}")
    return value


def _fact_from_payload(data: dict) -> Fact:
    _typed(data, dict, "fact")
    ends = [_typed(v, int, "fact edge end") for v in data.get("edge", ())]
    vertex = data.get("vertex")
    return Fact(
        _typed(data["kind"], str, "fact kind"),
        _typed(data["graph"], str, "fact graph"),
        _typed(data["n"], int, "fact n"),
        vertex if vertex is None else _typed(vertex, int, "fact vertex"),
        norm_edge(*ends) if "edge" in data else None,
    )


def certificate_from_dict(data: dict) -> Certificate:
    if not isinstance(data, dict):
        raise CertificateError("certificate is not a JSON object")
    if data.get("format") != "lambdapack-certificate/1":
        raise CertificateError("unknown certificate format")
    if not isinstance(data.get("graphs"), dict):
        raise CertificateError("graph table is not a JSON object")
    graphs: dict[str, Graph] = {}
    names: dict[str, str] = {}
    for h, payload in data["graphs"].items():
        g = Graph.from_edges(
            payload["n"],
            [tuple(e) for e in payload["edges"]],
            payload["labels"],
        )
        graphs[h] = g
        if payload.get("name"):
            names[h] = payload["name"]
    steps = tuple(
        CertStep(
            _typed(s["id"], str, "step id"),
            _typed(s["rule"], str, "step rule"),
            tuple(_typed(p, str, "premise") for p in s["premises"]),
            _fact_from_payload(s["conclusion"]),
            s["sideConditions"],
            s["evidence"],
        )
        for s in data["steps"]
    )
    finals = tuple(_fact_from_payload(f) for f in data["finalFacts"])
    return Certificate(graphs, names, steps, finals, tuple(data.get("notes", ())))


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_dict(load_json(text))


# ----------------------------------------------------------------------
# Certificate checking
# ----------------------------------------------------------------------


def check_certificate(cert: Certificate | dict | str, strict: bool = False) -> bool:
    """Re-validate a certificate; True iff every step checks out."""
    return not check_certificate_detailed(cert, strict)


def check_certificate_detailed(
    cert: Certificate | dict | str, strict: bool = False
) -> list[str]:
    """All problems found while re-validating; empty list means valid.

    Every step is rebuilt and compared whole: a rule step from its row of
    :data:`RULES` (rebuilding the composite from the stored operand graphs),
    a BASE step from its recorded verdict and node count.  ``strict=True``
    rebuilds each UNSAT BASE step by re-running its search instead.  A dict
    or JSON text must be in canonical form: the same JSON, up to key order
    and white space, as ``certificate_to_dict`` writes back for it.
    """
    try:
        if isinstance(cert, (str, dict)):
            data = load_json(cert) if isinstance(cert, str) else cert
            cert = certificate_from_dict(data)
            # compared as JSON text, so 72.0 for 72 or true for 1 also shows
            written = json.dumps(certificate_to_dict(cert), sort_keys=True)
            if written != json.dumps(data, sort_keys=True):
                return ["certificate is not in canonical form"]
    except (CertificateError, GraphError, LookupError, TypeError, ValueError) as exc:
        return [f"malformed certificate: {exc}"]

    problems: list[str] = []
    for h, g in cert.graphs.items():
        if graph_hash(g) != h:
            problems.append(f"graph table entry {h[:12]} does not match its hash")
    if problems:
        return problems

    concluded: dict[str, Fact] = {}
    for step in cert.steps:
        where = f"step {step.step_id}"
        if step.conclusion.graph_hash not in cert.graphs:
            problems.append(f"{where}: conclusion graph missing from table")
            continue
        try:
            if step.rule == "BASE":
                _check_base_step(cert, step, strict)
            else:
                _check_rule_step(cert, step, concluded)
        except (CertificateError, GraphError, FactRefuted) as exc:
            problems.append(f"{where}: {exc}")
            continue
        except (AttributeError, KeyError, TypeError) as exc:
            problems.append(f"{where}: malformed step ({exc!r})")
            continue
        if step.rule == "BASE" and step.evidence.get("verdict") != "UNSAT":
            # a recorded search attempt that ran out of budget grounds nothing
            continue
        concluded[step.step_id] = step.conclusion

    known = set(concluded.values())
    for fact in cert.final_facts:
        if fact not in known:
            problems.append(
                f"final fact {fact.kind} on n={fact.n} not concluded by any step"
            )
    return problems


def _check_base_step(cert: Certificate, step: CertStep, strict: bool) -> None:
    """Rebuild the BASE step from its evidence (or its search) and compare."""
    fact = step.conclusion
    subject = cert.graphs[fact.graph_hash]
    evidence = step.evidence
    nodes = evidence.get("nodes")
    if set(evidence) != {"verdict", "nodes"} or type(nodes) is not int or nodes < 0:
        raise CertificateError("BASE evidence must be a verdict and a node count")
    verdict = evidence["verdict"]
    if verdict not in ("UNSAT", "INDETERMINATE"):
        raise CertificateError(f"BASE evidence verdict {verdict!r} is not probative")
    claim = make_fact(subject, fact.kind, fact.vertex, fact.edge)
    if strict and verdict == "UNSAT":
        want = verify_base(claim, subject, step.step_id)
    else:
        claim.to_problem(subject)  # a search verify_base would accept
        want = _base_step(claim, step.step_id, verdict, nodes)
    _compare(step, want)


def _check_rule_step(
    cert: Certificate, step: CertStep, concluded: dict[str, Fact]
) -> None:
    """Re-derive the step from its rule row and reject any difference."""
    rule = _RULES_BY_NAME.get(step.rule)
    if rule is None:
        raise CertificateError(f"unknown rule {step.rule!r}")
    anchors = tuple(
        _anchor_from_payload(cert, rule.op, step.side_conditions[key])
        for key in "ab"[: len(rule.residues)]
    )
    listed = _FactStore()
    for pid in step.premises:
        if pid in concluded:
            listed.add(concluded[pid], pid)
    detail = cons.OPERATORS[rule.op].detail(*anchors)
    _compare(step, _derive(rule, anchors, detail, listed, step.step_id))


def _compare(step: CertStep, want: CertStep) -> None:
    for what in ("premises", "conclusion", "side_conditions", "evidence"):
        if getattr(step, what) != getattr(want, what):
            raise CertificateError(
                f"{step.rule} step does not match its rebuilt {what.replace('_', ' ')}"
            )
