"""Rule derivations, base grounding, certificate replay and validation."""

import dataclasses
import hashlib
import json

import pytest

from lambdapack import Graph, atlas, certify, cli
from lambdapack.certify import (
    KIND_AVOIDING,
    KIND_CONTAINING,
    KIND_MINUS_VERTEX,
    KIND_MINUS_VERTEX_AVOIDING,
    KIND_NO_FACTOR,
    Certificate,
    CertificateError,
    FactRefuted,
    ReplayError,
    certificate_from_dict,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    check_certificate,
    check_certificate_detailed,
    graph_hash,
    make_fact,
    replay_pipeline,
    verify_base,
)
from lambdapack.graph import GraphError
from lambdapack.packing import Budget
from lambdapack.pipeline import DEFAULT_SCRIPT, family, family_script


@pytest.fixture(scope="module")
def default_cert():
    return replay_pipeline()


def test_replay_derives_the_whole_chain(default_cert):
    rules = [s.rule for s in default_cert.steps]
    assert rules[:6] == ["R1", "R2", "R3", "R4", "R5", "R6"]
    assert rules[6:] == ["BASE", "BASE", "BASE"]
    kinds = {
        default_cert.graph_names[s.conclusion.graph_hash]: s.conclusion.kind
        for s in default_cert.steps[:6]
    }
    assert kinds == {
        "K": KIND_CONTAINING,
        "R": KIND_NO_FACTOR,
        "H": KIND_MINUS_VERTEX_AVOIDING,
        "D": KIND_MINUS_VERTEX,
        "F": KIND_AVOIDING,
        "N": KIND_NO_FACTOR,
    }


def test_final_facts_cover_the_five_results(default_cert):
    finals = {
        default_cert.graph_names[f.graph_hash]: f for f in default_cert.final_facts
    }
    assert set(finals) == {"R", "H", "D", "F", "N"}
    assert finals["N"].kind == KIND_NO_FACTOR
    assert finals["N"].n == 72
    assert finals["R"].kind == KIND_NO_FACTOR
    assert finals["R"].n == 54


def test_base_cross_checks_verified_unsat(default_cert):
    base = [s for s in default_cert.steps if s.rule == "BASE"]
    sizes = sorted(s.conclusion.residual_size() for s in base)
    assert sizes == [18, 27, 45]
    assert all(s.evidence["verdict"] == "UNSAT" for s in base)
    # the direct search and the rule application conclude the same fact
    rule_facts = {s.conclusion for s in default_cert.steps if s.rule != "BASE"}
    for s in base:
        assert s.conclusion in rule_facts


def test_certificate_validates_offline(default_cert):
    assert check_certificate(default_cert)
    text = certificate_to_json(default_cert)
    assert check_certificate(text)
    assert certificate_to_json(certificate_from_json(text)) == text


def test_certificate_json_deterministic(default_cert):
    assert certificate_to_json(default_cert) == certificate_to_json(replay_pipeline())


def test_strict_mode_reruns_base_searches(default_cert):
    assert check_certificate(default_cert, strict=True)


def test_tampering_is_detected(default_cert):
    text = certificate_to_json(default_cert)

    data = json.loads(text)
    data["finalFacts"][-1]["n"] = 73
    assert not check_certificate(data)

    data = json.loads(text)
    victim = data["finalFacts"][-1]["graph"]
    data["graphs"][victim]["edges"][0] = [0, 5]
    assert not check_certificate(data)

    data = json.loads(text)
    data["steps"][1]["premises"] = ["s99"]
    assert not check_certificate(data)

    data = json.loads(text)
    data["steps"][0]["conclusion"]["edge"] = [0, 1]
    assert not check_certificate(data)


#: JSON documents whose top level or graph table is not an object
WRONGLY_SHAPED = {
    "list": "[]",
    "null": "null",
    "number": "3",
    "graph table as a list": json.dumps(
        {
            "format": "lambdapack-certificate/1",
            "graphs": [],
            "steps": [],
            "finalFacts": [],
        }
    ),
}


@pytest.mark.parametrize("shape", sorted(WRONGLY_SHAPED))
def test_wrongly_shaped_json_is_malformed(shape):
    text = WRONGLY_SHAPED[shape]
    with pytest.raises(CertificateError):
        certificate_from_dict(json.loads(text))
    problems = check_certificate_detailed(text)
    assert len(problems) == 1 and problems[0].startswith("malformed certificate: ")


def _conclusion_with(data: dict, key: str) -> dict:
    return next(s["conclusion"] for s in data["steps"] if key in s["conclusion"])


def _first_graph(data: dict) -> dict:
    return data["graphs"][min(data["graphs"])]


#: a place in the default certificate's JSON, its key there, and a value of
#: the wrong type for it; a list or an object as a step id or a fact's
#: graph used to reach a set or a dict key and raise TypeError
MISTYPED = {
    "step id as a list": (lambda d: d["steps"][0], "id", ["s1"]),
    "step id as an object": (lambda d: d["steps"][0], "id", {"s": 1}),
    "rule name as an int": (lambda d: d["steps"][0], "rule", 1),
    "premise as a list": (
        lambda d: next(s["premises"] for s in d["steps"] if s["premises"]),
        0,
        ["s1"],
    ),
    "final fact graph as a list": (lambda d: d["finalFacts"][0], "graph", ["x"]),
    "final fact as a string": (lambda d: d["finalFacts"], 0, "x"),
    "fact kind as a list": (lambda d: d["steps"][0]["conclusion"], "kind", ["k"]),
    "fact n as a float": (lambda d: d["finalFacts"][0], "n", 72.0),
    "fact vertex as a string": (lambda d: _conclusion_with(d, "vertex"), "vertex", "0"),
    "fact edge end as a bool": (lambda d: _conclusion_with(d, "edge")["edge"], 0, True),
    "graph name as a list": (lambda d: _first_graph(d), "name", [1, {"a": 2}]),
    "graph labels as an object": (lambda d: _first_graph(d), "labels", {"0": "a"}),
    "graph label as a list": (lambda d: _first_graph(d)["labels"], 0, ["a"]),
    "notes as a string": (lambda d: d, "notes", "x"),
    "note as null": (lambda d: d["notes"], 0, None),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_mistyped_fields_are_malformed(default_cert, case):
    where, key, value = MISTYPED[case]
    data = json.loads(certificate_to_json(default_cert))
    where(data)[key] = value
    with pytest.raises(CertificateError, match=f", not {type(value).__name__}$"):
        certificate_from_dict(data)
    problems = check_certificate_detailed(data)
    assert len(problems) == 1 and problems[0].startswith("malformed certificate: ")


def test_a_mistyped_graph_name_and_notes_fail_check_cert(default_cert, tmp_path, capsys):
    """Neither reaches the certificate unchecked: ``check-cert`` exits 5."""
    data = json.loads(certificate_to_json(default_cert))
    _first_graph(data)["name"] = [1, {"a": 2}]
    data["notes"] = [1, None]
    assert check_certificate_detailed(data) == [
        "malformed certificate: graph name must be a string, not list"
    ]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check-cert", str(path)]) == cli.EXIT_REFUTED
    assert capsys.readouterr().err == (
        "malformed certificate: graph name must be a string, not list\n"
    )


def test_wrong_residue_script_rejected():
    # the esub residue signature (0, 4) demands premises that do not exist
    # when the first operand is the six-prism instead of an 18-vertex gadget
    lines = DEFAULT_SCRIPT.splitlines()[:4]
    lines.append("let F = esub(atlas(S)@o0-o1, D@B.B.o5-B.A.A.000)")
    with pytest.raises(ReplayError):
        replay_pipeline("\n".join(lines) + "\n")


def test_rule_free_bindings_yield_no_fact():
    cert = replay_pipeline("let G = ymerge(atlas(Q)@000)\n")
    assert cert.steps == ()
    assert cert.final_facts == ()


@pytest.mark.parametrize(
    "kind, vertex, edge, message",
    [
        ("no_factor_at_all", None, None, "unknown fact kind 'no_factor_at_all'"),
        (KIND_NO_FACTOR, 0, None, "fact kind no_factor vertex parameter mismatch"),
        (
            KIND_MINUS_VERTEX,
            None,
            None,
            "fact kind no_factor_minus_vertex vertex parameter mismatch",
        ),
        (KIND_NO_FACTOR, None, (0, 1), "fact kind no_factor edge parameter mismatch"),
        (KIND_AVOIDING, None, None, "fact kind no_factor_avoiding edge parameter mismatch"),
        (
            KIND_MINUS_VERTEX_AVOIDING,
            1,
            (0, 1),
            "fact edge must not touch the deleted vertex",
        ),
    ],
)
def test_fact_rejects_each_malformed_claim(kind, vertex, edge, message):
    with pytest.raises(CertificateError) as info:
        certify.Fact(kind, graph_hash(atlas("S")), 12, vertex, edge)
    assert str(info.value) == message


def test_a_fact_grounds_only_on_its_own_graph():
    fact = make_fact(atlas("S"), KIND_NO_FACTOR)
    assert fact.to_problem(atlas("S")).graph == atlas("S")
    with pytest.raises(CertificateError) as info:
        fact.to_problem(atlas("Q"))
    assert str(info.value) == "fact does not describe this graph"


def test_replay_skips_unnamed_statements(default_cert):
    """Bare expressions bind no name, so they add no graph, step or fact:
    the certificate is the same, byte for byte."""
    first, *rest = DEFAULT_SCRIPT.splitlines(keepends=True)
    script = "prism(6)\n" + first + "K\n" + "".join(rest) + "prism(6)\n"
    assert certificate_to_json(replay_pipeline(script)) == certificate_to_json(
        default_cert
    )


def test_verify_base_refutes_false_claims():
    g = atlas("K33")
    fact = make_fact(g, KIND_NO_FACTOR)
    with pytest.raises(FactRefuted):
        verify_base(fact, g, "s1")


def test_indeterminate_base_grounds_nothing(default_cert):
    # downgrading a BASE step's evidence must invalidate any final fact
    # that has no other support
    text = certificate_to_json(default_cert)
    data = json.loads(text)
    base_step = next(s for s in data["steps"] if s["rule"] == "BASE")
    supported = base_step["conclusion"]
    forged = {
        "format": data["format"],
        "graphs": data["graphs"],
        "steps": [dict(base_step, evidence={"verdict": "INDETERMINATE", "nodes": 1})],
        "finalFacts": [supported],
        "notes": [],
    }
    assert not check_certificate(forged)
    # with genuine UNSAT evidence the same shape is fine
    forged["steps"] = [base_step]
    assert check_certificate(forged)


def test_verify_base_residue_guard():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    fact = make_fact(g, KIND_NO_FACTOR)
    with pytest.raises(CertificateError):
        verify_base(fact, g, "s1")


def test_fact_parameters_resolve_in_subject(default_cert):
    data = certificate_to_dict(default_cert)
    for step, payload in zip(default_cert.steps, data["steps"]):
        fact = step.conclusion
        conclusion = payload["conclusion"]
        g = default_cert.graphs[fact.graph_hash]
        labels = data["graphs"][fact.graph_hash]["labels"]
        if fact.vertex is not None:
            assert 0 <= fact.vertex < g.n
            assert conclusion["vertexLabel"] == labels[fact.vertex]
            assert g.vertex_by_label(conclusion["vertexLabel"]) == fact.vertex
        if fact.edge is not None:
            assert fact.edge in g.edges
            assert conclusion["edgeLabels"] == [labels[v] for v in fact.edge]
            assert g.edge_by_labels(*conclusion["edgeLabels"]) == fact.edge
        assert fact.residue == fact.n % 6 == conclusion["residue"]


def test_graph_hash_is_stable_and_label_free():
    g1 = atlas("Q")
    g2 = atlas("Q").relabel([f"x{i}" for i in range(8)])
    assert graph_hash(g1) == graph_hash(g2)
    assert len(graph_hash(g1)) == 64
    assert graph_hash(g1) != graph_hash(atlas("S"))


def test_graph_hash_is_the_cached_edge_digest():
    """The hash is the SHA-256 of "n|u,v;..." over the sorted edges, kept
    on the graph, and keeping it changes neither equality nor hashing."""
    g = Graph.from_edges(5, [(3, 4), (0, 2), (1, 2), (0, 1)])
    fresh = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    before = hash(g)
    payload = "5|0,1;0,2;1,2;3,4"
    assert graph_hash(g) == hashlib.sha256(payload.encode()).hexdigest()
    assert graph_hash(g) is graph_hash(g) is g.digest
    assert hash(g) == before == hash(fresh)
    assert g == fresh and fresh == g
    assert {fresh: "x"}[g] == "x" and {g: "y"}[fresh] == "y"
    assert graph_hash(fresh) == graph_hash(g)


def test_family_members_replay():
    for member in (1, 2):
        cert = replay_pipeline(family_script(member))
        finals = {cert.graph_names[f.graph_hash]: f for f in cert.final_facts}
        assert finals["N"].kind == KIND_NO_FACTOR
        assert finals["N"].n == 72 + 12 * member
        assert check_certificate(cert)


def test_family_members_stay_in_class():
    from lambdapack import connectivity_at_least, is_bipartite, is_cubic
    from lambdapack.planarity import is_planar

    for member in (1, 2):
        n_graph = family(member).graph("N")
        assert is_cubic(n_graph)
        assert is_bipartite(n_graph)[0]
        assert is_planar(n_graph).planar
        assert connectivity_at_least(n_graph, 2)[0]


def test_certificate_payload_shape(default_cert):
    data = certificate_to_dict(default_cert)
    assert data["format"] == "lambdapack-certificate/1"
    step = data["steps"][0]
    assert set(step) == {
        "id", "rule", "premises", "conclusion", "sideConditions", "evidence",
    }
    assert all(
        h == graph_hash(default_cert.graphs[h]) and h == h.lower()
        for h in data["graphs"]
    )


#: SHA-256 of ``certificate_to_json(replay_pipeline())``: any change to the
#: certificate format or to a derivation shows here, not only in a diff
DEFAULT_CERT_SHA256 = "4289e2c05514ae34b039dd5921334223462939d60e3a35ccc09500f1078dd5e8"


def test_default_certificate_bytes_are_pinned(default_cert):
    text = certificate_to_json(default_cert)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_CERT_SHA256


#: side conditions each rule records besides op, its anchors and residues
RULE_FIELDS = {
    "R1": ("middle_edge",),
    "R2": ("marked_edge",),
    "R3": ("marked_edge",),
    "R4": ("x",),
    "R5": (),
    "R6": (),
}
ANCHOR_KEYS = {"R2": ("a",)}
VERTEX_ANCHOR_RULES = ("R2", "R3")
OTHER_OP = {"ebridge": "esub", "esub": "ebridge", "vsub": "ymerge", "ymerge": "vsub"}


def _mutation_cases():
    for rule, fields in RULE_FIELDS.items():
        mutations = ["op", "residues", *fields, "extra premise", "evidence"]
        if rule in VERTEX_ANCHOR_RULES:
            anchor_mutations = ("vertex", "ports")
        else:
            anchor_mutations = ("edge", "orientation")
        for key in ANCHOR_KEYS.get(rule, ("a", "b")):
            mutations += [f"{key}.{m}" for m in anchor_mutations]
        for mutation in mutations:
            yield rule, mutation


def _mutate(data: dict, step: dict, mutation: str) -> None:
    side = step["sideConditions"]
    if mutation == "op":
        side["op"] = OTHER_OP[side["op"]]
    elif mutation == "evidence":
        step["evidence"] = {"verdict": "SAT"}
    elif mutation == "extra premise":
        earlier = [s["id"] for s in data["steps"][: data["steps"].index(step)]]
        fresh = [i for i in earlier if i not in step["premises"]]
        step["premises"].append((fresh or earlier or [step["id"]])[0])
    elif "." in mutation:
        key, what = mutation.split(".")
        anchor = side[key]
        operand = data["graphs"][anchor["graph"]]
        if what == "vertex":
            w = (anchor["vertex"] + 1) % operand["n"]
            anchor["vertex"] = w
            anchor["ports"] = sorted(
                v for e in operand["edges"] if w in e for v in e if v != w
            )
        elif what == "ports":
            anchor["ports"] = anchor["ports"][1:] + anchor["ports"][:1]
        elif what == "edge":
            anchor["edge"] = next(
                e for e in operand["edges"] if e != sorted(anchor["edge"])
            )
        else:
            anchor["edge"] = anchor["edge"][::-1]
    elif isinstance(side[mutation], list):
        side[mutation] = [side[mutation][0] + 1, *side[mutation][1:]]
    else:
        side[mutation] += 1


def test_mutation_cases_cover_every_side_condition(default_cert):
    for step in default_cert.steps:
        if step.rule != "BASE":
            keys = ANCHOR_KEYS.get(step.rule, ("a", "b"))
            expected = {"op", "residues", *keys, *RULE_FIELDS[step.rule]}
            assert set(step.side_conditions) == expected


@pytest.mark.parametrize("rule,mutation", list(_mutation_cases()))
def test_rule_step_mutation_is_rejected(default_cert, rule, mutation):
    data = json.loads(certificate_to_json(default_cert))
    assert check_certificate(data)
    step = next(s for s in data["steps"] if s["rule"] == rule)
    _mutate(data, step, mutation)
    assert not check_certificate(data)


#: edits of a BASE step's evidence, and whether a plain check catches them
#: (a well-formed but wrong node count needs the strict re-run)
BASE_EVIDENCE_MUTATIONS = {
    "nodes forged": (lambda ev: {**ev, "nodes": 999999}, False),
    "nodes negative": (lambda ev: {**ev, "nodes": -1}, True),
    "nodes not an int": (lambda ev: {**ev, "nodes": str(ev["nodes"])}, True),
    "nodes a bool": (lambda ev: {**ev, "nodes": True}, True),
    "nodes missing": (lambda ev: {"verdict": ev["verdict"]}, True),
    "extra key": (lambda ev: {**ev, "extra": 1}, True),
}


@pytest.mark.parametrize("mutation", sorted(BASE_EVIDENCE_MUTATIONS))
def test_base_step_mutation_is_rejected(default_cert, mutation):
    data = json.loads(certificate_to_json(default_cert))
    assert check_certificate(data, strict=True)
    step = next(s for s in reversed(data["steps"]) if s["rule"] == "BASE")
    change, plain_catches = BASE_EVIDENCE_MUTATIONS[mutation]
    step["evidence"] = change(step["evidence"])
    assert check_certificate(data) is not plain_catches
    assert not check_certificate(data, strict=True)


def _forge_base_label(data: dict) -> None:
    step = next(
        s for s in data["steps"] if s["rule"] == "BASE" and "vertex" in s["conclusion"]
    )
    step["conclusion"]["vertexLabel"] = "NOT.A.LABEL"
    data["finalFacts"].append(step["conclusion"])


def _forge_edge_labels(data: dict) -> None:
    fact = next(f for f in data["finalFacts"] if "edge" not in f)
    fact["edgeLabels"] = ["A.000", "B.000"]


def _forge_extra_key(data: dict) -> None:
    data["finalFacts"][-1]["extra"] = 1


def _forge_float_count(data: dict) -> None:
    data["finalFacts"][-1]["n"] = float(data["finalFacts"][-1]["n"])


#: payloads that describe a valid chain but are not what the certifier
#: writes: every label is read from the graph table, every key is known
FORGED_PAYLOADS = {
    "BASE conclusion with a foreign vertex label, cited as final": _forge_base_label,
    "edge labels on a final fact without an edge": _forge_edge_labels,
    "extra key in a final fact": _forge_extra_key,
    "vertex count written as a float": _forge_float_count,
}


@pytest.mark.parametrize("forgery", sorted(FORGED_PAYLOADS))
def test_forged_fact_payload_is_rejected(default_cert, forgery):
    data = json.loads(certificate_to_json(default_cert))
    FORGED_PAYLOADS[forgery](data)
    assert not check_certificate(data)
    assert not check_certificate(data, strict=True)
    assert not check_certificate(json.dumps(data))


def _base_step_with_vertex(data: dict) -> dict:
    return next(
        s for s in data["steps"] if s["rule"] == "BASE" and "vertex" in s["conclusion"]
    )


def _shift_n(step: dict) -> None:
    # same residue, so only the rebuilt conclusion can tell
    step["conclusion"]["n"] += 6


def _move_deleted_vertex(step: dict) -> None:
    problem = step["sideConditions"]["problem"]
    problem["deleted_vertices"] = [problem["deleted_vertices"][0] + 1]


#: edits of a BASE step besides its evidence; each makes the step differ
#: from the one its own conclusion and evidence rebuild
BASE_STEP_MUTATIONS = {
    "premise cited": lambda step: step["premises"].append("s1"),
    "vertex count": _shift_n,
    "problem encoding": _move_deleted_vertex,
    "problem mode": lambda step: step["sideConditions"]["problem"].update(mode="MAX"),
}


@pytest.mark.parametrize("mutation", sorted(BASE_STEP_MUTATIONS))
def test_base_step_rebuild_mismatch_is_rejected(default_cert, mutation):
    data = json.loads(certificate_to_json(default_cert))
    BASE_STEP_MUTATIONS[mutation](_base_step_with_vertex(data))
    assert not check_certificate(data)
    assert not check_certificate(data, strict=True)


@pytest.mark.parametrize("member", [0, 1])
def test_deep_replay_grounds_every_rule_fact(member):
    cert = replay_pipeline(family_script(member), deep=True)
    rule_facts = [s.conclusion for s in cert.steps if s.rule != "BASE"]
    grounded = {
        s.conclusion for s in cert.steps
        if s.rule == "BASE" and s.evidence["verdict"] == "UNSAT"
    }
    assert len(rule_facts) == 6
    assert set(rule_facts) <= grounded
    assert check_certificate(cert, strict=True)
    assert check_certificate(certificate_to_json(cert), strict=True)


@pytest.mark.parametrize("member", range(4))
def test_pipeline_accessors_name_the_certified_facts(member):
    cert = replay_pipeline(family_script(member))
    facts = {
        cert.graph_names[s.conclusion.graph_hash]: s.conclusion
        for s in cert.steps
        if s.rule != "BASE"
    }
    pipe = family(member)
    assert facts["K"].edge == pipe.middle_edge_of_k()
    assert facts["H"].vertex == pipe.marked_vertex_of_h()
    assert facts["H"].edge == pipe.marked_edge_of_h()
    assert facts["D"].vertex == pipe.marked_vertex_of_d()
    assert facts["F"].edge == pipe.marked_edge_of_f()
    for name in facts:
        assert facts[name].graph_hash == graph_hash(pipe.graph(name))


def test_replay_fails_when_any_grounding_search_runs_out():
    # the BASE searches of the default pipeline take 1, 138, 6, 49, 54 and
    # 97 nodes; without ``deep`` only those of at most 46 live vertices run
    budget = Budget(max_nodes=50)
    cert = replay_pipeline(base_budget=budget)
    assert {s.evidence["verdict"] for s in cert.steps if s.rule == "BASE"} == {"UNSAT"}
    with pytest.raises(ReplayError, match="ran out of budget on 54 vertices") as exc:
        replay_pipeline(base_budget=budget, deep=True)
    assert exc.value.__cause__ is None
    with pytest.raises(ReplayError, match="ran out of budget on 45 vertices") as exc:
        replay_pipeline(base_budget=Budget(max_nodes=10))
    assert exc.value.__cause__ is None


@pytest.mark.parametrize("depth", [1000, 100_000])
def test_deeply_nested_certificate_text_is_malformed(depth):
    text = "[" * depth + "]" * depth
    with pytest.raises(GraphError, match="invalid JSON"):
        certificate_from_json(text)
    problems = check_certificate_detailed(text)
    assert len(problems) == 1
    assert problems[0].startswith("malformed certificate: invalid JSON")
    assert not check_certificate(text)


def _step(data: dict, rule: str) -> dict:
    return next(s for s in data["steps"] if s["rule"] == rule)


def _drop_an_edge(data: dict) -> str:
    h = sorted(data["graphs"])[0]
    data["graphs"][h]["edges"].pop()
    return f"graph table entry {h[:12]} does not match its hash"


def _unknown_rule(data: dict) -> str:
    step = _step(data, "R6")
    step["rule"] = "R7"
    return f"step {step['id']}: unknown rule 'R7'"


def _sat_base_verdict(data: dict) -> str:
    step = _step(data, "BASE")
    step["evidence"]["verdict"] = "SAT"
    return f"step {step['id']}: BASE evidence verdict 'SAT' is not probative"


def _lost_side_condition(data: dict) -> str:
    step = _step(data, "R6")
    del step["sideConditions"]["a"]
    return f"step {step['id']}: malformed step (KeyError('a'))"


def _operand_of_wrong_residue(data: dict) -> str:
    # the 12-vertex six-prism holds the edge (0, 1) that R1's cube operand does
    step = _step(data, "R1")
    step["sideConditions"]["a"]["graph"] = next(
        h for h, g in data["graphs"].items() if g["n"] == 12
    )
    return f"step {step['id']}: R1 needs operand residues (2, 2) mod 6, got (0, 2)"


def _non_cubic_operand(data: dict) -> str:
    # an 8-cycle has the residue R1 asks for, but degree 2
    cycle = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    data["graphs"][graph_hash(cycle)] = {
        "name": "",
        "n": 8,
        "edges": [list(e) for e in cycle.sorted_edges()],
        "labels": list(cycle.labels),
    }
    step = _step(data, "R1")
    step["sideConditions"]["a"]["graph"] = graph_hash(cycle)
    return f"step {step['id']}: rule requires cubic operands"


CHECKER_REJECTIONS = {
    "graph entry off its hash": _drop_an_edge,
    "operand of the wrong residue": _operand_of_wrong_residue,
    "operand not cubic": _non_cubic_operand,
    "unknown rule": _unknown_rule,
    "SAT base verdict": _sat_base_verdict,
    "rule step without a side condition": _lost_side_condition,
}


@pytest.mark.parametrize("case", sorted(CHECKER_REJECTIONS))
def test_checker_names_each_rejection(default_cert, case):
    data = json.loads(certificate_to_json(default_cert))
    expected = CHECKER_REJECTIONS[case](data)
    problems = check_certificate_detailed(data)
    assert expected in problems
    assert not check_certificate(json.dumps(data))


def test_checker_rejects_a_step_whose_graph_is_missing(default_cert):
    base = next(s for s in default_cert.steps if s.rule == "BASE")
    cert = Certificate({}, {}, (base,), ())
    assert check_certificate_detailed(cert) == [
        f"step {base.step_id}: conclusion graph missing from table"
    ]


K_SCRIPT = "let K = ebridge(atlas(Q)@000-001, atlas(Q)@000-001)\n"


def _patch_r1(monkeypatch, **row) -> None:
    """Replace R1 in the rule table that replay reads; the checker keeps
    reading the rows it was imported with."""
    r1 = dataclasses.replace(certify.RULES[0], **row)
    monkeypatch.setattr(certify, "RULES", (r1, *certify.RULES[1:]))


def test_a_false_rule_conclusion_is_refuted_by_replay(monkeypatch, tmp_path, capsys):
    # K has factors, and every one of them avoids the middle edge
    _patch_r1(monkeypatch, conclusion=lambda a, d, p: (KIND_AVOIDING, None, d.middle_edge))
    with pytest.raises(ReplayError) as exc:
        replay_pipeline(K_SCRIPT)
    assert isinstance(exc.value.__cause__, FactRefuted)
    script = tmp_path / "k.lp"
    script.write_text(K_SCRIPT)
    assert cli.main(["certify", "--pipeline", str(script)]) == cli.EXIT_REFUTED
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: base search refuted no_factor_avoiding on K")


def test_a_side_condition_the_checker_rebuilds_otherwise_fails_the_self_check(
    monkeypatch, tmp_path, capsys
):
    _patch_r1(monkeypatch, extra=lambda a, d, p: {"middle_edge": [0, 1]})
    script = tmp_path / "k.lp"
    script.write_text(K_SCRIPT)
    assert cli.main(["certify", "--pipeline", str(script)]) == cli.EXIT_REFUTED
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "self-check failed: step s1: R1 step does not match its rebuilt side conditions\n"
