"""Command-line interface: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lambdapack import cli, dsl, io as gio
from lambdapack.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_REFUTED,
    main,
)
from lambdapack.certify import certificate_to_json, replay_pipeline
from lambdapack.graph import Graph
from lambdapack.packing import PackingResult, SolveStats
from lambdapack.pipeline import DEFAULT_SCRIPT


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_atlas_lists_named_graphs(capsys):
    code, out, _ = run_cli(capsys, "atlas")
    assert code == EXIT_OK
    assert "Q" in out and "vertices=  8" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_atlas_output_file_equals_stdout(tmp_path, capsys, fmt):
    out_path = tmp_path / "atlas.txt"
    _, out, _ = run_cli(capsys, "atlas", "--format", fmt)
    code, written, _ = run_cli(capsys, "atlas", "--format", fmt, "--output", str(out_path))
    assert (code, written) == (EXIT_OK, "")
    assert out_path.read_text() == out


def test_atlas_json(capsys):
    code, out, _ = run_cli(capsys, "atlas", "--format", "json")
    rows = json.loads(out)
    assert {"name": "Q", "vertices": 8, "edges": 12} in rows


def test_build_expr_json(capsys):
    code, out, _ = run_cli(capsys, "build", "--expr", "atlas(Q)")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == 8


def test_build_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "build", "--expr", "vsub(Q")
    assert code == EXIT_PARSE
    assert "column" in err


def test_check_cube(capsys):
    code, out, _ = run_cli(capsys, "check", "--expr", "atlas(Q)")
    assert code == EXIT_OK
    assert "cubic: True" in out
    assert "bipartite: True" in out
    assert "planar: True" in out
    assert "3-connected: True" in out


#: bare-JSON graphs that fail 2- or 3-connectivity in different ways
SEPARATOR_GRAPHS = {
    "cut_vertex": {"n": 5, "edges": [[0, 1], [0, 2], [1, 2], [2, 3], [2, 4], [3, 4]]},
    "separating_pair": {
        "n": 6,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [1, 4]],
    },
    "two_components": {"n": 5, "edges": [[0, 1], [0, 2], [1, 2], [3, 4]]},
}

#: SHA-256 of ``check --format json`` stdout, separators included
CHECK_REPORT_SHA256 = {
    "N": "48dcc5169bf5192a2214b0196ec3291975a03702220a71c855fc2e9f4cf712ab",
    "R": "94b8913ad6af50768db5b7ac7d296ade92a065db60481c92c748e2c200ce5e52",
    "atlas(K33)": "83e7e837b730c976412b56dee61bfc0d12bf3aaf996505a64a2defea3d137001",
    "prism(9)": "8896e8129513a724ba356ea141ac777cfe858b37f435b095534e1bbd7117dae6",
    "cut_vertex": "19773699d3b09c7d631df1cf9289238cc9e6e0500fcfe99373a928a3dfe45064",
    "separating_pair": (
        "a5205441f9d2a7dc865d3656965fe63dbfc472ccf4f7612f4cea38bdf78e9219"
    ),
    "two_components": (
        "26effe024529f16cdc18ea35f7763cdb1c5a5d08475a9fcca14fef239f577bd4"
    ),
}


@pytest.mark.parametrize("name", sorted(CHECK_REPORT_SHA256))
def test_check_json_report_bytes_are_pinned(tmp_path, capsys, name):
    if name in ("N", "R"):
        source = tmp_path / "pipeline.lp"
        source.write_text(DEFAULT_SCRIPT)
        args = ("--script", str(source), *(["--name", "R"] if name == "R" else []))
    elif name in SEPARATOR_GRAPHS:
        source = tmp_path / f"{name}.json"
        source.write_text(json.dumps(SEPARATOR_GRAPHS[name]))
        args = ("--input", str(source))
    else:
        args = ("--expr", name)
    code, out, _ = run_cli(capsys, "check", *args, "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_REPORT_SHA256[name]


def test_solve_max_on_k4(capsys):
    code, out, _ = run_cli(capsys, "solve", "--expr", "atlas(K4)", "--max")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "OPTIMUM" and data["value"] == 1


def test_solve_factor_with_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve",
        "--expr", "ebridge(Q@e1, Q@e1)",
        "--factor",
        "--force-edge", "z1-z2",
    )
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "UNSAT"


def test_solve_target_with_forced_edge(capsys):
    args = ("solve", "--expr", "ebridge(Q@e1, Q@e1)", "--max", "--force-edge", "z1-z2")
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    best = json.loads(out)
    assert best["verdict"] == "OPTIMUM"
    code, out, _ = run_cli(capsys, *args, "--target", "5")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == ("SAT" if best["value"] >= 5 else "UNSAT")


DELETE_TWO = ["--delete-vertex", "0", "--delete-vertex", "1"]


@pytest.mark.parametrize(
    "file_mode, flags, expr, expr_flags",
    [
        ("FACTOR", ["--max"], "atlas(Q)", ["--max"]),
        ("FACTOR", DELETE_TWO, "atlas(Q)", ["--factor", *DELETE_TWO]),
        ("MAX", ["--factor"], "atlas(S)", ["--factor"]),
        ("MAX", ["--factor"], "atlas(Q)", None),
    ],
)
def test_solve_flags_apply_before_the_problem_file_is_validated(
    tmp_path, capsys, file_mode, flags, expr, expr_flags
):
    """The problem is validated once, with the flags applied: a FACTOR file
    of the 8-vertex cube solves under --max or with two vertices deleted,
    as the same flags on --expr do, and a MAX file of it fails under
    --factor."""
    data = {"graph": gio.to_json_dict(dsl.build(expr)), "mode": file_mode}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    got = run_cli(capsys, "solve", "--problem", str(path), *flags)
    if expr_flags is None:
        assert got[0] == EXIT_PRECONDITION
        assert "divisible by 3, got 8" in got[2]
    else:
        assert got == run_cli(capsys, "solve", "--expr", expr, *expr_flags)


def test_delete_vertex_takes_a_label_where_no_id_is_given(capsys):
    plain = ("solve", "--expr", "atlas(S)", "--max")
    by_id = run_cli(capsys, *plain, "--delete-vertex", "0", "--delete-vertex", "9")
    assert by_id[0] == EXIT_OK
    by_label = run_cli(capsys, *plain, "--delete-vertex", "o0", "--delete-vertex", "i3")
    assert by_label[:2] == by_id[:2]


@pytest.mark.parametrize("mode", ["--factor", "--max"])
def test_delete_edge_is_a_second_name_of_avoid_edge(tmp_path, capsys, mode):
    """An edge is excluded one way, so ``--delete-edge`` gives what
    ``--avoid-edge`` gives, and ``deletedEdges`` what ``forbiddenEdges``
    gives, byte for byte."""
    plain = ("solve", "--expr", "atlas(S)", mode)
    avoided = run_cli(capsys, *plain, "--avoid-edge", "0,1")
    assert avoided[0] == EXIT_OK and avoided[1] != run_cli(capsys, *plain)[1]
    assert run_cli(capsys, *plain, "--delete-edge", "0,1") == avoided
    graph = gio.to_json_dict(dsl.build("atlas(S)"))
    for key in ("deletedEdges", "forbiddenEdges"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"graph": graph, "mode": mode[2:].upper(), key: [[1, 0]]}))
        assert run_cli(capsys, "solve", "--problem", str(path)) == avoided


def test_solve_precondition_exit(capsys):
    # FACTOR on 4 vertices: residue violation
    code, _, err = run_cli(capsys, "solve", "--expr", "atlas(K4)", "--factor")
    assert code == EXIT_PRECONDITION


def test_solve_negative_target_is_precondition(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", "--target", "-1"
    )
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "target must be >= 0" in err


def test_solve_stderr_names_exhausted_budget(capsys):
    args = ("solve", "--expr", "ebridge(Q@e1, Q@e1)", "--max")
    _, _, err = run_cli(capsys, *args)
    assert "budget exhausted" not in err
    code, _, err = run_cli(capsys, *args, "--budget-nodes", "1")
    assert code == EXIT_BUDGET
    assert "explored 1 nodes (node budget exhausted)" in err


def test_zero_node_budget_is_honoured(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", "--budget-nodes", "0"
    )
    assert code == EXIT_BUDGET
    assert "(node budget exhausted)" in err


def test_zero_second_budget_is_honoured(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", "--budget-seconds", "0"
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["verdict"] == "INDETERMINATE"
    assert "explored 0 nodes (time budget exhausted)" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--budget-seconds", "nan"), ("--budget-seconds", "-1"), ("--budget-nodes", "-5")],
)
def test_invalid_budget_is_a_precondition_error(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", flag, value
    )
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error: budget max_") and "must be >= 0" in err


@pytest.mark.parametrize(
    "flag, note", [("--budget-nodes", "node"), ("--budget-seconds", "time")]
)
def test_zero_budget_is_honoured_for_target(capsys, flag, note):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", "--target", "2", flag, "0"
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["verdict"] == "INDETERMINATE"
    assert f"explored 0 nodes ({note} budget exhausted)" in err


def test_sample_test_bound_is_deterministic(capsys):
    args = ("sample", "-n", "60", "--count", "3", "--seed", "1", "--test-bound")
    code, out1, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    assert json.loads(out1)["violations"] == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_loop_edge_is_precondition(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", "--force-edge", "3,3"
    )
    assert code == EXIT_PRECONDITION
    assert out == "" and "loop edge" in err


def test_seams_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--expr", "atlas(Q)", "--max", "--seams", "off"])
    assert exc.value.code == EXIT_PARSE


def test_solve_output_ignores_labels(tmp_path, capsys):
    """N from its script and N with labels v0..v71 solve the same way."""
    script = tmp_path / "pipeline.lp"
    script.write_text(DEFAULT_SCRIPT)
    n_graph = dsl.run_script(DEFAULT_SCRIPT)[-1].graph
    bare = tmp_path / "n.json"
    bare.write_text(gio.to_json(Graph.from_edges(n_graph.n, n_graph.sorted_edges())))
    assert "v71" in bare.read_text() and "z1" not in bare.read_text()
    code, labelled_out, _ = run_cli(capsys, "solve", "--script", str(script), "--factor")
    assert code == EXIT_OK
    code, bare_out, _ = run_cli(capsys, "solve", "--input", str(bare), "--factor")
    assert code == EXIT_OK
    assert json.loads(bare_out)["verdict"] == "UNSAT"
    assert labelled_out == bare_out


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("check", "--input", '{"n": 2, "edges": [[0, 1]], "labels": {"x": "a"}}'),
        ("check", "--input", '{"n": 2, "edges": [[0, 1]], "labels": {"+1": "a"}}'),
        (
            "solve",
            "--problem",
            '{"graph": {"n": 3, "edges": [[0, 1], [1, 2]], "labels": ["a"]}}',
        ),
    ],
)
def test_malformed_labels_are_parse_errors(tmp_path, capsys, command, flag, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert code == EXIT_PARSE
    assert out == "" and "malformed graph JSON" in err


@pytest.mark.parametrize(
    "command, flag, text, message",
    [
        ("check", "--input", '{"n": 3.9, "edges": [[0.7, 1.2], [1, 2]]}', "graph"),
        ("check", "--input", '{"n": 3, "edges": [[true, 1], [1, 2]]}', "graph"),
        (
            "solve",
            "--problem",
            '{"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "forcedEdges": [[0.5, 1.9]]}',
            "problem",
        ),
        (
            "solve",
            "--problem",
            '{"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "deletedVertices": ["0"]}',
            "problem",
        ),
    ],
)
def test_non_integer_json_numbers_are_parse_errors(
    tmp_path, capsys, command, flag, text, message
):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert code == EXIT_PARSE
    assert out == "" and f"malformed {message} JSON" in err


def test_unwritable_output_is_parse_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli(
        capsys, "build", "--expr", "atlas(Q)", "--output", str(target)
    )
    assert code == EXIT_PARSE
    assert out == "" and err.startswith("error: ")


def test_out_of_range_deleted_vertex_is_precondition(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", "--delete-vertex", "99"
    )
    assert code == EXIT_PRECONDITION
    problem = tmp_path / "p.json"
    graph = gio.to_json_dict(dsl.build("atlas(Q)"))
    problem.write_text(json.dumps({"graph": graph, "deletedVertices": [99]}))
    code, _, file_err = run_cli(capsys, "solve", "--problem", str(problem))
    assert code == EXIT_PRECONDITION
    assert err == file_err
    # a loop edge is a precondition violation from a flag and from a file
    code, _, err = run_cli(
        capsys, "solve", "--expr", "atlas(Q)", "--max", "--force-edge", "3,3"
    )
    assert code == EXIT_PRECONDITION
    problem.write_text(json.dumps({"graph": graph, "forcedEdges": [[3, 3]]}))
    code, _, file_err = run_cli(capsys, "solve", "--problem", str(problem))
    assert code == EXIT_PRECONDITION
    assert err == file_err == "error: loop edge at vertex 3\n"


# F built on the six-prism: the esub rule's R4 premise does not exist
INAPPLICABLE_RULE_SCRIPT = "\n".join(
    DEFAULT_SCRIPT.splitlines()[:4]
    + ["let F = esub(atlas(S)@o0-o1, D@B.B.o5-B.A.A.000)", ""]
)


#: JSON nested deeper than the parser's recursion allows
DEEP_JSON = "[" * 10_000 + "]" * 10_000

#: more digits than Python converts from text to an int, in JSON and in
#: the construction language
LONG_DIGITS = "9" * 5000
LONG_INT_JSON = '{"n": 4, "edges": [[0, 1]], "x": %s}' % LONG_DIGITS
LONG_INT_PROBLEM = (
    '{"graph": {"n": 4, "edges": [[0, 1]]}, "deletedVertices": [%s]}' % LONG_DIGITS
)


def _deep_expr(depth: int = 250) -> str:
    """vsub nested ``depth`` calls deep through its first operand."""
    expr, label = "K4", "v1"
    for _ in range(depth):
        expr, label = f"vsub({expr}@{label}, K4@v0)", "B.v1"
    return expr


@pytest.mark.parametrize(
    "argv, file_text, code, message",
    [
        (("check", "--input", "{file}"), "{not json", EXIT_PARSE, "invalid JSON"),
        (
            ("solve", "--expr", "atlas(Q)", "--force-edge", "000-nope"),
            None,
            EXIT_PARSE,
            "no vertex labeled 'nope'",
        ),
        (
            ("certify", "--pipeline", "{file}"),
            INAPPLICABLE_RULE_SCRIPT,
            EXIT_PRECONDITION,
            "R4 premise missing",
        ),
        (
            ("certify", "--budget-nodes", "1"),
            None,
            EXIT_BUDGET,
            "strict base check ran out of budget",
        ),
        (
            ("certify", "--budget-nodes", "10"),
            None,
            EXIT_BUDGET,
            "ran out of budget on 45 vertices",
        ),
        (("build", "--input", "{file}"), DEEP_JSON, EXIT_PARSE, "invalid JSON"),
        (("check", "--input", "{file}"), DEEP_JSON, EXIT_PARSE, "invalid JSON"),
        (
            ("export", "--input", "{file}", "--to", "dot"),
            DEEP_JSON,
            EXIT_PARSE,
            "invalid JSON",
        ),
        (("solve", "--problem", "{file}"), DEEP_JSON, EXIT_PARSE, "invalid JSON"),
        (("build", "--input", "{file}"), LONG_INT_JSON, EXIT_PARSE, "invalid JSON"),
        (("check", "--input", "{file}"), LONG_INT_JSON, EXIT_PARSE, "invalid JSON"),
        (
            ("export", "--input", "{file}", "--to", "dot"),
            LONG_INT_JSON,
            EXIT_PARSE,
            "invalid JSON",
        ),
        (("solve", "--problem", "{file}"), LONG_INT_PROBLEM, EXIT_PARSE, "invalid JSON"),
        (
            ("build", "--expr", f"prism({LONG_DIGITS})"),
            None,
            EXIT_PARSE,
            "integer of 5000 digits is too long (line 1, column 7)",
        ),
        (
            ("check", "--expr", f"esub(Q@e{LONG_DIGITS}, Q@e1)"),
            None,
            EXIT_PARSE,
            "integer of 5000 digits is too long (line 1, column 9)",
        ),
        (("build", "--expr", _deep_expr()), None, EXIT_PARSE, "nested more than"),
        (("check", "--script", "{file}"), _deep_expr(), EXIT_PARSE, "nested more than"),
        (
            ("build", "--expr", "atlas(Q)", "--name", "foo"),
            None,
            EXIT_PARSE,
            "--name selects a binding of --script",
        ),
        (
            ("solve", "--problem", "{file}", "--name", "N"),
            '{"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}}',
            EXIT_PARSE,
            "--problem replaces",
        ),
        (
            ("check", "--expr", "atlas(Q)", "--input", "{file}"),
            None,
            EXIT_PARSE,
            "give exactly one of --input, --expr, --script",
        ),
        (("build",), None, EXIT_PARSE, "give exactly one of --input, --expr, --script"),
        (("check", "--script", "{file}"), None, EXIT_PARSE, "script is empty"),
        (
            ("solve", "--script", "{file}", "--name", "Z", "--max"),
            "let K = atlas(Q)\n",
            EXIT_PARSE,
            "script binds no name 'Z'",
        ),
        (
            ("sample", "-n", "5", "--seed", "1"),
            None,
            EXIT_PRECONDITION,
            "cubic sampling needs even n >= 4",
        ),
    ],
    ids=[
        "malformed-json",
        "unknown-label",
        "inapplicable-rule",
        "certify-budget",
        "certify-budget-45-vertices",
        "build-deep-json",
        "check-deep-json",
        "export-deep-json",
        "solve-deep-problem",
        "build-long-int-json",
        "check-long-int-json",
        "export-long-int-json",
        "solve-long-int-problem",
        "build-long-prism-size",
        "check-long-edge-index",
        "build-deep-expr",
        "check-deep-script",
        "build-name-without-script",
        "solve-name-with-problem",
        "check-two-sources",
        "build-no-source",
        "check-empty-script",
        "solve-unknown-name",
        "sample-odd-n",
    ],
)
def test_exit_code_matrix(tmp_path, capsys, argv, file_text, code, message):
    """One invocation per error class not covered by another test here."""
    path = tmp_path / "input"
    path.write_text(file_text or "")
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == "" and err.startswith("error: ") and message in err


def test_deeply_nested_certificate_is_malformed(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(DEEP_JSON)
    code, out, err = run_cli(capsys, "check-cert", str(path))
    assert (code, out) == (EXIT_REFUTED, "")
    assert err.startswith("malformed certificate: invalid JSON")
    assert err.count("\n") == 1


def test_a_certificate_with_a_number_too_long_to_read_is_malformed(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text('{"format": %s}' % LONG_DIGITS)
    code, out, err = run_cli(capsys, "check-cert", str(path))
    assert (code, out) == (EXIT_REFUTED, "")
    assert err.startswith("malformed certificate: invalid JSON")
    assert err.count("\n") == 1


def test_missing_script_is_parse_error(capsys):
    code, out, _ = run_cli(capsys, "solve", "--script", "no-such-file", "--max")
    assert code == EXIT_PARSE


def test_solve_budget_indeterminate(tmp_path, capsys):
    script = tmp_path / "n.lp"
    script.write_text(
        "let K = ebridge(atlas(Q)@000-001, atlas(Q)@000-001)\n"
        "let R = ymerge(K@z1[z2,A.000,B.000])\n"
    )
    code, out, _ = run_cli(
        capsys,
        "solve", "--script", str(script), "--name", "R", "--max",
        "--budget-nodes", "20",
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["verdict"] == "INDETERMINATE"


def test_solve_output_is_deterministic(capsys):
    args = ("solve", "--expr", "atlas(S)", "--max")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_certify_and_check_cert(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, err = run_cli(capsys, "certify", "--output", str(cert_path))
    assert code == EXIT_OK
    assert "verified: no_factor on N (n=72)" in err
    data = json.loads(cert_path.read_text())
    assert data["format"] == "lambdapack-certificate/1"

    code, _, err = run_cli(capsys, "check-cert", str(cert_path))
    assert code == EXIT_OK
    assert "certificate valid" in err

    # tampering flips the exit code to refuted
    data["finalFacts"][-1]["graph"] = "0" * 64
    cert_path.write_text(json.dumps(data))
    code, _, _ = run_cli(capsys, "check-cert", str(cert_path))
    assert code == EXIT_REFUTED


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "null",
        "3",
        "{not json",
        '{"format": "lambdapack-certificate/1", "graphs": [], "steps": [],'
        ' "finalFacts": []}',
    ],
)
def test_check_cert_reports_wrongly_shaped_json(tmp_path, capsys, text):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text)
    code, out, err = run_cli(capsys, "check-cert", str(cert_path))
    assert code == EXIT_REFUTED
    assert out == "" and err.startswith("malformed certificate: ")


@pytest.mark.parametrize(
    "part, key, what", [("steps", "id", "step id"), ("finalFacts", "graph", "fact graph")]
)
def test_check_cert_reports_a_list_where_a_string_belongs(
    tmp_path, capsys, part, key, what
):
    """A list as a step id or as a final fact's graph is a malformed
    certificate (exit 5), not a TypeError on its way into a dict or set."""
    data = json.loads(certificate_to_json(replay_pipeline()))
    data[part][0][key] = ["x"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check-cert", str(cert_path))
    assert (code, out) == (EXIT_REFUTED, "")
    assert err == f"malformed certificate: {what} must be a string, not list\n"


def test_certify_custom_pipeline(tmp_path, capsys):
    script = tmp_path / "pipe.lp"
    script.write_text("let K = ebridge(atlas(Q)@000-001, atlas(Q)@000-001)\n")
    code, out, _ = run_cli(capsys, "certify", "--pipeline", str(script))
    assert code == EXIT_OK
    data = json.loads(out)
    assert [s["rule"] for s in data["steps"]] == ["R1", "BASE"]


def test_sample_bound(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "-n", "8", "--count", "5", "--seed", "7", "--test-bound"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["violations"] == 0
    assert all(row["satisfied"] for row in data["samples"])


def test_sample_fifty_of_fifty_meet_the_bound(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "-n", "16", "--count", "50", "--seed", "7", "--test-bound"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["violations"] == 0
    assert sum(1 for row in data["samples"] if row["satisfied"]) == 50
    assert all(row["bound"] == 4 for row in data["samples"])


def test_sample_bound_search_out_of_budget_is_no_violation(capsys):
    code, out, err = run_cli(
        capsys, "sample", "-n", "60", "--seed", "1", "--test-bound", "--budget-nodes", "0"
    )
    assert code == EXIT_BUDGET
    data = json.loads(out)
    assert data["violations"] == 0
    assert [row["satisfied"] for row in data["samples"]] == [False]
    assert "1 of 1 bound searches ran out of budget" in err


def test_sample_unsat_bound_search_is_a_violation(capsys, monkeypatch):
    """Only an exhaustive search refutes the bound, and a refutation
    outranks a search that ran out of budget."""
    verdicts = iter(["UNSAT", "INDETERMINATE", "SAT"])

    def fake_solve(problem, budget, target):
        return PackingResult(next(verdicts), None, None, SolveStats())

    monkeypatch.setattr(cli, "solve", fake_solve)
    code, out, _ = run_cli(
        capsys, "sample", "-n", "8", "--count", "3", "--seed", "1", "--test-bound"
    )
    assert code == EXIT_REFUTED
    data = json.loads(out)
    assert data["violations"] == 1
    assert [row["satisfied"] for row in data["samples"]] == [False, False, True]


def test_sample_negative_count_is_precondition(capsys):
    code, out, err = run_cli(capsys, "sample", "-n", "8", "--count", "-2", "--seed", "1")
    assert code == EXIT_PRECONDITION
    assert out == "" and err == "error: --count must be >= 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check-cert", "{file}"),
        ("check", "--input", "{file}"),
        ("check", "--script", "{file}"),
        ("solve", "--problem", "{file}"),
        ("certify", "--pipeline", "{file}"),
    ],
)
def test_input_file_that_is_not_utf8_is_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert code == EXIT_PARSE
    assert out == "" and err.startswith("error: ")


def test_sample_seed_determinism(capsys):
    args = ("sample", "-n", "10", "--count", "3", "--seed", "1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_export_round_trip(tmp_path, capsys):
    json_path = tmp_path / "g.json"
    dot_path = tmp_path / "g.dot"
    run_cli(capsys, "build", "--expr", "atlas(S)", "--output", str(json_path))
    code, _, _ = run_cli(
        capsys, "export", "--input", str(json_path), "--to", "dot",
        "--output", str(dot_path),
    )
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "export", "--input", str(dot_path), "--to", "json")
    assert code == EXIT_OK
    assert json.loads(out) == json.loads(json_path.read_text())


def run_module(module):
    """``python -m module atlas`` from this source checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, "atlas"],
        env=env,
        capture_output=True,
        text=True,
    )


def test_out_of_memory_is_one_error_line(tmp_path):
    """Inputs too large for the memory at hand exit 2 with the one line
    ``error: out of memory`` and no traceback.  Each runs at once in a
    child process whose own address space is capped at 512 MB, so the
    test process keeps its limits."""
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 100000000, "edges": []}')
    argvs = [
        ["check", "--input", str(huge)],  # fails building the default labels
        ["check", "--expr", "prism(99999999999999999999)"],
        # greedy misses once o1 and o2 are gone, so the search builds the
        # 200,000-vertex graph's adjacency masks (about 2.5 GB)
        [
            "solve", "--expr", "prism(100000)", "--factor",
            "--delete-vertex", "o1", "--delete-vertex", "o2",
        ],
    ]
    procs = [capped_cli(argv) for argv in argvs]
    for argv, proc in zip(argvs, procs):
        err = proc.communicate(timeout=120)[1]
        assert proc.returncode == EXIT_PARSE, (argv, err)
        assert "Traceback" not in err
        assert [x for x in err.splitlines() if x.startswith("error:")] == [
            "error: out of memory"
        ]


def capped_cli(argv, stdout=subprocess.DEVNULL):
    """``python -m lambdapack *argv`` from this source checkout, started in
    a child process whose own address space is capped at 512 MB."""
    resource = pytest.importorskip("resource")
    cap = 512 * 2**20
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "lambdapack", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_a_greedy_answer_builds_no_masks_on_a_large_graph():
    """MAX on the 200,000-vertex prism is answered by the lowest-id greedy,
    which reads adjacency lists, so it fits in 512 MB of address space;
    the adjacency masks alone would need about 2.5 GB."""
    proc = capped_cli(["solve", "--expr", "prism(100000)", "--max"], subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OK, err
    answer = json.loads(out)
    assert (answer["verdict"], answer["value"], answer["nodes"]) == ("OPTIMUM", 66_666, 0)


def test_console_script_entry_point():
    proc = run_module("lambdapack.cli")
    assert proc.returncode == 0
    assert "K4" in proc.stdout


def test_package_runs_as_a_module():
    proc = run_module("lambdapack")
    assert (proc.returncode, proc.stdout) == (0, run_module("lambdapack.cli").stdout)
    assert "K4" in proc.stdout


def test_module_prints_what_main_prints(capsys):
    """``python -m lambdapack`` runs ``__main__.py``, which exits with
    ``cli.main``'s code after printing what ``cli.main`` prints."""
    proc = run_module("lambdapack")
    assert (proc.returncode, proc.stdout) == (0, run_cli(capsys, "atlas")[1])


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    plain = ("solve", "--expr", "ebridge(Q@e1, Q@e1)", "--max")
    forced = (*plain, "--force-edge", "z1-z2")
    cli._parser.cache_clear()
    first = run_cli(capsys, *plain)  # the first call on a new parser
    assert json.loads(first[1])["value"] == 6
    cli._parser.cache_clear()
    # a forced edge appended in one call is not in the next call's default
    assert json.loads(run_cli(capsys, *forced)[1])["value"] == 5
    assert run_cli(capsys, *plain) == first
    # nor does an argparse error (exit 2) leave anything behind
    with pytest.raises(SystemExit) as exc:
        main([*forced, "--no-such-flag"])
    assert exc.value.code == EXIT_PARSE
    capsys.readouterr()
    assert run_cli(capsys, *plain) == first
    assert cli._parser() is cli._parser() and cli.make_parser() is not cli.make_parser()
