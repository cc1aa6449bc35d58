import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lambda_forge import cli
from lambda_forge.cli import main
from lambda_forge.clifford import CliffordTableau
from lambda_forge.field import FieldElem
from lambda_forge.gf2 import PauliPoint
from lambda_forge.pauli import QOperator
from lambda_forge.polytope import enumerate_vertices_n1, is_vertex, membership
from lambda_forge.simulate import descriptor_from_json, sample, steps_from_json
from helpers import certificate_json
from test_golden import certificate_inputs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


ALPHA0 = {
    "n": 2,
    "coeffs": {
        "II": "1", "IX": "-1/2", "XI": "1/2", "IZ": "-1/2", "IY": "-1/2",
        "XZ": "-1", "ZI": "1/2", "ZX": "-1", "YI": "-1/2", "YY": "1",
    },
}

A0A0 = {"n": 2, "coeffs": {a + b: "1" for a in "IXYZ" for b in "IXYZ"}}

#: |000><000| on three qubits: coefficient 1 on every Z-type label
ZEROS_3 = {"n": 3, "coeffs": {a + b + c: "1" for a in "IZ" for b in "IZ" for c in "IZ"}}

T_STATE = {
    "n": 1,
    "coeffs": {"I": "1", "X": {"a": "0", "b": "1/2"}, "Y": {"a": "0", "b": "1/2"}},
}


def test_membership_vertex(tmp_path, capsys):
    path = write_json(tmp_path / "a.json", ALPHA0)
    code, out = run(capsys, "membership", path, "--vertex")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["vertex"] is True and doc["payload"]["active_rank"] == 15


def test_membership_violation_exit_code(tmp_path, capsys):
    path = write_json(tmp_path / "aa.json", A0A0)
    code, out = run(capsys, "membership", path)
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "violation"
    assert doc["payload"]["violation_value"] == "-1/2"
    # the named Bell-type facet is recorded among the -1/2 values
    assert doc["payload"]["facet_values"]["-ZZ,-XX"] == "-1/2"


def test_documents_are_one_line_of_sorted_json(tmp_path, capsys):
    # the C encoder's layout: no indentation, sorted keys, one newline
    alpha0 = write_json(tmp_path / "a.json", ALPHA0)
    a0a0 = write_json(tmp_path / "aa.json", A0A0)
    t_state = write_json(tmp_path / "t.json", T_STATE)
    cases = (
        (("membership", alpha0), 0),
        (("membership", t_state), 0),
        (("membership", a0a0), 2),
        (("vertex", alpha0), 0),
        (("--float", "membership", alpha0, "--vertex"), 0),
        (("--float", "membership", a0a0), 2),
        (("vertex", str(tmp_path / "missing.json")), 1),
    )
    for argv, want in cases:
        code, out = run(capsys, *argv)
        assert code == want
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def _floats(obj):
    """obj with each exact number as a float, converted value by value:
    what --float did before it converted each distinct string once."""
    if isinstance(obj, dict):
        if set(obj) == {"a", "b"}:
            return float(FieldElem.from_json(obj))
        return {k: _floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floats(v) for v in obj]
    if isinstance(obj, str):
        try:
            return float(Fraction(obj))
        except ValueError:
            return obj
    return obj


def _oracle_document(argv, X):
    """The document the CLI wrote for a certificate command before the
    certificate wrote its own JSON text: the payload from
    `certificate_json`, laid out by ``json.dumps(..., sort_keys=True)``,
    its values rendered by `_floats` under --float."""
    as_float = argv[0] == "--float"
    command, flags = argv[as_float], argv[as_float + 1:]
    cert = membership(X)
    payload, status, fields = certificate_json(cert), "violation", {}
    if cert.is_member and (command == "vertex" or "--vertex" in flags):
        ok, rank = is_vertex(X, cert)
        fields = {"vertex": ok, "active_rank": rank}
    if cert.is_member:
        status, diagnostics = "ok", ""
        payload = {**fields, "active_facets": cert.active} if command == "vertex" else {**payload, **fields}
    else:
        diagnostics = {
            "membership": f"violated facet {cert.violation}",
            "vertex": f"not a member: facet {cert.violation}",
            "decompose": "not a polytope member",
        }[command]
    if as_float:
        payload = _floats(payload)
    doc = {"status": status, "payload": payload, "diagnostics": diagnostics}
    return cli.EXIT_CODES[status], json.dumps(doc, sort_keys=True) + "\n"


def test_certificate_documents_equal_the_oracle_documents(tmp_path, capsys):
    # every document that carries a facet table is written from the
    # certificate's own JSON text; byte for byte, it is the document the
    # dict oracle and json.dumps wrote, with and without --float
    inputs = certificate_inputs()
    qubit = enumerate_vertices_n1()
    t = QOperator.from_json(T_STATE)
    past_t = QOperator.from_json({"n": 1, "coeffs": {"I": "1", "X": {"a": "0", "b": "1"}}})
    v0, v1 = inputs["lifted_vertices"][:2]
    mix3 = v0.scale(FieldElem(Fraction(3, 8))) + v1.scale(FieldElem(Fraction(5, 8)))
    operators = [
        qubit[0], t, past_t, QOperator.from_labels(1, {"I": 1, "X": 3}),
        qubit[2].scale(FieldElem(Fraction(1, 4))) + qubit[5].scale(FieldElem(Fraction(3, 4))),
        *inputs["bad"][:2], *inputs["members"][:2], *inputs["mixtures"][:2], *inputs["t_t"],
        past_t.tensor(t),
        v0, v1, *inputs["lifted_bad"][:2], mix3, t.tensor(t).tensor(t),
        inputs["bad"][0].tensor(past_t),
    ]
    kinds = set()
    for i, X in enumerate(operators):
        path = write_json(tmp_path / f"op{i}.json", X.to_json())
        cert = membership(X)
        kinds.add((X.n, cert.is_member, cert._ys is not None))
        argvs = [["membership", path], ["membership", "--vertex", path], ["vertex", path]]
        if not cert.is_member:
            argvs.append(["decompose", path])
        for argv in argvs + [["--float", *argv] for argv in argvs]:
            assert run(capsys, *argv) == _oracle_document(argv, X), argv
    assert kinds == {(n, member, irrational) for n in (1, 2, 3)
                     for member in (True, False) for irrational in (True, False)}


def test_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out = run(capsys, "membership", str(bad))
    assert code == 1 and json.loads(out)["status"] == "error"
    path = write_json(tmp_path / "list.json", [1])
    for argv in (("simulate", path, "--exact"), ("membership", path)):
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert "ValueError" in doc["diagnostics"] and "object" in doc["diagnostics"]
    # coefficients of the wrong JSON type
    coeff = write_json(tmp_path / "coeff.json", {"n": 1, "coeffs": {"I": "1", "X": {"a": [1]}}})
    null = write_json(tmp_path / "null.json", {"n": 1, "coeffs": {"I": None}})
    circ = write_json(tmp_path / "circ.json", {
        "n": 1, "initial": {"type": "operator", "n": 1, "coeffs": ["I"]},
        "steps": [{"measure": "Z"}]})
    for argv in (("membership", coeff), ("vertex", null), ("simulate", circ, "--exact")):
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"].startswith("ValueError")


def test_duplicate_pauli_labels_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "dup.json",
                      {"n": 1, "coeffs": {"I": "1", "X": "1/2", " X": "1/2"}})
    for argv in (("vertex", path), ("membership", "--vertex", path), ("decompose", path)):
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"].startswith("ValueError: ")
        assert "'X' and ' X'" in doc["diagnostics"]


def test_usage_errors_exit_1_with_json(tmp_path, capsys):
    # argparse's own exit code 2 would read as a facet violation
    path = write_json(tmp_path / "t.json", T_STATE)
    cases = (
        (("vertex",), "required: operator"),
        (("simulate", path, "--shots", "abc"), "invalid int value: 'abc'"),
        (("frobnicate", path), "invalid choice: 'frobnicate'"),
        (("membership", path, "--bogus"), "unrecognized arguments: --bogus"),
        ((), "required: command"),
        # the identity sweeps are tier-1 tests (acceptance criteria 7-9), not commands
        (("lemma-check",), "invalid choice: 'lemma-check'"),
        (("orbit", "--verify-updates"), "unrecognized arguments: --verify-updates"),
    )
    for argv, words in cases:
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error" and doc["payload"] is None
        assert doc["diagnostics"].startswith("usage: lambda-forge")
        assert words in doc["diagnostics"]
    for argv in (["--help"], ["vertex", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        listed = capsys.readouterr().out
        assert "usage: lambda-forge" in listed and "lemma-check" not in listed


def test_missing_file(tmp_path, capsys):
    code, out = run(capsys, "membership", "/nonexistent/op.json")
    assert code == 1
    # a directory is no more readable than a missing file, as input or as --out
    for argv in (("membership", str(tmp_path)), ("orbit", "--out", str(tmp_path))):
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert "Is a directory" in doc["diagnostics"]


def test_enumerate_stabilizers(capsys):
    code, out = run(capsys, "enumerate-stabilizers", "2", "--counts-only")
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["count"] == 60


def test_vertex_command(tmp_path, capsys):
    mixed = {"n": 1, "coeffs": {"I": "1"}}
    path = write_json(tmp_path / "m.json", mixed)
    code, out = run(capsys, "vertex", path)
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["vertex"] is False


def test_cnc_command(tmp_path, capsys):
    doc = {
        "omega": ["II", "XI", "YI", "ZI"],
        "gamma": {"II": 0, "XI": 0, "YI": 1, "ZI": 0},
    }
    path = write_json(tmp_path / "c.json", doc)
    code, out = run(capsys, "cnc", path, "--update", "XI", "--outcome", "0")
    payload = json.loads(out)["payload"]
    assert code == 0
    assert payload["maximal"] is False
    assert len(payload["update"]["pieces"]) == 1
    code, out = run(capsys, "cnc", path, "--update", "ZI", "--outcome", "1")
    assert code == 0 and json.loads(out)["payload"]["update"]["outcome"] == 1
    for outcome in ("5", "-2", "2"):
        code, out = run(capsys, "cnc", path, "--update", "ZI", "--outcome", outcome)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"].startswith("usage: lambda-forge cnc") and "--outcome" in out


def test_cnc_command_reports_maximality_on_three_qubits(tmp_path, capsys):
    # 0 and seven pairwise anticommuting points: maximal, and every gamma
    # is consistent since no two nonzero points commute
    majorana = ["III", "XII", "ZII", "YXI", "YZI", "YYX", "YYZ", "YYY"]
    stabilizer = ["III", "ZII", "IZI", "ZZI", "IIZ", "ZIZ", "IZZ", "ZZZ"]
    for omega, maximal in ((majorana, True), (stabilizer, False)):
        path = write_json(tmp_path / "c3.json", {"omega": omega, "gamma": dict.fromkeys(omega, 0)})
        code, out = run(capsys, "cnc", path)
        assert code == 0 and json.loads(out)["payload"]["maximal"] is maximal


def test_simulate_exact_and_sample(tmp_path, capsys):
    circ = {"n": 1, "initial": {"type": "operator", **T_STATE},
            "steps": [{"measure": "X"}]}
    path = write_json(tmp_path / "circ.json", circ)
    code, out = run(capsys, "simulate", path, "--exact")
    rows = json.loads(out)["payload"]["distribution"]
    assert code == 0
    assert rows[0]["probability"] == {"a": "1/2", "b": "1/4"}
    code, out1 = run(capsys, "simulate", path, "--shots", "64", "--seed", "11")
    code, out2 = run(capsys, "simulate", path, "--shots", "64", "--seed", "11")
    assert out1 == out2  # byte-identical for fixed args and seed
    counts = json.loads(out1)["payload"]["counts"]
    assert sum(counts.values()) == 64


def test_simulate_counts_match_per_shot_formatting(tmp_path, capsys):
    # a conditional circuit whose skipped steps print "-": the counts equal
    # those of formatting every sampled transcript on its own
    circ = {"n": 1, "initial": {"type": "operator", **T_STATE},
            "steps": [{"measure": "X"}, {"measure": "Z", "if": {"0": 0}},
                      {"measure": "Y"}, {"measure": "X", "if": {"1": 1, "2": 0}}]}
    path = write_json(tmp_path / "circ.json", circ)
    code, out = run(capsys, "simulate", path, "--shots", "5000", "--seed", "17")
    assert code == 0
    init = descriptor_from_json(circ["initial"])
    per_shot = {}
    for t in sample(init, steps_from_json(circ["steps"], 1), seed=17, shots=5000):
        key = ",".join("-" if v is None else str(v) for v in t)
        per_shot[key] = per_shot.get(key, 0) + 1
    payload = {"mode": "sample", "seed": 17, "shots": 5000, "counts": dict(sorted(per_shot.items()))}
    assert out == json.dumps({"status": "ok", "payload": payload, "diagnostics": ""},
                             sort_keys=True) + "\n"
    assert any(key.startswith("1,-") for key in per_shot)  # step 1 skipped
    assert any(key.endswith(",-") for key in per_shot) and len(per_shot) > 4


def test_simulate_float_flag(tmp_path, capsys):
    circ = {"n": 1, "initial": {"type": "operator", **T_STATE},
            "steps": [{"measure": "X"}]}
    path = write_json(tmp_path / "circ.json", circ)
    code, out = run(capsys, "--float", "simulate", path, "--exact")
    rows = json.loads(out)["payload"]["distribution"]
    assert abs(rows[0]["probability"] - 0.8535533905932737) < 1e-12


def test_reused_parser_matches_fresh_parser(tmp_path, capsys):
    circ = {"n": 1, "initial": {"type": "operator", **T_STATE},
            "steps": [{"measure": "X"}]}
    path = write_json(tmp_path / "circ.json", circ)
    calls = [
        ["--float", "simulate", path, "--exact"],
        ["simulate", path, "--exact"],
        ["simulate", path, "--shots", "32", "--seed", "3"],
        ["simulate", path, "--shots", "32", "--seed", "4"],
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    exact = json.loads(reused[1][1])["payload"]["distribution"][0]["probability"]
    assert exact == {"a": "1/2", "b": "1/4"}  # --float did not stick
    seeds = [json.loads(out)["payload"]["seed"] for _, out in reused[2:]]
    assert seeds == [3, 4]


LIFT_CIRCUIT = {
    "n": 2,
    "initial": {
        "type": "lift",
        "u": {"x1": "+XX", "z1": "+ZI", "x2": "+IX", "z2": "+ZZ"},
        "sigma": {"generators": ["+X"]},
        "inner": {"type": "stabilizer", "generators": ["+Z"]},
    },
    "steps": [{"measure": "ZZ"}, {"measure": "XX"}],
}


class _TopLevelOnly(dict):
    """The command table with no command that `main` parses alone: every
    argv goes through the top-level parser."""

    def __contains__(self, command):
        return False


def _surface_argvs(tmp_path):
    """One argv per case the command tests run, over every command, with
    refusals and usage errors; the 1920-member family is written by
    `test_orbit_outputs` alone (0.3-0.4 s a run)."""
    op = write_json(tmp_path / "a.json", ALPHA0)
    aa = write_json(tmp_path / "aa.json", A0A0)
    t = write_json(tmp_path / "t.json", T_STATE)
    cnc = write_json(tmp_path / "c.json", {"omega": ["II", "XI", "YI", "ZI"],
                                          "gamma": {"II": 0, "XI": 0, "YI": 1, "ZI": 0}})
    lift = write_json(tmp_path / "lift.json", LIFT_CIRCUIT)
    circ = write_json(tmp_path / "circ.json", {"n": 1, "initial": {"type": "operator", **T_STATE},
                                               "steps": [{"measure": "X"}]})
    return [
        ["membership", op], ["membership", op, "--vertex"], ["membership", "/nonexistent/op.json"],
        ["membership", str(tmp_path)], ["vertex", op], ["vertex", t], ["vertex", aa],
        ["enumerate-stabilizers", "2", "--counts-only"], ["enumerate-stabilizers", "1"],
        ["enumerate-stabilizers", "0", "--counts-only"],
        ["cnc", cnc], ["cnc", cnc, "--update", "XI", "--outcome", "0"],
        ["cnc", cnc, "--update", "ZI", "--outcome", "5"],
        ["orbit", "--count"], ["orbit", "--count", "--out", str(tmp_path / "count.json")],
        ["orbit", "--verify-updates"],
        ["phi", op, "--n", "2", "--j", "IZ", "--r", "1"],
        ["phi", op, "--n", "3", "--j", "IIZ", "--r", "0"],
        ["reduce", lift], ["reduce", lift, "--coins", "10"], ["reduce", lift, "--coins", "x"],
        ["simulate", circ, "--exact"], ["simulate", circ, "--shots", "64", "--seed", "11"],
        ["simulate", circ, "--shots", "abc"],
        ["poset"], ["poset", "--dot"],
        ["lemma-check", "--trials", "2"], ["lemma-check", "--trials", "0"],
        ["decompose", t], ["decompose", op], ["decompose", aa],
        ["decompose", write_json(tmp_path / "outside.json", OUTSIDE_HULL)],
        ["vertex"], ["frobnicate", op], ["membership", op, "--bogus"], [],
        ["vertex", "--float", op],
    ]


def test_both_parse_routes_write_the_same_documents(tmp_path, capsys, monkeypatch):
    # main parses an argv that names a command with that command's parser
    # alone and any other through the top-level parser: both write the
    # same bytes and exit codes, and a leading --float reaches the command
    argvs = _surface_argvs(tmp_path)
    alone = [run(capsys, *argv) for argv in argvs]
    floated = [run(capsys, "--float", *argv) for argv in argvs]
    helps = []
    for argv in (["vertex", "--help"], ["simulate", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        helps.append((exc.value.code, capsys.readouterr().out))
    monkeypatch.setattr(cli, "_COMMANDS", _TopLevelOnly(cli._COMMANDS))
    assert [run(capsys, *argv) for argv in argvs] == alone
    for argv, want in zip((["vertex", "--help"], ["simulate", "-h"]), helps):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, capsys.readouterr().out) == want
    for argv, (code, out), (float_code, float_out) in zip(argvs, alone, floated):
        assert float_code == code, argv
        if argv[:2] == ["poset", "--dot"]:
            assert float_out == out
            continue
        doc = json.loads(out)
        doc["payload"] = cli._floatify(doc["payload"])
        assert float_out == json.dumps(doc, sort_keys=True) + "\n", argv
    refused = json.loads(alone[-1][1])
    assert alone[-1][0] == 1 and refused["diagnostics"] == (
        "usage: lambda-forge: unrecognized arguments: --float")
    assert {code for code, _ in alone} == {0, 1, 2, 3}


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path / "a.json", ALPHA0)
    for argv in (["vertex", path], ["--float", "membership", path], ["vertex"]):
        want = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["lambda-forge", *argv])
        assert (main(), capsys.readouterr().out) == want


def test_reduce_command(tmp_path, capsys):
    path = write_json(tmp_path / "lift.json", LIFT_CIRCUIT)
    code, out = run(capsys, "reduce", path, "--coins", "10")
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["m"] == 1
    kinds = [s["kind"] for s in doc["payload"]["steps"]]
    assert "coin" in kinds


def test_reduce_takes_a_lift_of_an_operator_inner(tmp_path, capsys):
    # the T inner is one member state, so the lift is one lifted state and
    # its plan is the frame's, as for a stabilizer inner
    inner = {"type": "operator", **T_STATE}
    circ = {**LIFT_CIRCUIT, "initial": {**LIFT_CIRCUIT["initial"], "inner": inner}}
    code, out = run(capsys, "reduce", write_json(tmp_path / "t.json", circ), "--coins", "10")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "ok" and doc["payload"]["m"] == 1
    code, out = run(capsys, "reduce", write_json(tmp_path / "z.json", LIFT_CIRCUIT), "--coins", "10")
    assert code == 0 and json.loads(out)["payload"] == doc["payload"]


def test_reduce_rejects_coins_other_than_0_or_1(tmp_path, capsys):
    path = write_json(tmp_path / "lift.json", LIFT_CIRCUIT)
    # non-ASCII digits that int() would read as 1
    for coins in ("9", "19", "2", "\u0661", "\U0001d7cf", "0\u0661"):
        code, out = run(capsys, "reduce", path, "--coins", coins)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error" and "0 or 1" in doc["diagnostics"]
    code, out = run(capsys, "reduce", path, "--coins", "x")
    assert code == 1 and json.loads(out)["status"] == "error"
    # coin steps past the last coin given take 0
    code, out = run(capsys, "reduce", path)
    doc = json.loads(out)
    assert code == 0 and [c["outcome"] for c in doc["payload"]["coins"]] == [0] * len(
        doc["payload"]["coins"]
    )


def test_phi_command(tmp_path, capsys):
    op = {"n": 1, "coeffs": {"I": "1", "X": "1", "Y": "1", "Z": "1"}}
    path = write_json(tmp_path / "a0.json", op)
    code, out = run(capsys, "phi", path, "--n", "2", "--j", "IZ", "--r", "1")
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["member"] and doc["payload"]["vertex"]
    lifted = doc["payload"]["lifted"]
    assert lifted["n"] == 2 and len(lifted["coeffs"]) == 8


def test_phi_needs_one_sign_bit_per_generator(tmp_path, capsys):
    path = write_json(tmp_path / "a0.json", {"n": 1, "coeffs": {"I": "1", "X": "1"}})
    for n, j, r in (("2", "IZ", "2"), ("2", "IZ", "10"), ("2", "IZ", ""), ("2", "IZ", "x"),
                    ("3", "IZI,IIZ", "1")):
        code, out = run(capsys, "phi", path, "--n", n, "--j", j, "--r", r)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error" and "--r" in doc["diagnostics"]


def test_poset_outputs(capsys):
    code, out = run(capsys, "poset")
    doc = json.loads(out)
    assert code == 0 and len(doc["payload"]["nodes"]) == 30
    assert len(doc["payload"]["edges"]) == 45
    code, out = run(capsys, "poset", "--dot")
    assert code == 0 and out.startswith("graph")


def test_decompose_command(tmp_path, capsys):
    path = write_json(tmp_path / "t.json", T_STATE)
    code, out = run(capsys, "decompose", path)
    doc = json.loads(out)
    assert code == 0
    weights = [t["weight"] for t in doc["payload"]["terms"]]
    assert weights


def test_decompose_command_two_qubits(tmp_path, capsys):
    path = write_json(tmp_path / "a.json", ALPHA0)
    code, out = run(capsys, "decompose", path)
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "ok"
    terms = doc["payload"]["terms"]
    assert sum(Fraction(t["weight"]) for t in terms) == 1
    assert all(t["state"]["type"] in ("cnc", "orbit") for t in terms)


def test_decompose_nonmember_exit(tmp_path, capsys):
    outside = {"n": 1, "coeffs": {"I": "1", "X": "3"}}
    path = write_json(tmp_path / "o.json", outside)
    code, out = run(capsys, "decompose", path)
    assert code == 2


def test_decompose_refuses_a_lifted_member(tmp_path, capsys):
    # a member on n > 2 is refused (exit 1), not reported infeasible (exit
    # 3): the refusal says nothing of whether a decomposition exists, and
    # |000> is itself a cnc vertex
    path = write_json(tmp_path / "a0.json", ALPHA0)
    code, out = run(capsys, "phi", path, "--n", "3", "--j", "IIZ", "--r", "0")
    lifted = write_json(tmp_path / "lifted.json", json.loads(out)["payload"]["lifted"])
    zeros = write_json(tmp_path / "zeros.json", ZEROS_3)
    for member in (lifted, zeros):
        code, out = run(capsys, "decompose", member)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error" and doc["payload"] is None
        assert "decomposed only for n <= 2" in doc["diagnostics"]


def test_vertex_on_a_nonmember(tmp_path, capsys):
    path = write_json(tmp_path / "aa.json", A0A0)
    code, out = run(capsys, "vertex", path)
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "violation"
    assert doc["diagnostics"].startswith("not a member: facet ")
    assert doc["payload"]["violation_value"] == "-1/2"


def test_enumerate_stabilizers_lists_the_states(capsys):
    code, out = run(capsys, "enumerate-stabilizers", "1")
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["count"] == 6
    assert sorted(g for s in doc["payload"]["states"] for g in s["generators"]) == [
        "+X", "+Y", "+Z", "-X", "-Y", "-Z"
    ]


def test_orbit_outputs(tmp_path, capsys):
    code, out = run(capsys, "orbit", "--count")
    doc = json.loads(out)
    assert code == 0 and doc["payload"] == {"count": 1920, "matches_clifford_orbit": True}
    code, out = run(capsys, "orbit")
    listed = json.loads(out)["payload"]
    assert code == 0 and listed["count"] == len(listed["vertices"]) == 1920
    target = str(tmp_path / "family.json")
    code, out = run(capsys, "orbit", "--out", target)
    assert code == 0 and json.loads(out)["payload"] == {"count": 1920, "written": target}
    with open(target) as fh:
        assert json.load(fh) == listed
    # --count writes no file, so an --out beside it is refused, not dropped
    counted = str(tmp_path / "count.json")
    code, out = run(capsys, "orbit", "--count", "--out", counted)
    assert code == 1 and json.loads(out)["diagnostics"] == (
        "usage: lambda-forge orbit: argument --out: not allowed with argument --count")
    assert not os.path.exists(counted)


def test_reduce_plan_with_a_fixed_step(tmp_path, capsys):
    """U conj(IX) is the tail stabilizer -X, so the first step is fixed at
    outcome 1; ZI reads the head Z."""
    initial = {**LIFT_CIRCUIT["initial"], "sigma": {"generators": ["-X"]}}
    circ = {"n": 2, "initial": initial, "steps": [{"measure": "IX"}, {"measure": "ZI"}]}
    code, out = run(capsys, "reduce", write_json(tmp_path / "fixed.json", circ))
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["coins"] == []
    assert doc["payload"]["steps"] == [
        {"kind": "fixed", "step": 0, "outcome": 1},
        {"kind": "measure", "step": 1, "observable": "Z", "flip": 0},
    ]


def test_emitted_operator_json_round_trips(tmp_path, capsys):
    path = write_json(tmp_path / "a.json", ALPHA0)
    code, out = run(capsys, "membership", path, "--vertex")
    # feed facet values back through Fraction parsing
    doc = json.loads(out)
    for v in doc["payload"]["facet_values"].values():
        if isinstance(v, str):
            Fraction(v)


def test_nonpositive_counts_rejected(tmp_path, capsys):
    circ = {"n": 1, "initial": {"type": "operator", **T_STATE},
            "steps": [{"measure": "X"}]}
    path = write_json(tmp_path / "circ.json", circ)
    for shots in ("-5", "0"):
        code, out = run(capsys, "simulate", path, "--shots", shots)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert "shots" in doc["diagnostics"]
    code, out = run(capsys, "enumerate-stabilizers", "0", "--counts-only")
    doc = json.loads(out)
    assert code == 1 and doc["status"] == "error" and doc["diagnostics"]


def test_simulate_rejects_bad_conditions(tmp_path, capsys):
    stab = {"type": "stabilizer", "generators": ["+Z"]}
    for cond in ({"5": 1}, {"0": 1}, {"-1": 0}, {"x": 0}):
        circ = {"n": 1, "initial": stab,
                "steps": [{"measure": "X", "if": cond}, {"measure": "Z"}]}
        path = write_json(tmp_path / "circ.json", circ)
        code, out = run(capsys, "simulate", path, "--exact")
        assert code == 1 and json.loads(out)["status"] == "error"
    circ = {"n": 1, "initial": stab,
            "steps": [{"measure": "X"}, {"measure": "Z", "if": {"0": 2}}]}
    path = write_json(tmp_path / "circ.json", circ)
    code, out = run(capsys, "simulate", path, "--exact")
    assert code == 1 and "0 or 1" in json.loads(out)["diagnostics"]
    for steps in (5, ["X"], [{"measure": 3}]):
        path = write_json(tmp_path / "circ.json", {"n": 1, "initial": stab, "steps": steps})
        code, out = run(capsys, "simulate", path, "--exact")
        assert code == 1 and "ValueError" in json.loads(out)["diagnostics"]


def test_simulate_refuses_a_zero_axis_step_in_both_modes(tmp_path, capsys):
    # the identity is measured only when step 0 reads 1; no seed gets past it
    circ = {"n": 1, "initial": {"type": "stabilizer", "generators": ["+X"]},
            "steps": [{"measure": "Z"}, {"measure": "I", "if": {"0": 1}}]}
    path = write_json(tmp_path / "circ.json", circ)
    modes = [["--exact"]] + [["--shots", "1", "--seed", str(seed)] for seed in range(4)]
    for mode in modes:
        code, out = run(capsys, "simulate", path, *mode)
        assert code == 1 and json.loads(out) == {
            "status": "error", "payload": None,
            "diagnostics": "ValueError: step 1: the identity I is not a measurement axis"}


@pytest.mark.parametrize("key", ["+0", " 0 ", "0_0", "\u0660", "1_0", "01"])
def test_simulate_refuses_condition_keys_that_are_not_plain_indices(tmp_path, capsys, key):
    stab = {"type": "stabilizer", "generators": ["+Z"]}
    head = [{"measure": "X"}] * 11
    for cond, refused in (({key: 1}, True), ({str(int(key)): 1}, False)):
        circ = {"n": 1, "initial": stab, "steps": head + [{"measure": "Z", "if": cond}]}
        path = write_json(tmp_path / "circ.json", circ)
        code, out = run(capsys, "simulate", path, "--exact")
        doc = json.loads(out)
        if refused:
            assert code == 1 and doc["status"] == "error"
            assert f"step 11: condition key {key!r} is not a step index" in doc["diagnostics"]
        else:
            assert code == 0 and doc["status"] == "ok"


def test_simulate_rejects_bad_mixture(tmp_path, capsys):
    plus = {"type": "stabilizer", "generators": ["+Z"]}
    minus = {"type": "stabilizer", "generators": ["-Z"]}
    for weights in (("2", "-1"), ("1/4", "1/4"), ("1", "1/2")):
        circ = {
            "n": 1,
            "initial": {
                "type": "mixture",
                "terms": [{"weight": w, "state": st}
                          for w, st in zip(weights, (plus, minus))],
            },
            "steps": [{"measure": "Z"}],
        }
        path = write_json(tmp_path / "mix.json", circ)
        for mode in (["--exact"], ["--shots", "16"]):
            code, out = run(capsys, "simulate", path, *mode)
            doc = json.loads(out)
            assert code == 1 and "mixture weight" in doc["diagnostics"]
    for terms in ([{"weight": "1", "state": "plus"}], "plus", ["plus"]):
        circ = {"n": 1, "initial": {"type": "mixture", "terms": terms},
                "steps": [{"measure": "Z"}]}
        path = write_json(tmp_path / "mix.json", circ)
        code, out = run(capsys, "simulate", path, "--exact")
        assert code == 1 and "ValueError" in json.loads(out)["diagnostics"]


def test_simulate_rejects_trace_zero_orbit(tmp_path, capsys):
    coeffs = {lbl: c for lbl, c in ALPHA0["coeffs"].items() if lbl != "II"}
    circ = {"n": 2, "initial": {"type": "orbit", "coeffs": coeffs},
            "steps": [{"measure": "XZ"}]}
    path = write_json(tmp_path / "circ.json", circ)
    code, out = run(capsys, "simulate", path, "--exact")
    doc = json.loads(out)
    assert code == 1 and doc["status"] == "error"
    assert "unit trace" in doc["diagnostics"]


def test_simulate_refuses_an_orbit_descriptor_outside_the_family(tmp_path, capsys):
    """II, XI, IX, XX = 1 and YI, IY, YY = 1/2 comes from an 8-member
    collection: a polytope non-member, refused as either descriptor."""
    coeffs = {"II": "1", "XI": "1", "IX": "1", "XX": "1", "YI": "1/2", "IY": "1/2", "YY": "1/2"}
    steps = [{"measure": m} for m in ("YI", "IY", "ZZ")]
    for initial, needle in (({"type": "orbit", "coeffs": coeffs}, "two-qubit family"),
                            ({"type": "operator", "n": 2, "coeffs": coeffs},
                             "violated facet -YI,-IX")):
        path = write_json(tmp_path / "circ.json", {"n": 2, "initial": initial, "steps": steps})
        for mode in (["--exact"], ["--shots", "4"]):
            code, out = run(capsys, "simulate", path, *mode)
            doc = json.loads(out)
            assert code == 1 and doc["status"] == "error" and needle in doc["diagnostics"]


def test_simulate_refuses_a_non_member_operator_in_both_modes(tmp_path, capsys):
    for op in (A0A0, {"n": 1, "coeffs": {"I": "1", "X": "3"}}):
        facet = membership(QOperator.from_json(op)).violation
        assert facet is not None
        circ = {"n": op["n"], "initial": {"type": "operator", **op},
                "steps": [{"measure": "X" * op["n"]}]}
        path = write_json(tmp_path / "circ.json", circ)
        for mode in (["--exact"], ["--shots", "16"]):
            code, out = run(capsys, "simulate", path, *mode)
            assert code == 1 and json.loads(out) == {
                "status": "error", "payload": None,
                "diagnostics": f"ValueError: the operator is not a polytope member: "
                               f"violated facet {facet}"}


#: a vertex of Lambda_2 outside the hull of the cnc vertices and the family
OUTSIDE_HULL = {"n": 2, "coeffs": {
    "II": "1", "XX": "-1", "XY": "1", "ZI": "1/2", "YI": "1/2", "YX": "1/2", "ZZ": "1/2",
    "YZ": "1/2", "YY": "1/2", "ZX": "-1/2", "ZY": "-1/2"}}


def test_simulate_runs_a_member_outside_the_known_hull(tmp_path, capsys):
    from lambda_forge.simulate import born_distribution, distribution_to_json

    steps = [{"measure": "XX"}, {"measure": "ZI", "if": {"0": 1}}, {"measure": "YZ"}]
    path = write_json(tmp_path / "circ.json", {
        "n": 2, "initial": {"type": "operator", **OUTSIDE_HULL}, "steps": steps})
    code, out = run(capsys, "simulate", path, "--exact")
    born = born_distribution(QOperator.from_json(OUTSIDE_HULL), steps_from_json(steps, 2))
    assert code == 0 and json.loads(out)["payload"]["distribution"] == distribution_to_json(born)
    code, out = run(capsys, "simulate", path, "--shots", "64", "--seed", "5")
    assert code == 0 and sum(json.loads(out)["payload"]["counts"].values()) == 64


def test_decompose_names_the_pools_it_tried(tmp_path, capsys):
    # a member no known pool holds is infeasible, exit 3, and the message
    # points to simulating it as a member state
    code, out = run(capsys, "decompose", write_json(tmp_path / "op.json", OUTSIDE_HULL))
    doc = json.loads(out)
    assert code == 3 and doc["status"] == "infeasible" and doc["payload"] is None
    assert doc["diagnostics"] == (
        "no convex decomposition over the cnc vertices, then the family; simulate "
        'takes the operator as a member state ({"type": "operator"})')


def test_simulate_refuses_an_operator_descriptor_of_trace_2(tmp_path, capsys):
    coeffs = {"II": "2", "ZI": "2"}
    circ = {"n": 2, "initial": {"type": "operator", "n": 2, "coeffs": coeffs},
            "steps": [{"measure": "ZI"}]}
    path = write_json(tmp_path / "circ.json", circ)
    code, out = run(capsys, "simulate", path, "--exact")
    doc = json.loads(out)
    assert code == 1 and doc["status"] == "error"
    assert doc["diagnostics"] == "ValueError: an operator initial state needs trace 1, got 2"


def test_simulate_rejects_circuit_qubit_count_mismatch(tmp_path, capsys):
    circ = {"n": 3, "initial": {"type": "stabilizer", "generators": ["+Z"]}, "steps": []}
    path = write_json(tmp_path / "circ.json", circ)
    for mode in (["--exact"], ["--shots", "4"]):
        code, out = run(capsys, "simulate", path, *mode)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert "initial state n = 1" in doc["diagnostics"]


def test_simulate_refuses_a_circuit_n_that_is_not_an_int(tmp_path, capsys):
    for n in (True, 1.0, "1", None):
        circ = {"n": n, "initial": {"type": "stabilizer", "generators": ["+Z"]}, "steps": []}
        path = write_json(tmp_path / "circ.json", circ)
        code, out = run(capsys, "simulate", path, "--exact")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"] == (
            f"ValueError: circuit qubit count n must be an integer, got {n!r}"
        )


def test_simulate_rejects_mixture_of_qubit_counts(tmp_path, capsys):
    terms = [
        {"weight": "1/2", "state": {"type": "stabilizer", "generators": ["+Z"]}},
        {"weight": "1/2", "state": {"type": "stabilizer", "generators": ["+ZI", "+IZ"]}},
    ]
    for steps in ([], [{"measure": "Z"}]):
        circ = {"n": 1, "initial": {"type": "mixture", "terms": terms}, "steps": steps}
        path = write_json(tmp_path / "mix.json", circ)
        code, out = run(capsys, "simulate", path, "--exact")
        doc = json.loads(out)
        assert code == 1 and "differ in qubit count" in doc["diagnostics"]


LIFT_U = {"x1": "+XX", "z1": "+ZI", "x2": "+IX", "z2": "+ZZ"}


def lift_circuit(u, step="ZZ"):
    return {
        "n": 2,
        "initial": {
            "type": "lift",
            "u": u,
            "sigma": {"generators": ["+X"]},
            "inner": {"type": "stabilizer", "generators": ["+Z"]},
        },
        "steps": [{"measure": step}],
    }


def test_simulate_rejects_non_string_generator_image(tmp_path, capsys):
    path = write_json(tmp_path / "lift.json", lift_circuit(LIFT_U))
    code, out = run(capsys, "simulate", path, "--exact")
    assert code == 0 and json.loads(out)["status"] == "ok"
    for u in ({"x1": 5, "z1": 3}, {**LIFT_U, "z2": ["+ZZ"]}):
        path = write_json(tmp_path / "lift.json", lift_circuit(u))
        code, out = run(capsys, "simulate", path, "--exact")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"].startswith("ValueError: generator image")


def test_simulate_rejects_bad_tableau_keys(tmp_path, capsys):
    # the last two are well formed but act on one qubit of a two-qubit
    # lift, or read two-qubit labels as one-qubit images
    for u in (
        {**LIFT_U, "q": 1},
        ["a"],
        {},
        {"x1": "+XX", "z1": "+ZI", "x3": "+IX", "z2": "+ZZ"},
        {"x1": "-X", "z1": "-Z"},
        {"x1": "+XX", "z1": "+ZI"},
    ):
        for step in ("ZI", "ZZ"):
            path = write_json(tmp_path / "lift.json", lift_circuit(u, step))
            for argv in (("simulate", path, "--exact"), ("reduce", path)):
                code, out = run(capsys, *argv)
                doc = json.loads(out)
                assert code == 1 and doc["status"] == "error"
                assert doc["diagnostics"].startswith("ValueError: ")
                assert "tableau" in doc["diagnostics"]


BAD_CNC = [
    {"omega": [], "gamma": {}},
    {"omega": ["I", "X"], "gamma": {"I": 0, "X": "1"}},
    {"omega": ["I", "X"], "gamma": {"I": 0, "X": 3}},
    {"omega": ["I", "X"], "gamma": {"I": 0, "X": True}},
    {"omega": ["I", "X"], "gamma": {"I": 0}},
    {"omega": ["I"], "gamma": {"I": 0, "X": 1}},
    {"omega": [5], "gamma": {"I": 0}},
    {"omega": "IX", "gamma": {"I": 0, "X": 0}},
    {"omega": ["I"], "gamma": [0]},
    {"omega": ["I", "X"], "gamma": {"I": 0, "X": 1, " X": 0}},
    {"omega": ["I", "X", " X"], "gamma": {"I": 0, "X": 0}},
]


def test_cnc_rejects_bad_sets(tmp_path, capsys):
    for doc in BAD_CNC:
        path = write_json(tmp_path / "c.json", doc)
        code, out = run(capsys, "cnc", path)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"].startswith("ValueError: ")


def test_simulate_rejects_bad_cnc_descriptor(tmp_path, capsys):
    for cnc in BAD_CNC:
        circ = {"n": 1, "initial": {"type": "cnc", **cnc}, "steps": [{"measure": "X"}]}
        path = write_json(tmp_path / "circ.json", circ)
        code, out = run(capsys, "simulate", path, "--exact")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"].startswith("ValueError: ")


def test_lift_state_descriptor_shapes_rejected(tmp_path, capsys):
    cases = (
        ("sigma", "x", "generator list"),
        ("inner", {"type": "stabilizer", "generators": None}, "generator list"),
        ("inner", {"type": "stabilizer", "generators": [5]}, "Pauli label, got 5"),
        ("inner", {"type": "stabilizer", "generators": "Z"}, "generator list"),
    )
    for field, value, words in cases:
        circ = {**LIFT_CIRCUIT, "initial": {**LIFT_CIRCUIT["initial"], field: value}}
        path = write_json(tmp_path / "lift.json", circ)
        code, out = run(capsys, "simulate", path, "--exact")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["diagnostics"].startswith("ValueError: ") and words in doc["diagnostics"]


def test_reduce_refusals_are_value_errors(tmp_path, capsys):
    stab = {"n": 1, "initial": {"type": "stabilizer", "generators": ["+Z"]},
            "steps": [{"measure": "X"}]}
    adaptive = {**LIFT_CIRCUIT, "steps": [{"measure": "ZZ"}, {"measure": "XX", "if": {"0": 1}}]}
    for circ, words in ((stab, "lift-type initial state"), (adaptive, "non-adaptive")):
        path = write_json(tmp_path / "circ.json", circ)
        code, out = run(capsys, "reduce", path)
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error" and doc["payload"] is None
        assert doc["diagnostics"].startswith("ValueError: ") and words in doc["diagnostics"]


# -- property: every file-reading subcommand on any file exits with a document --

EXIT_BY_STATUS = {"ok": 0, "error": 1, "violation": 2, "infeasible": 3}

CNC_SET = {"omega": ["II", "XI", "YI", "ZI"], "gamma": {"II": 0, "XI": 0, "YI": 1, "ZI": 0}}
OPERATORS = [ALPHA0, A0A0, T_STATE, {"n": 1, "coeffs": {"I": "1", "X": "1", "Z": "1"}}]
CIRCUITS = [
    LIFT_CIRCUIT,
    {"n": 1, "initial": {"type": "operator", **T_STATE}, "steps": [{"measure": "X"}]},
    {"n": 2, "initial": {"type": "cnc", **CNC_SET},
     "steps": [{"measure": "XZ"}, {"measure": "ZZ", "if": {"0": 1}}]},
    {"n": 2, "initial": {"type": "orbit", "coeffs": ALPHA0["coeffs"]},
     "steps": [{"measure": "XX"}]},
    {"n": 1, "initial": {"type": "mixture", "terms": [
        {"weight": "1/2", "state": {"type": "stabilizer", "generators": ["+Z"]}},
        {"weight": "1/2", "state": {"type": "stabilizer", "generators": ["-X"]}}]},
     "steps": [{"measure": "Z"}, {"measure": "X"}]},
]

WORDS = [
    "n", "coeffs", "initial", "steps", "measure", "if", "type", "generators", "sigma",
    "inner", "u", "terms", "weight", "state", "omega", "gamma", "a", "b", "x1", "z1",
    "cnc", "stabilizer", "orbit", "lift", "mixture", "operator", "0", "1", "1/2", "-1",
    "I", "X", "Z", "Y", "II", "XZ", "ZZ", "IX", "+Z", "-X", "+iZ", "+XX", "-ZI",
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(WORDS) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


def field_paths(doc, prefix=()):
    """The path of every field nested in doc, as key/index tuples."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from field_paths(v, prefix + (k,))


def field_value(doc, path):
    for k in path:
        doc = doc[k]
    return doc


# every field of every fixture, kept as text so that each draw is a fresh
# copy: half the replacements draw one, so a replaced field often reads as
# a plausible one
FIELDS = [json.dumps(field_value(doc, path)) for doc in [CNC_SET] + OPERATORS + CIRCUITS
          for path in field_paths(doc)]
REPLACEMENTS = st.sampled_from(FIELDS).map(json.loads) | JSON_VALUES


@st.composite
def input_files(draw, fixtures):
    """Any JSON value, or a fixture with one field deleted or replaced by
    one."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    doc = json.loads(json.dumps(draw(st.sampled_from(fixtures))))
    path = draw(st.sampled_from(list(field_paths(doc))))
    parent = field_value(doc, path[:-1])
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(REPLACEMENTS)
    return doc


OPERATOR_ARGV = st.sampled_from([
    ["membership"], ["membership", "--vertex"], ["vertex"], ["decompose"],
    ["phi", "--n", "2", "--j", "IZ", "--r", "1"], ["phi", "--n", "3", "--j", "IIZ", "--r", "0"],
])
CNC_ARGV = st.just(["cnc"]) | st.builds(
    lambda axis, s: ["cnc", "--update", axis, "--outcome", s],
    st.sampled_from(["XI", "ZI", "ZZ", "YX", "X"]), st.sampled_from(["0", "1"]))
CIRCUIT_ARGV = (
    st.sampled_from([["reduce"], ["simulate", "--exact"]])
    | st.builds(lambda c: ["reduce", "--coins", c], st.text("01x", max_size=4))
    | st.builds(lambda k, s: ["simulate", "--shots", str(k), "--seed", str(s)],
                st.integers(1, 64), st.integers(0, 2**32))
)
INVOCATIONS = (
    st.tuples(OPERATOR_ARGV, input_files(OPERATORS))
    | st.tuples(CNC_ARGV, input_files([CNC_SET]))
    | st.tuples(CIRCUIT_ARGV, input_files(CIRCUITS))
)


@settings(max_examples=250)
@given(INVOCATIONS)
def test_every_file_reading_command_exits_with_a_document(invocation):
    head, content = invocation
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input.json")
        with open(path, "w") as fh:
            json.dump(content, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(head[:1] + [path] + head[1:])
    doc = json.loads(out.getvalue())
    assert set(doc) == {"status", "payload", "diagnostics"}
    assert code == EXIT_BY_STATUS[doc["status"]]
    assert doc["status"] != "error" or doc["diagnostics"]


# -- property: the JSON readers return a value or raise ValueError --

DESCRIPTORS = [c["initial"] for c in CIRCUITS] + [
    {"type": "stabilizer", "generators": ["+XZ", "-ZX"]},
]
READINGS = (
    st.tuples(st.just(descriptor_from_json), input_files(DESCRIPTORS))
    | st.sampled_from(CIRCUITS).flatmap(lambda c: st.tuples(
        st.just(lambda steps: steps_from_json(steps, c["n"])), input_files([c["steps"]])))
    | st.tuples(st.just(QOperator.from_json), input_files(OPERATORS))
)


@settings(max_examples=200)
@given(READINGS)
def test_json_readers_return_or_raise_value_error(reading):
    """A mutated descriptor, step list or operator document is read or
    refused with ValueError (a missing field included), never another
    exception."""
    reader, doc = reading
    try:
        reader(doc)
    except ValueError:
        pass


# -- property: initial states at their boundaries, read alike in both simulate modes --

STATE_LEAVES = [
    ({"type": "stabilizer", "generators": ["-Y"]}, 1),
    ({"type": "operator", **T_STATE}, 1),
    ({"type": "cnc", **CNC_SET}, 2),
    ({"type": "orbit", "coeffs": ALPHA0["coeffs"]}, 2),
    ({"type": "operator", **ALPHA0}, 2),
]
TAILS = [["+Z"], ["-X"], ["+ZI", "-IX"], ["+XX", "-ZZ"]]
MIXTURE_WEIGHTS = ["1", "1/2", "1/3", "2/3", "0", "-1/2", "3/2", 1, {"a": "0", "b": "1/2"}]


def _tableau_json(n):
    """A Clifford tableau on n qubits, as ``CliffordTableau.to_json`` writes it."""
    u = CliffordTableau.hadamard(n, 1)
    return (u if n == 1 else u.compose(CliffordTableau.cnot(n, 1, n))).to_json()


@st.composite
def boundary_descriptors(draw, depth=2):
    """(descriptor, the qubit count it was built for): a fixture state, or
    a lift or a mixture of drawn descriptors, nested up to depth.  A lift
    may carry a tableau of the wrong width; a mixture's weights sum to 1
    or to anything else, a negative or irrational weight included, and its
    states may differ in width."""
    kind = draw(st.sampled_from(["leaf", "lift", "mixture"] if depth else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from(STATE_LEAVES))
    if kind == "lift":
        inner, m = draw(boundary_descriptors(depth - 1))
        tail = draw(st.sampled_from(TAILS))
        n = m + len(tail[0]) - 1
        doc = {"type": "lift", "sigma": {"generators": tail}, "inner": inner}
        width = draw(st.sampled_from([None, n, n, n + 1]))
        if width:
            doc["u"] = _tableau_json(width)
        return doc, n
    drawn = draw(st.lists(boundary_descriptors(depth - 1), min_size=1, max_size=3))
    if draw(st.booleans()):  # keep the terms on the first one's width
        drawn = [term for term in drawn if term[1] == drawn[0][1]]
    if draw(st.booleans()):
        weights = [f"1/{len(drawn)}"] * len(drawn)
    else:
        weights = draw(st.lists(st.sampled_from(MIXTURE_WEIGHTS),
                                min_size=len(drawn), max_size=len(drawn)))
    terms = [{"weight": w, "state": doc} for w, (doc, _) in zip(weights, drawn)]
    return {"type": "mixture", "terms": terms}, drawn[0][1]


@st.composite
def boundary_circuits(draw):
    """A circuit on a drawn descriptor, with at times a lift's inner state
    or a mixture term's state, or one field inside it, deleted or
    replaced, and
    one to three steps whose axes are mostly on the descriptor's width,
    at times on another width or the identity."""
    doc, n = draw(boundary_descriptors())
    doc = json.loads(json.dumps(doc))  # a fresh copy: the fixtures are shared
    nested = [path for path in field_paths(doc) if {"inner", "state"} & set(path)]
    if nested and not draw(st.integers(0, 2)):
        path = draw(st.sampled_from(nested))
        parent = field_value(doc, path[:-1])
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(REPLACEMENTS)
    axes = st.integers(0, 9).flatmap(lambda i: (
        st.just("I" * n) if i == 0
        else st.text("IXYZ", min_size=1, max_size=n + 1) if i == 1
        else st.integers(1, 4**n - 1).map(lambda k: PauliPoint.from_key(n, k).label())))
    steps = [{"measure": label} for label in draw(st.lists(axes, min_size=1, max_size=3))]
    return {"n": n, "initial": doc, "steps": steps}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(boundary_circuits())
def test_boundary_initial_states_are_read_alike_in_both_simulate_modes(circuit):
    """A drawn descriptor is read or refused with ValueError; CLI
    ``simulate --exact`` and ``--shots 8`` accept the same circuits,
    refuse the others with one diagnostic, and every sampled transcript
    has positive exact probability."""
    try:
        descriptor_from_json(circuit["initial"])
    except ValueError:
        pass
    docs = []
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "circuit.json")
        with open(path, "w") as fh:
            json.dump(circuit, fh)
        for mode in (["--exact"], ["--shots", "8"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["simulate", path, *mode])
            docs.append((code, json.loads(out.getvalue())))
    (exact_code, exact), (sample_code, sampled) = docs
    assert exact_code == sample_code
    if exact_code:
        assert exact["diagnostics"].startswith("ValueError: ")
        assert exact == sampled
    else:
        support = {",".join("-" if v is None else str(v) for v in entry["outcomes"])
                   for entry in exact["payload"]["distribution"]}
        assert set(sampled["payload"]["counts"]) <= support


# -- property: operator documents read exactly as their labels and values say --

def _padded(label):
    return st.sampled_from([label, " " + label, label + " ", "\t" + label])


OPERATOR_PARTS = st.integers(-4, 4) | st.sampled_from(
    ["3/4", " 3/4", "-1/2", "1.5", "1_0/3", "0", "2", "-0/5"])
GOOD_VALUES = OPERATOR_PARTS | st.fixed_dictionaries(
    {}, optional={"a": OPERATOR_PARTS, "b": OPERATOR_PARTS})
BAD_VALUES = st.sampled_from(
    [True, False, 0.5, None, [], ["1"], {"a": "1", "c": "2"}, "1/0", "x", {"b": True}])


@st.composite
def operator_documents(draw):
    """Operator documents over n = 1 or 2 qubits, most of them valid:
    labels of width n (at times padded with whitespace, so that two can
    name one point), of other widths or not labels at all; coefficients
    as ints, rational strings in the forms ``Fraction`` reads, {a, b}
    objects, or values a field element refuses.  Half start with the
    identity at 1, so that many are trace-1 states."""
    n = draw(st.integers(1, 2))
    good = st.text("IXYZ", min_size=n, max_size=n)
    labels = st.one_of(good, good, good.flatmap(_padded), st.text("IXYZ", min_size=1, max_size=3),
                       st.sampled_from(["", "Q", "x", "I I"]))
    values = st.one_of(GOOD_VALUES, GOOD_VALUES, GOOD_VALUES, BAD_VALUES)
    coeffs = {"I" * n: "1"} if draw(st.booleans()) else {}
    coeffs.update(draw(st.dictionaries(labels, values, max_size=5)))
    return {"n": n, "coeffs": coeffs}


def operator_oracle(doc):
    """``QOperator(n, {PauliPoint.from_label(l): FieldElem.from_json(v)})``,
    refusing two labels that name one point instead of keeping the last."""
    points = {}
    for label, val in doc["coeffs"].items():
        point = PauliPoint.from_label(label)
        if point in points:
            raise ValueError("two labels name one point")
        points[point] = FieldElem.from_json(val)
    return QOperator(doc["n"], points)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(operator_documents())
def test_operator_documents_read_as_the_oracle_builds_them(doc):
    try:
        want = operator_oracle(doc)
    except ValueError:
        want = None
    if want is None:
        with pytest.raises(ValueError):
            QOperator.from_json(doc)
    else:
        got = QOperator.from_json(doc)
        assert got == want and got.key() == want.key() and got.to_json() == want.to_json()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "operator.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["membership", path])
    printed = json.loads(out.getvalue())
    if want is None or want.trace() != 1:
        assert code == 1 and printed["status"] == "error" and printed["diagnostics"]
    else:
        cert = membership(want)
        assert code == (0 if cert.is_member else 2)
        assert printed["payload"] == json.loads(json.dumps(cert.to_json()))


def test_commands_run_without_numpy(tmp_path):
    # numpy is a test extra: only the dense oracles, in tests/helpers.py, import it
    operator = write_json(tmp_path / "a.json", ALPHA0)
    circuit = write_json(tmp_path / "c.json", CIRCUITS[1])
    argvs = [["vertex", operator], ["simulate", "--exact", circuit], ["orbit", "--count"]]
    code = (
        "import sys\n"
        "from lambda_forge.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "sys.stderr.write(repr((codes, 'numpy' in sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stderr == repr(([0, 0, 0], False))
