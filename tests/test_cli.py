import json
from fractions import Fraction

from lambda_forge.cli import main


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


def test_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out = run(capsys, "membership", str(bad))
    assert code == 1 and json.loads(out)["status"] == "error"


def test_missing_file(capsys):
    code, out = run(capsys, "membership", "/nonexistent/op.json")
    assert code == 1


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


def test_simulate_float_flag(tmp_path, capsys):
    circ = {"n": 1, "initial": {"type": "operator", **T_STATE},
            "steps": [{"measure": "X"}]}
    path = write_json(tmp_path / "circ.json", circ)
    code, out = run(capsys, "--float", "simulate", path, "--exact")
    rows = json.loads(out)["payload"]["distribution"]
    assert abs(rows[0]["probability"] - 0.8535533905932737) < 1e-12


def test_reduce_command(tmp_path, capsys):
    circ = {
        "n": 2,
        "initial": {
            "type": "lift",
            "u": {"x1": "+XX", "z1": "+ZI", "x2": "+IX", "z2": "+ZZ"},
            "sigma": {"generators": ["+X"]},
            "inner": {"type": "stabilizer", "generators": ["+Z"]},
        },
        "steps": [{"measure": "ZZ"}, {"measure": "XX"}],
    }
    path = write_json(tmp_path / "lift.json", circ)
    code, out = run(capsys, "reduce", path, "--coins", "10")
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["m"] == 1
    kinds = [s["kind"] for s in doc["payload"]["steps"]]
    assert "coin" in kinds


def test_phi_command(tmp_path, capsys):
    op = {"n": 1, "coeffs": {"I": "1", "X": "1", "Y": "1", "Z": "1"}}
    path = write_json(tmp_path / "a0.json", op)
    code, out = run(capsys, "phi", path, "--n", "2", "--j", "IZ", "--r", "1")
    doc = json.loads(out)
    assert code == 0 and doc["payload"]["member"] and doc["payload"]["vertex"]
    lifted = doc["payload"]["lifted"]
    assert lifted["n"] == 2 and len(lifted["coeffs"]) == 8


def test_poset_outputs(capsys):
    code, out = run(capsys, "poset", "--json")
    doc = json.loads(out)
    assert code == 0 and len(doc["payload"]["nodes"]) == 30
    assert len(doc["payload"]["edges"]) == 45
    code, out = run(capsys, "poset", "--dot")
    assert code == 0 and out.startswith("graph")


def test_lemma_check(capsys):
    code, out = run(capsys, "lemma-check", "--trials", "2")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["tail_overlap"]["failures"] == 0
    assert doc["payload"]["averaged_trace"]["failures"] == 0


def test_decompose_command(tmp_path, capsys):
    path = write_json(tmp_path / "t.json", T_STATE)
    code, out = run(capsys, "decompose", path)
    doc = json.loads(out)
    assert code == 0
    weights = [t["weight"] for t in doc["payload"]["terms"]]
    assert weights


def test_decompose_nonmember_exit(tmp_path, capsys):
    outside = {"n": 1, "coeffs": {"I": "1", "X": "3"}}
    path = write_json(tmp_path / "o.json", outside)
    code, out = run(capsys, "decompose", path)
    assert code == 2


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
