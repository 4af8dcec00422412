import json

from planesheaves.cli import main
from planesheaves.presentation import Presentation

SEXTIC = "X^6 + Y^6 + Z^6 + X*Y*Z^4 + 2*X^2*Y^2*Z^2"
OC2 = json.dumps({"source": [-4], "target": [2], "matrix": [[SEXTIC]]})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_oc2(capsys):
    code, out = run(capsys, "classify", "--input", OC2)
    assert code == 0
    data = json.loads(out)
    assert data["chi"] == 3
    assert data["stratum"] == "X_7"
    assert data["profile"] == [3, 3, 8, 1]
    assert data["hilbert"] == {"r": 6, "chi": 3}


def test_classify_parse_error(capsys):
    code, _ = run(capsys, "classify", "--input",
                  json.dumps({"source": [-4], "target": [2], "matrix": [["X^6 +"]]}))
    assert code == 2


def test_oversize_degree_and_twist_are_parse_errors(capsys):
    # caught before any dense coefficient vector or graded piece is built
    oversize = [
        {"source": [-4], "target": [2], "matrix": [["X^100000000"]]},
        {"source": [-4], "target": [2], "matrix": [["X^6 + Y^35*Z^6"]]},
        {"source": [10 ** 6 - 6], "target": [10 ** 6], "matrix": [[SEXTIC]]},
        {"source": [-4], "target": [-(10 ** 6)], "matrix": [["0"]]},
        {"source": [-4], "target": ["two"], "matrix": [[SEXTIC]]},
    ]
    for blob in oversize:
        for cmd in ("classify", "hilbert"):
            code, out = run(capsys, cmd, "--input", json.dumps(blob))
            assert code == 2 and out == "", (cmd, blob)


def test_classify_wrong_multiplicity(capsys):
    blob = json.dumps({"source": [-1], "target": [4], "matrix": [["X^5"]]})
    code, _ = run(capsys, "classify", "--input", blob)
    assert code == 4


def test_classify_not_in_table(capsys):
    lines = ["X", "Y", "Z", "X + Y", "Y + Z", "X + Z"]
    ks = [-3, -3, -3, 0, 0, 0]
    blob = json.dumps({
        "source": [k - 1 for k in ks], "target": ks,
        "matrix": [[lines[i] if i == j else "0" for j in range(6)] for i in range(6)],
    })
    code, _ = run(capsys, "classify", "--input", blob)
    assert code == 3


def test_hilbert_and_dual(capsys):
    code, out = run(capsys, "hilbert", "--input", OC2)
    assert code == 0
    assert json.loads(out) == {"r": 6, "chi": 3, "polynomial": "6*m + 3"}
    code, out = run(capsys, "dual", "--input", OC2)
    assert code == 0
    data = json.loads(out)
    assert data["source"] == [-5] and data["target"] == [1]


def test_gen_round_trip(capsys):
    code, out = run(capsys, "gen", "--chi", "2", "--stratum", "X_3", "--seed", "7")
    assert code == 0
    P = Presentation.from_json(json.loads(out))
    code, out = run(capsys, "classify", "--input", json.dumps(P.to_json()))
    assert code == 0
    assert json.loads(out)["stratum"] == "X_3"


def test_gen_determinism(capsys):
    _, out1 = run(capsys, "gen", "--chi", "1", "--stratum", "X_5", "--seed", "3")
    _, out2 = run(capsys, "gen", "--chi", "1", "--stratum", "X_5", "--seed", "3")
    assert out1 == out2


def test_kron_check(capsys):
    P = json.dumps({"source": [-1, -1], "target": [0, 0, 0],
                    "matrix": [["X", "Y"], ["Y", "Z"], ["Z", "X"]]})
    code, out = run(capsys, "kron-check", "--input", P)
    assert code == 0
    assert json.loads(out)["kind"] == "semistable"


def test_stability_cmd(capsys):
    P = json.dumps({"source": [-2, -2], "target": [-1, -1],
                    "matrix": [["0", "X"], ["Y", "Z"]]})
    code, out = run(capsys, "stability", "--input", P, "--criterion", "two-by-two")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "properly_semistable"
    assert data["witness"] == {"sub_source": -2, "sub_target": -1}


def test_bounds_cmd(capsys):
    code, out = run(capsys, "bounds", "--chi", "1", "--h0-fm1", "1", "--h1-f", "1")
    assert code == 0
    assert json.loads(out) == {"allowed": False, "rule": "forbidden_chi1_b"}


def test_points_resolve_triangle(capsys):
    blob = json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    code, out = run(capsys, "points", "resolve", "--input", blob)
    assert code == 0
    assert json.loads(out) == {"gens": [2, 2, 2], "syz": [3, 3]}


def test_points_claim_colinear_precondition(capsys):
    blob = json.dumps({"points": [["1", "0", "1"], ["2", "0", "1"], ["3", "0", "1"]]})
    code, _ = run(capsys, "points", "claim", "--claim", "len3_general", "--input", blob)
    assert code == 4
    code, _ = run(capsys, "points", "claim", "--claim", "len3_colinear", "--input", blob)
    assert code == 0


def test_points_parse_error(capsys):
    code, _ = run(capsys, "points", "resolve", "--input", json.dumps({"pts": []}))
    assert code == 2
    for points in (1, [1, 2], ["abc"], [["1/0", "1", "1"]]):
        code, _ = run(capsys, "points", "resolve", "--input", json.dumps({"points": points}))
        assert code == 2, points


def test_dims_chi1(capsys):
    code, out = run(capsys, "dims", "--chi", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 6
    x0 = next(r for r in data["rows"] if r["stratum"] == "X_0")
    assert (x0["dimW"], x0["dimG"], x0["dimX"]) == (90, 53, 37)
    assert all(r["check_corrected"] for r in data["rows"])


def test_verify_tables_small(capsys, tmp_path):
    code, out = run(capsys, "verify-tables", "--chi", "3", "--samples", "2",
                    "--format", "markdown", "--out-dir", str(tmp_path))
    assert code == 0
    assert "## chi = 3" in out
    assert (tmp_path / "verify_tables.md").exists()
    report = json.loads((tmp_path / "verify_tables.json").read_text())
    assert report["passed"]
    assert len(report["reports"]) == 9


def test_verify_tables_dim_audit_only(capsys):
    code, out = run(capsys, "verify-tables", "--chi", "0", "--samples", "0")
    assert code == 0
    data = json.loads(out)
    assert data["reports"] == []
    assert len(data["audits"]) == 6


def test_cli_determinism(capsys):
    args = ("verify-tables", "--chi", "3", "--samples", "1")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_flag_pair_cmd(capsys):
    blob = json.dumps({
        "points": [["1", "0", "0"], ["0", "1", "0"]],
        "sextic": "X^5*Y + Y^5*Z + Z^6 + X^3*Y^2*Z",
    })
    code, out = run(capsys, "flag-pair", "--input", blob)
    assert code == 0
    data = json.loads(out)
    assert (data["chi"], data["stratum"]) == (1, "X_5")
    assert data["profile"][:3] == [1, 3, 4]


def test_flag_pair_parse_errors(capsys):
    sextic = "X^5*Y + Y^5*Z + Z^6 + X^3*Y^2*Z"
    blobs = ["{bad",
             json.dumps({"points": 1, "sextic": sextic}),
             json.dumps({"points": [1, 2], "sextic": sextic}),
             json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"]], "sextic": 5}),
             json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"]]})]
    for blob in blobs:
        code, _ = run(capsys, "flag-pair", "--input", blob)
        assert code == 2, blob
