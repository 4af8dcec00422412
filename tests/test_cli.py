import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import planesheaves
from planesheaves import cli
from planesheaves.cli import main
from planesheaves.forms import Form, format_form, space_dim
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


def test_parser_crashes_are_parse_errors(capsys):
    # a zero denominator, a numeral beyond Python's int-conversion limit and a
    # digit that is not decimal used to escape as tracebacks with exit 1
    for entry in ("1/0*X^6", "7" * 5000 + "*X^6", "2\u00b2*X^6"):
        blob = json.dumps({"source": [-4], "target": [2], "matrix": [[entry]]})
        code = main(["classify", "--input", blob])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", entry[:20]
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_malformed_matrix_and_infinite_twist_are_parse_errors(capsys):
    for blob in ('{"source": [], "target": [], "matrix": null}',
                 '{"source": [-1], "target": [0], "matrix": [5]}',
                 '{"source": [1e400], "target": [2], "matrix": [["X"]]}'):
        for cmd in ("classify", "dual"):
            code, out = run(capsys, cmd, "--input", blob)
            assert code == 2 and out == "", (cmd, blob)


def _fresh_stdout(argv):
    """Standard output of the CLI run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(planesheaves.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "planesheaves.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


def test_reused_parser_keeps_no_state(capsys):
    block = json.dumps({"source": [-1, -1], "target": [0, 0, 0],
                        "matrix": [["X", "Y"], ["Y", "Z"], ["Z", "X"]]})
    later = (["classify", "--input", OC2],
             ["kron-check", "--input", block],
             ["gen", "--chi", "3", "--stratum", "X_7"])
    fresh = [_fresh_stdout(argv) for argv in later]
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert main(["kron-check", "--input", block, "--budget", "5", "--seed", "7"]) == 0
    capsys.readouterr()
    for argv, expected in zip(later, fresh):
        assert run(capsys, *argv) == (0, expected), argv[0]
    args = cli._PARSER.parse_args(["kron-check", "--input", block])
    assert (args.budget, args.seed) == (200, cli.DEFAULT_SEED)


# ---------------------------------------------------------------------------
# property test: every generated input ends with exit 0-4 and no traceback
# ---------------------------------------------------------------------------

_TWISTS = st.lists(st.integers(-6, 6), max_size=3)
# entries that are not forms of the required degree, including the inputs
# that used to crash the form parser
_BAD_ENTRIES = st.sampled_from(["0", "1", "X^12/2", "1/0*X^6", "2\u00b2*X", "X +", "W",
                                "", "9" * 5000, 7, 1.5, None, [1], {"a": 1}])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8)


@st.composite
def _presentation_blobs(draw):
    source, target = draw(_TWISTS), draw(_TWISTS)
    rows = []
    for e in target:
        row = []
        for d in source:
            k = e - d
            if draw(st.integers(0, 9)) == 0:
                row.append(draw(_BAD_ENTRIES))
            elif 0 <= k <= 4:
                coeffs = draw(st.lists(st.integers(-3, 3), min_size=space_dim(k),
                                       max_size=space_dim(k)))
                row.append(format_form(Form(k, coeffs)))
            else:
                row.append("0")
        rows.append(row)
    return {"source": source, "target": target, "matrix": rows}


_BLOBS = st.one_of(
    _presentation_blobs(),
    st.fixed_dictionaries({"source": _JSON, "target": _JSON, "matrix": _JSON}))


def _call(argv):
    # capsys is per test, not per hypothesis example, so capture here
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(["classify", "hilbert", "dual", "kron-check"]), _BLOBS)
def test_generated_input_exits_0_to_4_without_traceback(command, blob):
    code, err = _call([command, "--input", json.dumps(blob)])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
