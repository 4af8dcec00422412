import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import planesheaves
from planesheaves import cli, forms, presentation, strata
from planesheaves.cli import main
from planesheaves.forms import MAX_DIGITS, Form, FormError, format_form, monomials, space_dim
from planesheaves.kronecker import (CERTIFICATE_PRIME, Destabilizer, KroneckerError,
                                    KroneckerModule, SemistabilityCertificate,
                                    verify_certificate, verify_destabilizer)
from planesheaves.linalg import LinalgError, QMatrix
from planesheaves.points import GenericityError, PointError
from planesheaves.presentation import (InconsistentPresentationError, Presentation,
                                       PresentationError, is_injective)
from planesheaves.stability import CRITERIA
from planesheaves.strata import ClassifyError, GenerationError, StrataError

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


def test_a_long_malformed_entry_is_quoted_in_part(capsys):
    blob = json.dumps({"source": [-4], "target": [2], "matrix": [["X+" * 50000]]})
    assert main(["classify", "--input", blob]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert "(100000 characters)" in captured.err


_LONG_TWIST = json.dumps({"source": ["7" * 50000], "target": [2], "matrix": [[SEXTIC]]})


@pytest.mark.parametrize("argv", [
    ["classify", "--input", _LONG_TWIST],
    ["kron-check", "--input", _LONG_TWIST],
    ["points", "resolve", "--input", json.dumps({"points": [["1" * 50000 + "x", "0", "1"]]})],
])
def test_a_long_rejected_twist_or_coordinate_is_quoted_in_part(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 300
    assert "characters)" in captured.err


def test_oversize_degree_and_twist_are_parse_errors(capsys):
    # caught before any dense coefficient vector or matrix is built
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


# two equal columns, and the zero map: each determinant is the zero form
NOT_INJECTIVE = [
    {"source": [-3, -3], "target": [0, 0], "matrix": [["X^3", "X^3"], ["Y^3", "Y^3"]]},
    {"source": [-4], "target": [2], "matrix": [["0"]]},
]


@pytest.mark.parametrize("blob", NOT_INJECTIVE)
def test_classify_refuses_a_map_that_is_not_injective(blob, capsys):
    assert main(["classify", "--input", json.dumps(blob)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "not injective" in captured.err


@pytest.mark.parametrize("criterion", ["auto", *CRITERIA])
@pytest.mark.parametrize("blob", NOT_INJECTIVE)
def test_stability_refuses_a_map_that_is_not_injective(blob, criterion, capsys):
    # the criteria assume an injective map: no verdict is printed without one
    assert main(["stability", "--input", json.dumps(blob), "--criterion", criterion]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("blob", NOT_INJECTIVE)
def test_hilbert_refuses_a_map_that_is_not_injective(blob, capsys):
    # the cokernel of such a map is not a sheaf of dimension 1, so it has no
    # Hilbert polynomial r*m + chi to print
    assert main(["hilbert", "--input", json.dumps(blob)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "not injective" in captured.err


# twists +-20 with X^40, Y^40 and Z^40 entries: r = 120 and r = 80, so the
# triangle walk has 7381 and 3321 points; it took 16.6 s and 5.7 s
LARGE_NOT_INJECTIVE = [
    {"source": [-20, -20, -20], "target": [20, 20, 20],
     "matrix": [["X^40", "X^40", "Y^40"], ["Y^40", "Y^40", "Z^40"], ["Z^40", "Z^40", "X^40"]]},
    {"source": [-20, -20], "target": [20, 20], "matrix": [["X^40", "X^40"], ["Y^40", "Y^40"]]},
]


@pytest.mark.parametrize("blob", LARGE_NOT_INJECTIVE)
def test_a_large_map_that_is_not_injective_is_refused_at_one_point(blob, capsys, monkeypatch):
    points = set()

    def recording(degree, point):
        points.add(point)
        return forms.monomial_values(degree, point)
    monkeypatch.setattr(presentation, "monomial_values", recording)
    assert not is_injective(Presentation.from_json(blob))
    assert len(points) == 1
    assert main(["hilbert", "--input", json.dumps(blob)]) == 4
    assert "not injective" in capsys.readouterr().err
    assert len(points) == 1


def test_a_dense_degree_20_pair_is_stable_without_a_matrix_or_a_point(capsys, monkeypatch):
    # two-by-two takes the gcd of the degree-20 entries of column 2; its
    # Macaulay matrix took 66 s, and the line Z = 0 certifies the pair coprime
    rng = random.Random(1)
    source, target = [-21, -20], [0, 0]
    matrix = [[format_form(forms.random_form(e - d, rng, 9)) for d in source] for e in target]

    def refuse(*_):
        raise AssertionError("a multiplication matrix was built or a point evaluated")
    monkeypatch.setattr(forms, "mult_map", refuse)
    # the matrix of Z^d coefficients, the walk's first point, is nonsingular
    monkeypatch.setattr(presentation, "monomial_values", refuse)
    code, out = run(capsys, "stability", "--input",
                    json.dumps({"source": source, "target": target, "matrix": matrix}))
    assert code == 0
    assert json.loads(out)["kind"] == "stable"


def test_hilbert_of_a_map_that_is_not_square_keeps_its_message(capsys):
    blob = {"source": [-6, -1], "target": [0], "matrix": [["0", "0"]]}
    assert main(["hilbert", "--input", json.dumps(blob)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "not one-dimensional" in captured.err


@pytest.mark.parametrize("argv", [["classify"], ["hilbert"], ["stability", "--criterion", "auto"],
                                  *(["stability", "--criterion", c] for c in CRITERIA)])
def test_multiplicity_zero_is_refused_by_every_sheaf_command(argv, capsys):
    # the identity O -> O is injective, but its cokernel is zero, not a sheaf
    # of dimension 1, so no criterion may print a verdict for it
    blob = {"source": [0], "target": [0], "matrix": [["1"]]}
    assert main([*argv, "--input", json.dumps(blob)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "multiplicity 0 is not positive" in captured.err


def test_classify_refuses_a_chi_1_sheaf_with_two_endomorphisms(capsys):
    # O_L + O_Q(1): chi 1, and the line has slope 1 > 1/6, so it is not
    # semistable; it used to be labelled chi 1 X_5
    blob = json.dumps({"source": [-1, -4], "target": [0, 1],
                       "matrix": [["X", "0"], ["0", "X^5 + Y^5 + Z^5"]]})
    assert main(["classify", "--input", blob]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "End(F)" in captured.err


def test_classify_refuses_that_sheaf_with_a_unit_summand_of_large_twist(capsys):
    # O(30) -> O(30) with entry 1 is cancelled before End(F) is computed
    blob = json.dumps({"source": [-1, -4, 30], "target": [0, 1, 30],
                       "matrix": [["X", "0", "0"], ["0", "X^5 + Y^5 + Z^5", "0"],
                                  ["0", "0", "1"]]})
    assert main(["classify", "--input", blob]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "End(F) = 2" in captured.err


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


def test_kron_check_prints_a_certificate_only_when_one_exists(capsys):
    # a semistable pencil is certified like any other block
    pencil = [["X", "Y"], ["Y", "Z"], ["Z", "X"]]
    block = [["X", "Y", "Z", "X + Y"], ["Y", "Z", "X", "Y - Z"], ["Z", "X + Z", "Y", "X"]]
    for rows in (pencil, block):
        blob = json.dumps({"source": [-1] * len(rows[0]), "target": [0] * len(rows),
                           "matrix": rows})
        code, out = run(capsys, "kron-check", "--input", blob)
        data = json.loads(out)
        assert code == 0 and data["kind"] == "semistable"
        assert data["certificate"]["prime"] == CERTIFICATE_PRIME
        cert = SemistabilityCertificate(
            tuple(tuple(tuple(r) for r in T) for T in data["certificate"]["blocks"]),
            data["certificate"]["prime"])
        assert verify_certificate(KroneckerModule.from_text(rows), cert)


def test_kron_check_unstable_pencil_off_the_coordinates(capsys):
    P = json.dumps({"source": [-1, -1, -1], "target": [0, 0], "matrix": [
        ["71*X - 82*Y + 3*Z", "108*X - 48*Y + 20*Z", "40*X - 87*Y - 16*Z"],
        ["-33*X + 66*Y - 29*Z", "-144*X - 36*Y - 80*Z", "60*X + 81*Y + 28*Z"]]})
    code, out = run(capsys, "kron-check", "--input", P)
    data = json.loads(out)
    assert code == 0 and data["kind"] == "unstable"
    assert "certificate" not in data
    w = data["witness"]
    D = Destabilizer(w["p_prime"], w["q_prime"],
                     QMatrix.from_rows([[Fraction(x) for x in r] for r in w["source_basis"]]),
                     QMatrix.from_rows([[Fraction(x) for x in r] for r in w["target_basis"]]))
    assert verify_destabilizer(KroneckerModule.from_text(json.loads(P)["matrix"]), D)


def test_negative_counts_are_usage_errors(capsys):
    # --samples 0 stays valid: test_verify_tables_dim_audit_only
    # kron-check has no --budget any more: an unknown argument, exit 2 too
    for argv in (["verify-tables", "--chi", "0", "--samples", "-2"],
                 ["kron-check", "--input", "{}", "--budget", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("flag", ["--h0-fm1", "--h1-f", "--h1-f1"])
def test_bounds_refuses_a_negative_cohomology_count(flag, capsys):
    assert main(["bounds", "--chi", "1", flag, "-5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "negative" in captured.err


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
    # a coordinate whose numerator or denominator would pass MAX_DIGITS digits
    # is refused before it is built, exponent notation included
    huge = [["1e99999", "2", "1"], ["3", "1e99999", "1"], ["5", "7", "1"]]
    tiny = [["1e-99999", "2", "1"], ["3", "1", "1"]]
    wide = [["1/" + "7" * (MAX_DIGITS + 1), "1", "1"], ["7" * (MAX_DIGITS + 1), "0", "1"]]
    for points in (1, [1, 2], ["abc"], [["1/0", "1", "1"]], huge, tiny, wide):
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
    # a chi with no registry rows is a usage error, not an empty table
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--chi", "-1"])
    assert exc.value.code == 2


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
    # a chi with no registry rows would check nothing and report a pass
    with pytest.raises(SystemExit) as exc:
        main(["verify-tables", "--chi", "9", "--samples", "1"])
    assert exc.value.code == 2


def test_out_dir_files_are_the_bytes_printed(capsys, tmp_path):
    for fmt, name in (("json", "verify_tables.json"), ("markdown", "verify_tables.md")):
        code, out = run(capsys, "verify-tables", "--chi", "0", "--samples", "0",
                        "--format", fmt, "--out-dir", str(tmp_path / fmt))
        assert code == 0 and (tmp_path / fmt / name).read_text() == out
        # both files are saved whichever format is printed
        assert {f.name for f in (tmp_path / fmt).iterdir()} == {"verify_tables.json",
                                                                "verify_tables.md"}
    for fmt, name in (("json", "dims.json"), ("markdown", "dims.md")):
        code, out = run(capsys, "dims", "--chi", "0", "--format", fmt,
                        "--out-dir", str(tmp_path / "dims"))
        assert code == 0 and (tmp_path / "dims" / name).read_text() == out


def test_internal_errors_are_not_hidden_as_exit_4(capsys, monkeypatch):
    # the documented preconditions still exit 4
    assert run(capsys, "gen", "--chi", "1", "--stratum", "X_99")[0] == 4
    gap_two = json.dumps({"source": [-2], "target": [0], "matrix": [["X^2"]]})
    assert run(capsys, "kron-check", "--input", gap_two)[0] == 4

    def boom(*args, **kwargs):
        raise RuntimeError("internal")

    monkeypatch.setattr(cli, "generate", boom)
    with pytest.raises(RuntimeError, match="internal"):
        main(["gen", "--chi", "1", "--stratum", "X_0"])
    monkeypatch.setattr(cli.KroneckerModule, "from_presentation", boom)
    with pytest.raises(RuntimeError, match="internal"):
        main(["kron-check", "--input", gap_two])


PENCIL = json.dumps({"source": [-1, -1], "target": [0, 0, 0],
                     "matrix": [["X", "Y"], ["Y", "Z"], ["Z", "X"]]})
TRIANGLE = json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
FLAG_PAIR = json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"]],
                        "sextic": "X^5*Y + Y^5*Z + Z^6 + X^3*Y^2*Z"})

# (argv, a name in cli that the subcommand calls on that input)
CALLEES = [
    (["classify", "--input", OC2], "classify"),
    (["hilbert", "--input", OC2], "hilbert"),
    (["dual", "--input", OC2], "dual"),
    (["gen", "--chi", "1", "--stratum", "X_0"], "generate"),
    (["kron-check", "--input", PENCIL], "is_semistable"),
    (["stability", "--input", OC2], "is_injective"),
    (["bounds", "--chi", "1"], "bounds_check"),
    (["dims", "--chi", "1"], "dim_audit"),
    (["points", "resolve", "--input", TRIANGLE], "minimal_resolution"),
    (["points", "claim", "--claim", "len3_general", "--input", TRIANGLE], "verify_point_claim"),
    (["flag-pair", "--input", FLAG_PAIR], "flag_pair_presentation"),
    (["flag-pair", "--input", FLAG_PAIR], "classify"),
    (["verify-tables", "--chi", "3", "--samples", "1"], "dim_audit"),
]
_CALLEE_IDS = ["%s:%s" % (argv[0], name) for argv, name in CALLEES]


def _raiser(exc_class):
    def boom(*args, **kwargs):
        raise exc_class("planted %s" % exc_class.__name__)
    return boom


@pytest.mark.parametrize("exc_class,code", [
    (GenerationError, 1), (ClassifyError, 3), (StrataError, 4), (PresentationError, 4),
    (InconsistentPresentationError, 4), (KroneckerError, 4), (PointError, 4),
    (GenericityError, 4)])
@pytest.mark.parametrize("argv,callee", CALLEES, ids=_CALLEE_IDS)
def test_one_table_maps_each_error_to_its_exit_code(argv, callee, exc_class, code,
                                                     capsys, monkeypatch):
    monkeypatch.setattr(cli, callee, _raiser(exc_class))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: planted %s\n" % exc_class.__name__


@pytest.mark.parametrize("exc_class", [RuntimeError, FormError, LinalgError, ValueError])
@pytest.mark.parametrize("argv,callee", CALLEES, ids=_CALLEE_IDS)
def test_errors_outside_the_table_propagate(argv, callee, exc_class, monkeypatch):
    monkeypatch.setattr(cli, callee, _raiser(exc_class))
    with pytest.raises(exc_class, match="planted"):
        main(argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--input", OC2], ["hilbert", "--input", OC2], ["dual", "--input", OC2],
    ["stability", "--input", OC2], ["bounds", "--chi", "1"], ["dims", "--chi", "1"],
    ["points", "resolve", "--input", TRIANGLE], ["flag-pair", "--input", FLAG_PAIR]])
def test_seed_is_a_usage_error_where_nothing_reads_it(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --seed 1" in captured.err


def test_seed_is_read_by_gen_kron_check_and_verify_tables(capsys):
    gen = ["gen", "--chi", "2", "--stratum", "X_3"]
    assert run(capsys, *gen, "--seed", "7") != run(capsys, *gen, "--seed", "8")
    with mock.patch.object(cli, "is_semistable", wraps=cli.is_semistable) as spy:
        assert run(capsys, "kron-check", "--input", PENCIL, "--seed", "7")[0] == 0
    assert spy.call_args.kwargs["seed"] == 7
    with mock.patch.object(cli, "verify_row", wraps=cli.verify_row) as spy:
        assert run(capsys, "verify-tables", "--chi", "3", "--samples", "1",
                   "--seed", "7")[0] == 0
    assert spy.call_count == 9 and {c.args[3] for c in spy.call_args_list} == {7}


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


def test_flag_pair_sextic_that_is_not_text_keeps_its_error(capsys):
    # parse_form hands anything but a str to the grammar match, whose
    # TypeError is the message ("..., got 'int'" from Python 3.11 on)
    with pytest.raises(TypeError) as expected:
        re.fullmatch("", 5)
    blob = json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"]], "sextic": 5})
    assert main(["flag-pair", "--input", blob]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad flag-pair input: %s\n" % expected.value
    assert "expected string or bytes-like object" in err
    if sys.version_info >= (3, 11):
        assert err.endswith("got 'int'\n")


def test_parser_crashes_are_parse_errors(capsys):
    # a zero denominator, a numeral beyond Python's int-conversion limit, a
    # digit that is not decimal, and a coefficient of more than 4300 digits
    # built from short numerals (a product of five 1000-digit numerals, a sum
    # of five fractions with 998-digit denominators) are parse errors, not
    # tracebacks with exit 1
    product = "*".join(["9" * 1000] * 5) + "*X^6"
    fractions = " + ".join("1/%d*X^6" % (10 ** 997 + k) for k in range(1, 6))
    for entry in ("1/0*X^6", "7" * 5000 + "*X^6", "2\u00b2*X^6", product, fractions):
        blob = json.dumps({"source": [-4], "target": [2], "matrix": [[entry]]})
        for cmd in ("classify", "dual"):
            code = main([cmd, "--input", blob])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (cmd, entry[:20])
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_malformed_matrix_and_infinite_twist_are_parse_errors(capsys):
    # a twist that is not an integer is rejected, not truncated
    for blob in ('{"source": [], "target": [], "matrix": null}',
                 '{"source": [-1], "target": [0], "matrix": [5]}',
                 '{"source": [1e400], "target": [2], "matrix": [["X"]]}',
                 '{"source": [-1.5], "target": [0.9], "matrix": [["X"]]}',
                 # a bool or a numeric string is not converted to a twist
                 '{"source": [true], "target": [0], "matrix": [["X"]]}',
                 '{"source": [-1], "target": ["2"], "matrix": [["X"]]}'):
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
    assert main(["kron-check", "--input", block, "--seed", "7"]) == 0
    capsys.readouterr()
    for argv, expected in zip(later, fresh):
        assert run(capsys, *argv) == (0, expected), argv[0]
    args = cli._PARSER.parse_args(["kron-check", "--input", block])
    assert args.seed == cli.DEFAULT_SEED


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
    singular = draw(st.sampled_from(["as drawn", "zero row", "repeated column"]))
    if singular == "zero row" and rows:
        rows[0] = ["0"] * len(source)
    elif singular == "repeated column" and len(source) > 1:
        source[1] = source[0]
        for row in rows:
            row[1] = row[0]
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


_COMMANDS = [["classify"], ["hilbert"], ["dual"], ["kron-check"]] + [
    ["stability", "--criterion", c] for c in ("auto", "minor-gcd", "two-by-two", "pencil-block")]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.sampled_from(_COMMANDS), _BLOBS)
def test_generated_input_exits_0_to_4_without_traceback(command, blob):
    code, err = _call([*command, "--input", json.dumps(blob)])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err


@st.composite
def _square_sextic_blobs(draw):
    """(variant, blob): a square presentation with sum(target) - sum(source)
    = 6 and sparse entries of the required degrees, as drawn or made
    singular by a zero row or by a repeated column."""
    variant = draw(st.sampled_from(["as drawn", "zero row", "repeated column"]))
    n = draw(st.integers(2 if variant == "repeated column" else 1, 3))
    source = draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n))
    if variant == "repeated column":
        source[1] = source[0]
    cuts = sorted(draw(st.lists(st.integers(0, 6), min_size=n - 1, max_size=n - 1)))
    target = [d + b - a for d, a, b in zip(source, [0] + cuts, cuts + [6])]
    rows = []
    for e in target:
        row = []
        for d in source:
            terms = {}
            if e >= d:
                terms = draw(st.dictionaries(st.sampled_from(monomials(e - d)),
                                             st.integers(-3, 3), max_size=4))
            row.append(format_form(Form.from_dict(max(e - d, 0), terms)))
        rows.append(row)
    if variant == "zero row":
        rows[0] = ["0"] * n
    elif variant == "repeated column":
        for row in rows:
            row[1] = row[0]
    return variant, {"source": source, "target": target, "matrix": rows}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_square_sextic_blobs())
def test_square_sextic_input_reaches_the_injectivity_decision(case):
    variant, blob = case
    injective = is_injective(Presentation.from_json(blob))
    if variant != "as drawn":
        assert not injective
    # every example gets past parsing and the Hilbert data to the decision
    with mock.patch.object(strata, "is_injective", wraps=strata.is_injective) as spy:
        code, err = _call(["classify", "--input", json.dumps(blob)])
    assert spy.call_count == 1
    assert code in (0, 3, 4) and "Traceback" not in err
    if not injective:
        assert code == 4
