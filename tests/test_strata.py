import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from planesheaves import strata
from planesheaves.cli import main
from planesheaves.forms import Form, monomials, random_form, space_dim
from planesheaves.linalg import QMatrix
from planesheaves.presentation import (Presentation, derive_seed, dual, hilbert,
                                       is_injective, minimal_presentation, profile, twist)
from planesheaves.strata import (REGISTRY, ClassifyError, MODULI_DIM,
                                 NotSemistableError, StrataError, StratumRow,
                                 _SIDE_CONDITIONS,
                                 apply_recipe,
                                 classify, dim_audit, generate,
                                 generic_stabilizer_dim, get_row,
                                 normalize_chi, rows_for_chi, side_condition,
                                 verify_row)
from helpers import random_equivalence

SEXTIC = "X^6 + Y^6 + Z^6 + X*Y*Z^4 + 2*X^2*Y^2*Z^2"

EXPECTED_ROWS = {
    # chi -> {id: (codim, source, target, conditions)}
    1: {
        "X_0": (0, (-2,) * 5, (-1, -1, -1, -1, 0), {"h0_Fm1": 0, "h1_F": 0, "h0_omega": 0}),
        "X_1": (2, (-3, -2, -2), (-1, 0, 0), {"h0_Fm1": 0, "h1_F": 1, "h0_omega": 0}),
        "X_2": (4, (-3, -2, -2, -1), (-1, -1, 0, 0), {"h0_Fm1": 0, "h1_F": 1, "h0_omega": 1}),
        "X_3": (6, (-3, -3, -1, -1), (-2, 0, 0, 0), {"h0_Fm1": 0, "h1_F": 2, "h0_omega": 2}),
        "X_4": (6, (-3, -3), (-1, 1), {"h0_Fm1": 1, "h1_F": 2, "h0_omega": 3}),
        "X_5": (8, (-4, -1), (0, 1), {"h0_Fm1": 1, "h1_F": 3, "h0_omega": 4}),
    },
    2: {
        "X_0": (0, (-2,) * 4, (-1, -1, 0, 0), {"h0_Fm1": 0, "h1_F": 0, "h0_omega": 0}),
        "X_1": (3, (-2, -2, -2, -2, -1), (-1, -1, -1, 0, 0), {"h0_Fm1": 0, "h1_F": 0, "h0_omega": 1}),
        "X_2": (3, (-3, -2, -1), (0, 0, 0), {"h0_Fm1": 0, "h1_F": 1, "h0_omega": 1}),
        "X_3": (5, (-3, -2, -1, -1), (-1, 0, 0, 0), {"h0_Fm1": 0, "h1_F": 1, "h0_omega": 2}),
        "X_4": (5, (-3, -2, -2), (-1, -1, 1), {"h0_Fm1": 1, "h1_F": 1, "h0_omega": 3}),
        "X_5": (7, (-3, -3, -1), (-2, 0, 1), {"h0_Fm1": 1, "h1_F": 2, "h0_omega": 4}),
        "X_6": (9, (-4, 0), (1, 1), {"h0_Fm1": 2, "h1_F": 3, "h0_omega": 6}),
    },
    3: {
        "X_0": (0, (-2,) * 3, (0,) * 3, {"h0_Fm1": 0, "h1_F": 0, "h0_omega": 0}),
        "X_1": (1, (-2, -2, -2, -1), (-1, 0, 0, 0), {"h0_Fm1": 0, "h1_F": 0, "h0_omega": 1}),
        "X_2": (4, (-2, -2, -2, -1, -1), (-1, -1, 0, 0, 0), {"h0_Fm1": 0, "h1_F": 0, "h0_omega": 2}),
        "X_3": (4, (-3, -1, -1, -1), (0,) * 4, {"h0_Fm1": 0, "h1_F": 1, "h0_omega": 3}),
        "X_3D": (4, (-2,) * 4, (-1, -1, -1, 1), {"h0_Fm1": 1, "h1_F": 0, "h0_omega": 3}),
        "X_4": (5, (-3, -2), (0, 1), {"h0_Fm1": 1, "h1_F": 1, "h0_omega": 3}),
        "X_5": (6, (-3, -2, -1), (-1, 0, 1), {"h0_Fm1": 1, "h1_F": 1, "h0_omega": 4}),
        "X_6": (8, (-3, -3, 0), (-2, 1, 1), {"h0_Fm1": 2, "h1_F": 2, "h0_omega": 6}),
        "X_7": (10, (-4,), (2,), {"h0_Fm1": 3, "h1_F": 3, "h0_omega": 8}),
    },
    0: {
        "X_0": (0, (-2,) * 6, (-1,) * 6, {"h0_Fm1": 0, "h1_F": 0, "h1_F1": 0}),
        "X_1": (1, (-3, -2, -2, -2), (-1, -1, -1, 0), {"h0_Fm1": 0, "h1_F": 1, "h1_F1": 0}),
        "X_2": (4, (-3, -3), (0, 0), {"h0_Fm1": 0, "h1_F": 2, "h1_F1": 0}),
        "X_3": (7, (-4, -1, -1), (0, 0, 0), {"h0_Fm1": 0, "h1_F": 3, "h1_F1": 1}),
        "X_3D": (7, (-3, -3, -3), (-2, -2, 1), {"h0_Fm1": 1, "h1_F": 3, "h1_F1": 0}),
        "X_4": (8, (-4, -2), (-1, 1), {"h0_Fm1": 1, "h1_F": 3, "h1_F1": 1}),
    },
}


# -- registry ----------------------------------------------------------------

def test_registry_counts():
    assert len(REGISTRY) == 28
    assert {chi: len(rows_for_chi(chi)) for chi in (1, 2, 3, 0)} == {1: 6, 2: 7, 3: 9, 0: 6}


def test_registry_matches_hardcoded_expectations():
    for chi, expected in EXPECTED_ROWS.items():
        rows = {r.id: r for r in rows_for_chi(chi)}
        assert set(rows) == set(expected)
        for sid, (codim, source, target, conditions) in expected.items():
            row = rows[sid]
            assert row.codim == codim
            assert row.source == source
            assert row.target == target
            assert row.conditions == conditions


def test_zero_cells_are_the_degree_zero_cells():
    # the forced zeros the registry listed before they were derived from the twists
    listed = {(1, "X_2"): ((0, 3), (1, 3)), (2, "X_1"): ((0, 4), (1, 4), (2, 4)),
              (2, "X_3"): ((0, 2), (0, 3)), (3, "X_1"): ((0, 3),),
              (3, "X_2"): ((0, 3), (0, 4), (1, 3), (1, 4)), (3, "X_5"): ((0, 2),)}
    for row in REGISTRY:
        assert row.zero_cells == listed.get((row.chi, row.id), ())


def test_registry_condition_vectors_pairwise_distinct():
    for chi in (0, 1, 2, 3):
        seen = set()
        for row in rows_for_chi(chi):
            key = tuple(sorted(row.conditions.items()))
            assert key not in seen
            seen.add(key)


def test_every_row_needs_no_normalization():
    # generation returns the profile classify computed: P's own, since the
    # recipe that normalize_chi gives a registry row's Hilbert data is empty
    for row in REGISTRY:
        zero = Presentation(row.source, row.target,
                            [[Form.zero(0)] * len(row.source) for _ in row.target])
        hd = hilbert(zero)
        assert (hd.r, hd.chi) == (6, row.chi) and row.chi in (0, 1, 2, 3)
        assert normalize_chi(hd.r, hd.chi) == (row.chi, [])


def test_registry_file_is_what_we_loaded():
    with resources.files("planesheaves.data").joinpath("strata_registry.json").open() as fh:
        raw = json.load(fh)
    # the rows are the whole file: MODULI_DIM is the one copy of the dimension
    assert set(raw) == {"rows"} and MODULI_DIM == 37
    assert len(raw["rows"]) == 28


def test_registry_rows_and_side_conditions_agree_key_for_key():
    with resources.files("planesheaves.data").joinpath("strata_registry.json").open() as fh:
        raw = json.load(fh)
    fields = {f.name for f in dataclasses.fields(StratumRow)}
    assert all(set(row) == fields for row in raw["rows"])
    # a mistyped key in the side-condition table would silently drop a row's
    # condition, since a row without an entry passes
    keys = {(row.chi, row.id) for row in REGISTRY}
    assert set(_SIDE_CONDITIONS) <= keys
    assert keys - set(_SIDE_CONDITIONS) == {(3, "X_0"), (3, "X_7")}


# -- normalize_chi -------------------------------------------------------------

def test_normalize_examples():
    assert normalize_chi(6, 7) == (1, [{"op": "twist", "k": -1}])
    assert normalize_chi(6, 5) == (1, [{"op": "dualize"}, {"op": "twist", "k": 1}])
    assert normalize_chi(6, -2) == (2, [{"op": "dualize"}])
    assert normalize_chi(6, 2) == (2, [])
    with pytest.raises(StrataError):
        normalize_chi(5, 1)


def test_recipe_application():
    P = Presentation.from_text([-4], [2], [[SEXTIC]])
    shifted = twist(P, 1)       # chi = 9
    chi_bar, recipe = normalize_chi(6, hilbert(shifted).chi)
    assert chi_bar == 3
    Q = apply_recipe(shifted, recipe)
    assert hilbert(Q).chi == 3


# -- classify -------------------------------------------------------------------

def test_classify_oc2():
    P = Presentation.from_text([-4], [2], [[SEXTIC]])
    label = classify(P)
    assert (label.chi, label.id, label.codim) == (3, "X_7", 10)


def test_classify_chi0_x4():
    P = generate(0, "X_4", seed=1)
    label = classify(P)
    assert (label.chi, label.id, label.codim) == (0, "X_4", 8)


def test_classify_chi0_open():
    P = generate(0, "X_0", seed=1)
    assert classify(P).id == "X_0"


def test_classify_normalizes_twists():
    P = twist(Presentation.from_text([-4], [2], [[SEXTIC]]), 2)   # chi = 15
    label = classify(P)
    assert (label.chi, label.id) == (3, "X_7")


def test_classify_profile_not_in_table():
    # a wildly unbalanced direct sum of line sheaves: multiplicity 6 but a
    # cohomology vector no semistable sheaf realizes
    lines = ["X", "Y", "Z", "X + Y", "Y + Z", "X + Z"]
    ks = [-3, -3, -3, 0, 0, 0]
    rows = [[lines[i] if i == j else "0" for j in range(6)] for i in range(6)]
    P = Presentation.from_text([k - 1 for k in ks], ks, rows)
    assert hilbert(P).r == 6
    with pytest.raises(ClassifyError):
        classify(P)


def test_classify_refutes_a_chi_1_sheaf_that_is_not_simple():
    # O_L + O_Q(1): chi 1, and the line has slope 1 > 1/6
    P = Presentation.from_text([-1, -4], [0, 1], [["X", "0"], ["0", "X^5 + Y^5 + Z^5"]])
    assert hilbert(P).chi == 1
    with pytest.raises(NotSemistableError, match=r"End\(F\) = 2"):
        classify(P)
    assert not isinstance(NotSemistableError(), ClassifyError)


# O_L + O_Q(1) plus a unit summand O(30) -> O(30): the same sheaf
UNIT_SUMMAND = Presentation.from_text([-1, -4, 30], [0, 1, 30],
                                      [["X", "0", "0"], ["0", "X^5 + Y^5 + Z^5", "0"],
                                       ["0", "0", "1"]])


def test_end_f_is_read_on_the_presentation_without_its_unit_pairs(monkeypatch):
    # the system of the presentation as given has a (31^2)-column block per
    # cell of the unit's row and column; End(F) sees only the two summands
    seen = []
    real = strata._stabilizer_solutions
    monkeypatch.setattr(strata, "_stabilizer_solutions",
                        lambda P, injective: seen.append(P) or real(P, injective))
    with pytest.raises(NotSemistableError, match=r"End\(F\) = 2"):
        classify(UNIT_SUMMAND)
    assert [(P.source, P.target) for P in seen] == [((-4, -1), (0, 1))]


def test_chi_1_samples_with_a_mixed_unit_summand_keep_their_labels():
    # each chi 1 sample plus O(t) -> O(t), mixed by the group action so that
    # the unit spreads over the constant cells
    rng = random.Random(2)
    labels = []
    for row in rows_for_chi(1):
        for seed in range(3):
            P = generate(1, row.id, seed=seed)
            zero = [Form.zero(0)] * len(P.source)
            for t in (-1, 0, 2):
                Q = random_equivalence(Presentation(
                    P.source + (t,), P.target + (t,),
                    [list(r) + [Form.zero(0)] for r in P.matrix] + [zero + [Form.constant(1)]]),
                    rng)
                label = classify(Q)
                labels.append((label.chi, label.id) == (1, row.id))
                M = minimal_presentation(Q)
                assert (M.source, M.target) == (row.source, row.target)
    assert labels == [True] * 54


def test_every_chi_1_sample_and_its_dual_keeps_its_label():
    # semistable at chi 1 is stable, hence simple: no registry sample is refused
    for seed in range(20):
        for row in rows_for_chi(1):
            P = generate(1, row.id, seed=seed)
            for Q in (P, dual(P)):
                label = classify(Q)
                assert (label.chi, label.id) == (1, row.id), (row.id, seed)


# -- side conditions -------------------------------------------------------------

def test_side_condition_pass_and_fail():
    P = generate(3, "X_5", seed=2)
    row = get_row(3, "X_5")
    assert side_condition(P, row).status == "pass"

    # dependent pencil entries in the chi=1 X_3 shape
    bad = Presentation.from_text(
        [-3, -3, -1, -1], [-2, 0, 0, 0],
        [["X", "X", "0", "0"],
         ["X^3", "Y^3", "X", "Y"],
         ["Y^3", "Z^3", "Y", "Z"],
         ["Z^3", "X^3", "Z", "X"]])
    assert side_condition(bad, get_row(1, "X_3")).status == "fail"


def test_side_condition_unknown_for_orbit_rows():
    P = generate(2, "X_0", seed=3)
    res = side_condition(P, get_row(2, "X_0"))
    assert res.status == "unknown"
    assert "orbit" in res.reason


def test_side_condition_shape_mismatch_errors():
    P = generate(1, "X_0", seed=1)
    with pytest.raises(StrataError):
        side_condition(P, get_row(3, "X_7"))


# (density, coefficient bound) of the corpus draws, cycled over k
_CORPUS_SETTINGS = ((1.0, 9), (0.8, 2), (0.5, 1))
# sha256 of the 840 statuses, row by row in registry order, space-separated
CORPUS_SHA256 = "e9fb5fe55f7354b2b8c20fa4e4ec4a9660be35b6248f94b6d78c3b9e909a5e2b"


def _corpus_draw(row, k):
    """A raw draw of the row's shape, no filter: each cell of nonnegative
    degree outside the forced zeros is kept with the setting's density and
    gets a random form; the rest stay zero.  Sparse, small draws reach the
    fail path of every clause kind."""
    density, bound = _CORPUS_SETTINGS[k % 3]
    rng = random.Random(derive_seed("side-corpus", row.chi, row.id, k))
    zero = set(row.zero_cells)
    matrix = [[random_form(e - d, rng, bound)
               if e >= d and (i, j) not in zero and rng.random() < density
               else Form.zero(0)
               for j, d in enumerate(row.source)]
              for i, e in enumerate(row.target)]
    return Presentation(row.source, row.target, matrix)


def test_side_condition_corpus():
    # 30 raw draws per row pin every row's verdicts, fail paths included;
    # generate alone pins only the draws before each accepted one
    statuses = {(row.chi, row.id): [side_condition(_corpus_draw(row, k), row).status
                                    for k in range(30)]
                for row in REGISTRY}
    flat = [s for row in REGISTRY for s in statuses[row.chi, row.id]]
    assert [flat.count(s) for s in ("pass", "fail", "unknown")] == [468, 234, 138]
    assert hashlib.sha256(" ".join(flat).encode()).hexdigest() == CORPUS_SHA256
    # every row with a condition beyond the orbit marker fails somewhere
    failing = {key for key, seq in statuses.items() if "fail" in seq}
    assert len(failing) == 22
    assert failing.isdisjoint({(3, "X_0"), (3, "X_7"),
                               (1, "X_1"), (2, "X_0"), (2, "X_2"), (2, "X_4")})


# Direct sums of two curves, of degrees a and 6 - a, each with a pair of
# twists: the sum is semistable iff its summands have equal slope, that is
# iff k1 - k2 = a - 3.  The semistable ones get these labels, by a.
DIRECT_SUM_LABELS = {1: (0, "X_4"), 2: (3, "X_4"), 3: (0, "X_2"), 4: (3, "X_4"), 5: (0, "X_4")}
# classify refutes a chi 1 sum by End(F) but assumes semistability at the
# other chi, so it labels some sums that are not semistable and exits 0.  The
# counts by label may fall, never rise.
SILENT_LABEL_CAPS = {(0, "X_4"): 8, (2, "X_6"): 16, (3, "X_4"): 10, (3, "X_7"): 24}


def test_direct_sums_get_their_known_labels_and_no_more_silent_ones():
    rng = random.Random(11)
    labelled = refused = not_simple = 0
    silent = {}
    for a in range(1, 6):
        for k1 in range(-2, 4):
            for k2 in range(-2, 4):
                c1 = random_form(a, rng, 9)
                c2 = random_form(6 - a, rng, 9)
                P = Presentation([-a + k1, -(6 - a) + k2], [k1, k2],
                                 [[c1, Form.zero(0)], [Form.zero(0), c2]])
                if k1 - k2 == a - 3:
                    label = classify(P)
                    assert (label.chi, label.id) == DIRECT_SUM_LABELS[a], (a, k1, k2)
                    labelled += 1
                    continue
                try:
                    label = classify(P)
                except ClassifyError:
                    refused += 1
                    continue
                except NotSemistableError:
                    not_simple += 1
                    continue
                key = (label.chi, label.id)
                silent[key] = silent.get(key, 0) + 1
    assert labelled == 24
    assert (refused, not_simple) == (46, 52)
    assert refused + not_simple + sum(silent.values()) == 156
    assert set(silent) <= set(SILENT_LABEL_CAPS)
    assert all(n <= SILENT_LABEL_CAPS[key] for key, n in silent.items()), silent
    assert sum(silent.values()) <= 58


def test_side_condition_names_a_nonzero_forced_zero_cell():
    row = get_row(1, "X_2")
    P = generate(1, "X_2", seed=1)
    i, j = row.zero_cells[0]
    matrix = [list(r) for r in P.matrix]
    matrix[i][j] = Form(0, [1])
    res = side_condition(Presentation(P.source, P.target, matrix), row)
    assert (res.status, res.reason) == ("fail", "forced zero cell is nonzero")


# -- generate ---------------------------------------------------------------------

@pytest.mark.parametrize("chi,sid", [(row.chi, row.id) for row in REGISTRY])
def test_generate_round_trip(chi, sid):
    # generate accepts on the side condition and injectivity alone; the
    # classifier still finds the row
    P = generate(chi, sid, seed=11)
    label = classify(P)
    assert (label.chi, label.id) == (chi, sid)
    hd = hilbert(P)
    assert (hd.r, hd.chi) == (6, chi)


def test_generate_expected_profiles():
    assert profile(generate(1, "X_0", seed=5)).as_tuple()[:3] == (0, 0, 0)
    p = profile(generate(3, "X_3D", seed=5))
    assert (p.h0_Fm1, p.h1_F, p.h0_omega) == (1, 0, 3)
    p = profile(generate(2, "X_6", seed=5))
    assert (p.h0_Fm1, p.h1_F, p.h0_omega) == (2, 3, 6)


def test_generated_presentations_are_what_validation_would_build():
    # generate builds its draws unvalidated: the registry twists are sorted
    # and every cell has its degree, so validating changes nothing
    for row in REGISTRY:
        assert list(row.source) == sorted(row.source)
        assert list(row.target) == sorted(row.target)
        P = generate(row.chi, row.id, seed=3)
        assert Presentation(P.source, P.target, P.matrix) == P, (row.chi, row.id)


def test_generate_determinism():
    a = generate(2, "X_3", seed=7)
    b = generate(2, "X_3", seed=7)
    assert a == b


# -- duality closure ---------------------------------------------------------------

@pytest.mark.parametrize("chi,sid,expected", [
    (3, "X_3", "X_3D"), (3, "X_3D", "X_3"), (3, "X_0", "X_0"), (3, "X_7", "X_7"),
    (0, "X_3", "X_3D"), (0, "X_3D", "X_3"), (0, "X_0", "X_0"),
    (0, "X_1", "X_1"), (0, "X_2", "X_2"), (0, "X_4", "X_4"),
])
def test_duality_closure(chi, sid, expected):
    P = generate(chi, sid, seed=13)
    label = classify(dual(P))
    assert (label.chi, label.id) == (chi, expected)
    assert get_row(chi, sid).dual_id == expected


# -- dimension audit ----------------------------------------------------------------

def test_dim_audit_hand_anchors():
    a = dim_audit(get_row(1, "X_0"))
    assert (a.dimW, a.dimG, a.dimX) == (90, 53, 37)
    a = dim_audit(get_row(1, "X_5"))
    assert (a.dimW, a.dimG, a.dimX) == (45, 16, 29)
    a = dim_audit(get_row(2, "X_6"))
    assert (a.dimW, a.dimG, a.dimX) == (48, 20, 28)
    a = dim_audit(get_row(3, "X_4"))
    assert (a.dimW, a.dimG, a.dimX) == (41, 9, 32)


def test_dim_audit_corrected_identity_all_rows():
    gaps = {}
    for row in REGISTRY:
        a = dim_audit(row)
        assert a.check_corrected, (row.chi, row.id, a)
        if not a.check:
            gaps[(row.chi, row.id)] = a.stabilizer_dim - a.forced_zero_dims
    # the uncorrected product formula fails exactly on the three strata with
    # positive-dimensional generic stabilizers and no compensating zero cells
    assert gaps == {(1, "X_3"): 6, (2, "X_5"): 3, (3, "X_6"): 6}


def test_stabilizer_dim_matches_forced_zeros_on_flag_rows():
    for chi, sid in [(2, "X_1"), (3, "X_2"), (3, "X_5")]:
        row = get_row(chi, sid)
        P = generate(chi, sid, seed=3)
        z = len(row.zero_cells)
        assert generic_stabilizer_dim(P) == z


def test_generic_stabilizer_dims_match_the_dims_column(capsys):
    assert main(["dims"]) == 0
    column = {(a["chi"], a["stratum"]): a["stabilizer_dim"]
              for a in json.loads(capsys.readouterr().out)["rows"]}
    direct = {(row.chi, row.id): generic_stabilizer_dim(
                  generate(row.chi, row.id, seed=derive_seed("audit", row.chi, row.id, 0)))
              for row in REGISTRY}
    assert len(direct) == 28
    assert direct == column


def _exact_stabilizer_dim(P):
    """nvars - rank - 1 for the map (gA, gB) -> gB . phi - phi . gA, built
    here one unknown monomial at a time and ranked by the exact elimination."""
    d, e = P.source, P.target
    cells = [(i, j) for i in range(len(e)) for j in range(len(d)) if e[i] >= d[j]]
    offset, n = {}, 0
    for i, j in cells:
        offset[i, j] = n
        n += space_dim(e[i] - d[j])

    def image(products):
        v = [0] * n
        for (i, j), f in products:
            if (i, j) in offset and not f.is_zero():
                for k, c in enumerate(f.coeffs):
                    v[offset[i, j] + k] += c
        return v

    columns = []
    for side, t in (("A", d), ("B", e)):
        for a in range(len(t)):
            for b in range(len(t)):
                if t[a] < t[b]:
                    continue
                for mono in monomials(t[a] - t[b]):
                    m = Form.monomial(*mono)
                    if side == "B":     # gB[a][b] = m: row a of gB . phi
                        columns.append(image(((a, j), m * P.matrix[b][j])
                                             for j in range(len(d))))
                    else:               # gA[a][b] = m: column b of -phi . gA
                        columns.append(image(((i, b), -(P.matrix[i][a] * m))
                                             for i in range(len(e))))
    if not columns:
        return 0
    return len(columns) - QMatrix.from_rows(columns).rank() - 1


def _hom(P):
    return sum(space_dim(dj - ei) for ei in P.target for dj in P.source)


def _system_ranks(monkeypatch):
    """Shapes of the exact ranks taken from here on (the spy of QMatrix.rank)."""
    shapes = []
    rank = QMatrix.rank

    def spy(self):
        shapes.append((self.rows, self.cols))
        return rank(self)

    monkeypatch.setattr(QMatrix, "rank", spy)
    return shapes


def _rational_copy(P, rng):
    """diag(r) . phi . diag(c) with r_i = a/11 and c_j = b/13, a, b in 1..9:
    an equivalent presentation whose coefficients are all Fractions."""
    r = [Fraction(rng.randint(1, 9), 11) for _ in P.target]
    c = [Fraction(rng.randint(1, 9), 13) for _ in P.source]
    return Presentation(P.source, P.target,
                        [[Form(f.degree, [Fraction(x) * ri * cj for x in f.coeffs])
                          for f, cj in zip(row, c)] for row, ri in zip(P.matrix, r)])


def _integral_fraction_copy(P):
    """P itself, with every coefficient c written as Fraction(c)."""
    return Presentation(P.source, P.target,
                        [[Form(f.degree, [Fraction(x) for x in f.coeffs]) for f in row]
                         for row in P.matrix])


def test_certified_stabilizer_equals_the_exact_one_on_every_row(monkeypatch):
    """The modular certificate against an exact rank built independently, on
    all 28 rows at 20 seeds, and at three of them also on the dual, a random
    equivalence, a rational rescaling (whose system is scaled to integers
    by the lcm of its denominators) and a copy whose coefficients are
    Fractions of denominator 1 (lcm 1, yet they must still become ints): the
    generic stabilizer is hom on every one, and no stabilizer system goes to
    the exact elimination."""
    for seed in range(20):
        rng = random.Random(seed)
        for row in REGISTRY:
            P = generate(row.chi, row.id, seed=seed)
            copies = {"generated": P}
            if seed < 3:
                copies.update(dual=dual(P), equivalent=random_equivalence(P, rng),
                              rational=_rational_copy(P, rng),
                              integral_fractions=_integral_fraction_copy(P))
                for name in ("rational", "integral_fractions"):
                    assert all(type(x) is Fraction for r in copies[name].matrix
                               for f in r for x in f.coeffs)
            for name, Q in copies.items():
                exact = _exact_stabilizer_dim(Q)
                shapes = _system_ranks(monkeypatch)
                assert generic_stabilizer_dim(Q) == exact == _hom(Q), \
                    (row.chi, row.id, seed, name)
                # only is_injective's evaluation matrix, len(target) x len(source)
                assert all(shape == (len(Q.target), len(Q.source)) for shape in shapes)
                monkeypatch.undo()


def _stages(monkeypatch):
    """The certificate stages run from here on, in order: "2" for the rank
    over GF(2), "32749" for the rank modulo CERTIFICATE_PRIME, "exact" for
    an exact rank of a system larger than is_injective's evaluation matrix."""
    ran = []
    for name, stage in (("gf2_rank", "2"), ("mod_rank", "32749")):
        def spy(*args, _rank=getattr(strata, name), _stage=stage):
            ran.append(_stage)
            return _rank(*args)
        monkeypatch.setattr(strata, name, spy)
    shapes = _system_ranks(monkeypatch)
    return ran, shapes


def _exact_ran(P, shapes):
    return any(shape != (len(P.target), len(P.source)) for shape in shapes)


def _scaled_corner(P, q):
    """P with the coefficients of its (0, 0) entry divided by q, so the scale
    L of its stabilizer system is q and every other entry is a multiple of q."""
    return Presentation(P.source, P.target,
                        [[Form(f.degree, [Fraction(c, q) for c in f.coeffs]) if (i, j) == (0, 0)
                          else f for j, f in enumerate(row)]
                         for i, row in enumerate(P.matrix)])


def _fallback_cases():
    cubic1, cubic2 = "X^3 + Y^3 + Z^3", "X^3 + 2*Y^3 - Z^3 + X*Y*Z"
    two_curves = Presentation.from_text([-3, -3], [0, 0], [[cubic1, "0"], ["0", cubic2]])
    one_curve_twice = Presentation.from_text([-3, -3], [0, 0], [[cubic1, "0"], ["0", cubic1]])
    not_injective = Presentation.from_text([-3, -3], [0, 0], [["X^3", "X^3"], ["Y^3", "Y^3"]])
    too_wide = Presentation.from_text([-1, -1], [0], [["X", "Y"]])
    P = generate(3, "X_5", seed=4)
    p = 32749
    # O_C1 + O_C2 has End = k^2, O_C + O_C has End = M_2(k); an odd scale
    # leaves GF(2) its certificate, an even one zeroes every entry but the
    # corner mod 2, and 2p zeroes them modulo both primes
    return [("O_C1 + O_C2", two_curves, 1, ("2", "32749", "exact")),
            ("O_C + O_C", one_curve_twice, 3, ("2", "32749", "exact")),
            ("not injective", not_injective, None, ("exact",)),
            ("more source summands", too_wide, None, ("exact",)),
            ("denominator 32749", _scaled_corner(P, p), _hom(P), ("2",)),
            ("denominator 2", _scaled_corner(P, 2), _hom(P), ("2", "32749")),
            ("denominator 65498", _scaled_corner(P, 2 * p), _hom(P), ("2", "32749", "exact"))]


@pytest.mark.parametrize("case", range(7))
def test_stabilizer_falls_back_to_the_exact_rank(case, monkeypatch):
    """Each certificate stage, pinned: GF(2) first, then the word-size
    prime, then the exact rank, and the same dimension whichever decides."""
    name, P, expected, stages = _fallback_cases()[case]
    exact = _exact_stabilizer_dim(P)
    if expected is not None:
        assert exact == expected, name
    elif len(P.source) <= len(P.target):
        assert not is_injective(P)
    ran, shapes = _stages(monkeypatch)
    assert generic_stabilizer_dim(P) == exact, name
    assert tuple(ran) + (("exact",) if _exact_ran(P, shapes) else ()) == stages, name


def test_gf2_certifies_almost_every_generated_sample(monkeypatch):
    """Of the 560 generated samples (28 rows x seeds 0-19), the rank over
    GF(2) certifies at least 550, and CERTIFICATE_PRIME every other one,
    so neither the fast path nor its fallback goes unused without notice."""
    ran, shapes = _stages(monkeypatch)
    by_gf2 = 0
    for seed in range(20):
        for row in REGISTRY:
            P = generate(row.chi, row.id, seed=seed)
            del ran[:], shapes[:]
            assert generic_stabilizer_dim(P) == _hom(P), (row.chi, row.id, seed)
            assert not _exact_ran(P, shapes), (row.chi, row.id, seed)
            assert ran in (["2"], ["2", "32749"]), (row.chi, row.id, seed)
            by_gf2 += ran == ["2"]
    assert by_gf2 >= 550


# -- verify_row -----------------------------------------------------------------------

def test_verify_row_passes():
    rep = verify_row(1, "X_0", samples=4, seed=21)
    assert rep.passed
    assert rep.attempted == rep.accepted == 4
    assert rep.profile_matches == rep.hilbert_matches == 4


def test_verify_row_report_fields():
    rep = verify_row(3, "X_7", samples=2, seed=22)
    assert rep.passed and not rep.failures
    data = rep.to_json()
    assert data["stratum"] == "X_7" and data["attempted"] == 2
