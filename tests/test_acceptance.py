"""Acceptance suite: one test per criterion, exact tolerances, seeded runs.

Every expected value here is an exact integer; a single mismatch fails the
criterion.  Each test prints a PASS line with its headline numbers (visible
with pytest -s or in the captured output).
"""

import random
from fractions import Fraction

from planesheaves.forms import Form, space_dim
from planesheaves.kronecker import (KroneckerModule, is_semistable,
                                    minors_semistable, verify_destabilizer)
from planesheaves.points import (CLAIMS, BettiShape, PointConfig,
                                 evaluation_matrix, flag_pair_presentation,
                                 minimal_resolution, verify_point_claim)
from planesheaves.presentation import (Presentation, dual, h0_omega, h0_twist,
                                       h1_omega, h1_twist, hilbert, profile)
from planesheaves.stability import BoundsQuery, bounds_check
from planesheaves.strata import (REGISTRY, classify, dim_audit, generate,
                                 get_row)
from helpers import config_satisfying, random_form

ACCEPTANCE_SEED = 20240601
SAMPLES_PER_ROW = 25

_instances_cache = {}


def instances(row, count=SAMPLES_PER_ROW):
    key = (row.chi, row.id)
    if key not in _instances_cache:
        _instances_cache[key] = [
            generate(row.chi, row.id, seed=ACCEPTANCE_SEED + k) for k in range(count)]
    return _instances_cache[key]


# -- criterion 1: table reproduction -------------------------------------------

def test_criterion_1_table_reproduction():
    checked = 0
    for row in REGISTRY:
        for P in instances(row):
            hd = hilbert(P)
            assert (hd.r, hd.chi) == (6, row.chi), (row.id, hd)
            prof = profile(P)
            assert row.matches(prof), (row.chi, row.id, prof.as_tuple())
            label = classify(P)
            assert (label.chi, label.id) == (row.chi, row.id)
            checked += 1
    assert checked == 28 * SAMPLES_PER_ROW
    print("\nPASS criterion 1: %d instances across 28 strata match their "
          "Hilbert data and cohomology profiles exactly" % checked)


# -- criterion 2: codimension audit --------------------------------------------

def test_criterion_2_codimension_audit():
    anchors = {
        (1, "X_0"): (90, 53, 37),
        (1, "X_5"): (45, 16, 29),
        (2, "X_6"): (48, 20, 28),
        (3, "X_4"): (41, 9, 32),
    }
    naive_gaps = {}
    for row in REGISTRY:
        audit = dim_audit(row)
        assert audit.check_corrected, (row.chi, row.id, audit)
        assert audit.dimX_corrected == 37 - row.codim
        if (row.chi, row.id) in anchors:
            assert (audit.dimW, audit.dimG, audit.dimX) == anchors[(row.chi, row.id)]
        if not audit.check:
            naive_gaps[(row.chi, row.id)] = audit.stabilizer_dim
    # the product formula alone misses exactly the three strata whose generic
    # stabilizers are positive-dimensional; the audit flags them explicitly
    assert naive_gaps == {(1, "X_3"): 6, (2, "X_5"): 3, (3, "X_6"): 6}
    print("\nPASS criterion 2: dimW - dimG + stabilizer = 37 - codim on all "
          "28 rows (three flagged stabilizer corrections: %s)" % sorted(naive_gaps))


# -- criterion 3: duality ---------------------------------------------------------

def test_criterion_3_duality():
    checked = 0
    for row in REGISTRY:
        for P in instances(row, count=5):
            D = dual(P)
            hd = hilbert(D)
            assert (hd.r, hd.chi) == (6, -row.chi)
            for t in range(-3, 4):
                assert h1_twist(P, t) == h0_twist(D, -t)
            checked += 1
    x3 = get_row(0, "X_3")
    D = dual(instances(x3, count=1)[0])
    x3d = get_row(0, "X_3D")
    assert (D.source, D.target) == (x3d.source, x3d.target)
    print("\nPASS criterion 3: Serre duality h1(F(t)) = h0(F^D(-t)) exact on "
          "%d instances, t in [-3, 3]; chi=0 X_3 dualizes onto the X_3D shape" % checked)


# -- criterion 4: contraction Euler characteristic --------------------------------

def test_criterion_4_contraction_euler_characteristic():
    checked = 0
    for row in REGISTRY:
        for P in instances(row, count=5):
            assert h0_omega(P) - h1_omega(P) == 2 * row.chi - 6
            checked += 1
    oc2 = Presentation.from_text([-4], [2], [["X^6 + Y^6 + Z^6 + X*Y*Z^4"]])
    assert h0_omega(oc2) == 8
    assert h1_omega(oc2) == 8
    assert h0_omega(oc2) - h1_omega(oc2) == 0 == 2 * 3 - 6
    print("\nPASS criterion 4: h0(F⊗Om(1)) - h1(F⊗Om(1)) = 2chi - 6 on %d "
          "instances; twisted-sextic anchor h0 = 8" % checked)


# -- criterion 5: forbidden vectors -------------------------------------------------

def test_criterion_5_forbidden_vectors():
    forbidden = [
        (BoundsQuery(6, 1, h0_Fm1=1, h1_F=3, h1_F1=0), "forbidden_chi1_a"),
        (BoundsQuery(6, 1, h0_Fm1=1, h1_F=1), "forbidden_chi1_b"),
        (BoundsQuery(6, 1, h0_Fm1=2, h1_F1=0), "forbidden_chi1_c"),
        (BoundsQuery(6, 2, h0_Fm1=0, h1_F=3, h1_F1=0), "forbidden_chi2_a"),
        (BoundsQuery(6, 2, h0_Fm1=0, h1_F=2, h1_F1=0), "forbidden_chi2_b"),
        (BoundsQuery(6, 3, h0_Fm1=1, h1_F=2, h1_F1=0), "forbidden_chi3_a"),
        (BoundsQuery(6, 0, h0_Fm1=0, h1_F=3, h1_F1=0), "forbidden_chi0_a"),
    ]
    for query, rule in forbidden:
        result = bounds_check(query)
        assert not result.allowed and result.rule == rule
    checked = 0
    for row in REGISTRY:
        for P in instances(row, count=5):
            prof = profile(P)
            result = bounds_check(BoundsQuery(6, row.chi, h0_Fm1=prof.h0_Fm1,
                                              h1_F=prof.h1_F, h1_F1=prof.h1_F1))
            assert result.allowed, (row.chi, row.id, prof.as_tuple(), result.rule)
            checked += 1
    print("\nPASS criterion 5: all 7 excluded vectors rejected; all %d realized "
          "profiles allowed" % checked)


# -- criterion 6: point-scheme claims --------------------------------------------------

def test_criterion_6_point_claims():
    rng = random.Random(ACCEPTANCE_SEED)
    total = 0
    for claim_id in ("len8_general", "len5_general", "len7_no_conic", "len9_unique_cubic"):
        claim = CLAIMS[claim_id]
        for _ in range(50):
            cfg = config_satisfying(claim.predicates, claim.size, rng)
            result = verify_point_claim(claim_id, cfg)
            assert result.matched, (claim_id, cfg.to_json(), result.found)
            total += 1
    general = PointConfig([(1, 0, 1), (0, 1, 1), (3, 2, 1)])
    assert minimal_resolution(general) == BettiShape((2, 2, 2), (3, 3))
    colinear = PointConfig([(1, 0, 1), (0, 1, 1), (3, -2, 1)])
    assert minimal_resolution(colinear) == BettiShape((1, 3), (4,))
    print("\nPASS criterion 6: %d/200 generic configurations match the predicted "
          "resolution shapes; both length-3 degenerations verified" % total)


# -- criterion 7: Kronecker consistency -------------------------------------------------

def test_criterion_7_kronecker_consistency():
    rng = random.Random(ACCEPTANCE_SEED + 7)
    agree = 0
    for _ in range(200):
        K = KroneckerModule([[random_form(1, rng) for _ in range(2)] for _ in range(3)])
        verdict = is_semistable(K)
        assert verdict.kind in ("semistable", "unstable")
        assert (verdict.kind == "semistable") == minors_semistable(K)
        agree += 1
    planted = 0
    shapes = [(4, 3, 2, 2), (3, 3, 2, 2), (2, 3, 1, 3), (4, 4, 3, 2), (5, 4, 3, 3),
              (3, 4, 2, 3), (4, 3, 3, 1), (2, 2, 1, 2), (5, 5, 4, 2), (6, 6, 4, 3)]
    for p, q, pp, qq in shapes:
        assert Fraction(pp, p) + Fraction(qq, q) > 1
        for _ in range(5):
            rows = []
            for i in range(q):
                rows.append([Form.zero(1) if (i < qq and j < pp) else random_form(1, rng)
                             for j in range(p)])
            K = KroneckerModule(rows)
            verdict = is_semistable(K)
            assert verdict.kind == "unstable", (p, q, pp, qq)
            assert verify_destabilizer(K, verdict.witness)
            planted += 1
    assert planted == 50
    print("\nPASS criterion 7: 200/200 pencil modules agree with the minors "
          "criterion; 50/50 planted-unstable instances certified exactly")


# -- criterion 8: end-to-end flag pairs ----------------------------------------------------

def _random_sextic_through(cfg, rng):
    kern = evaluation_matrix(cfg, 6).kernel_basis()
    while True:
        coeffs = [Fraction(0)] * space_dim(6)
        for v in kern:
            c = rng.randint(-3, 3)
            if c:
                coeffs = [a + c * b for a, b in zip(coeffs, v)]
        f = Form(6, coeffs)
        if not f.is_zero():
            return f


def test_criterion_8_flag_pairs():
    rng = random.Random(ACCEPTANCE_SEED + 8)
    done = 0
    while done < 20:
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9), 1) for _ in range(2)}
        if len(pts) != 2:
            continue
        cfg = PointConfig(sorted(pts))
        sextic = _random_sextic_through(cfg, rng)
        P = flag_pair_presentation(cfg, sextic)
        label = classify(P)
        assert (label.chi, label.id) == (1, "X_5")
        prof = profile(P)
        assert (prof.h0_Fm1, prof.h1_F, prof.h0_omega) == (1, 3, 4)
        h, ell = P.matrix[0]
        g, q = P.matrix[1]
        assert h * q - ell * g == sextic
        done += 1
    print("\nPASS criterion 8: 20/20 two-point sextic flags classify to "
          "(1, X_5) with profile (1, 3, 4)")
