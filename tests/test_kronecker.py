import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import planesheaves.kronecker as kronecker
from planesheaves.forms import Form, linearly_independent
from planesheaves.kronecker import (CERTIFICATE_PRIME, Destabilizer,
                                    KroneckerError, KroneckerModule,
                                    SemistabilityCertificate,
                                    dim_kronecker_moduli, is_semistable,
                                    minors_semistable,
                                    verify_certificate, verify_destabilizer)
from planesheaves.linalg import QMatrix, from_columns
from planesheaves.strata import generate, get_row, side_condition
from helpers import mat_vec, random_equivalence, random_form


def module(rows):
    return KroneckerModule.from_text(rows)


def conjugate(K, rng):
    """K under the group action: one twist on each side, so constant invertible blocks."""
    return KroneckerModule.from_presentation(random_equivalence(K.to_presentation(), rng))


def random_module(p, q, rng):
    return KroneckerModule([[random_form(1, rng) for _ in range(p)] for _ in range(q)])


def plant_zero_block(p, q, p_prime, q_prime, rng):
    """Literal zero block in rows < q_prime, cols < p_prime."""
    rows = []
    for i in range(q):
        row = []
        for j in range(p):
            if i < q_prime and j < p_prime:
                row.append(Form.zero(1))
            else:
                row.append(random_form(1, rng))
        rows.append(row)
    return KroneckerModule(rows)


def planted_witness(p, q, p_prime, q_prime):
    S = QMatrix(p, p_prime)
    for a in range(p_prime):
        S.data[a][a] = Fraction(1)
    T = QMatrix(q, q - q_prime)
    for a in range(q - q_prime):
        T.data[q_prime + a][a] = Fraction(1)
    return Destabilizer(p_prime, q_prime, S, T)


# -- verify_destabilizer ------------------------------------------------------

def test_verify_whole_zero_column():
    K = module([["X", "0"], ["Y", "0"], ["Z", "0"]])
    S = QMatrix(2, 1, [[0], [1]])
    T = QMatrix(3, 0)
    assert verify_destabilizer(K, Destabilizer(1, 3, S, T))


def test_verify_rejects_generic_block():
    K = module([["X", "Y"], ["Y", "Z"], ["Z", "X"]])
    rng = random.Random(1)
    for _ in range(5):
        S = QMatrix(2, 1, [[rng.randint(-5, 5)], [rng.randint(-5, 5)]])
        if S.rank() == 0:
            continue
        T = QMatrix(3, 1, [[rng.randint(-5, 5)], [rng.randint(-5, 5)], [rng.randint(-5, 5)]])
        if T.rank() == 0:
            continue
        assert not verify_destabilizer(K, Destabilizer(1, 2, S, T))


def test_verify_rejects_non_violating_fraction():
    K = module([["X", "Y"], ["Y", "Z"], ["Z", "X"]])
    S = QMatrix(2, 1, [[1], [0]])
    T = QMatrix(3, 2, [[1, 0], [0, 1], [0, 0]])
    # p'/p + q'/q = 1/2 + 1/3 <= 1: the inequality gate rejects regardless
    assert not verify_destabilizer(K, Destabilizer(1, 1, S, T))


def _identity_columns(n, rows):
    """The n x len(rows) matrix whose k-th column is the unit vector e_rows[k]."""
    return QMatrix(n, len(rows), [[int(i == r) for r in rows] for i in range(n)])


# Destabilizers of the planted 4 x 3 module below (zero block in rows 0, 1
# and columns 0, 1), each failing one check of verify_destabilizer: S is
# 4 x p', T is 3 x (3 - q'), and the planted one is (2, 2, e0 e1, e2).
@pytest.mark.parametrize("p_prime,q_prime,S,T", [
    (2, 2, _identity_columns(3, [0, 1]), _identity_columns(3, [2])),      # S has 3 rows
    (1, 2, _identity_columns(4, [0, 1]), _identity_columns(3, [2])),      # S has 2 columns
    (2, 2, _identity_columns(4, [0, 1]), _identity_columns(4, [2])),      # T has 4 rows
    (2, 1, _identity_columns(4, [0, 1]), _identity_columns(3, [2])),      # T has 1 column
    (0, 2, _identity_columns(4, []), _identity_columns(3, [2])),          # p' = 0
    (5, 2, QMatrix(4, 5), _identity_columns(3, [2])),                     # p' = 5 > p
    (2, 0, _identity_columns(4, [0, 1]), _identity_columns(3, [0, 1, 2])),  # q' = 0
    (1, 1, _identity_columns(4, [0]), _identity_columns(3, [1, 2])),      # 1/4 + 1/3 <= 1
    (2, 2, _identity_columns(4, [0, 0]), _identity_columns(3, [2])),      # rank S = 1
    (2, 2, _identity_columns(4, [0, 1]), QMatrix(3, 1)),                  # rank T = 0
    (2, 2, _identity_columns(4, [0, 1]), _identity_columns(3, [0])),      # K(S) not in T
])
def test_verify_rejects_each_failed_check(p_prime, q_prime, S, T):
    K = plant_zero_block(4, 3, 2, 2, random.Random(7))
    assert verify_destabilizer(K, planted_witness(4, 3, 2, 2))
    assert not verify_destabilizer(K, Destabilizer(p_prime, q_prime, S, T))


def test_verify_rejects_an_image_outside_an_empty_target():
    # T has no columns, so K(S) must be 0: the first column's image is not
    K = module([["X", "0"], ["Y", "0"], ["Z", "0"]])
    assert not verify_destabilizer(K, Destabilizer(1, 3, QMatrix(2, 1, [[1], [0]]), QMatrix(3, 0)))


# -- minors criterion ---------------------------------------------------------

def test_minors_standard_pencil():
    assert minors_semistable(module([["X", "Y"], ["Y", "Z"], ["Z", "X"]]))


def test_minors_with_zero_row():
    assert not minors_semistable(module([["X", "Y"], ["Y", "Z"], ["0", "0"]]))


def test_minors_proportional():
    assert not minors_semistable(module([["X", "0"], ["Y", "0"], ["Z", "X"]]))


def test_minors_transpose_case():
    assert minors_semistable(module([["X", "Y", "Z"], ["Y", "Z", "X"]]))
    with pytest.raises(KroneckerError):
        minors_semistable(module([["X"], ["Y"]]))


@pytest.mark.parametrize("rows,semistable", [
    ([["X", "0"], ["Y", "X"], ["Z", "Y"]], True),          # a zero entry
    ([["X", "0"], ["Y", "0"], ["Z", "X"]], False),         # zero entries, a zero minor
    ([["X", "Y"], ["2*X", "2*Y"], ["Z", "X"]], False),     # dependent minors
    ([["X", "Y"], ["Y", "Z"], ["X + Y", "Y + Z"]], False),
])
def test_minors_in_both_orientations(rows, semistable):
    K = module(rows)
    assert (K.p, K.q) == (2, 3)
    assert minors_semistable(K) == semistable
    assert minors_semistable(K.transpose()) == semistable


# -- is_semistable ------------------------------------------------------------

def test_row_of_independent_entries():
    assert is_semistable(module([["X", "Y"]])).kind == "semistable"


def test_planted_block_detected():
    rng = random.Random(7)
    K = plant_zero_block(4, 3, 2, 2, rng)
    verdict = is_semistable(K)
    assert verdict.kind == "unstable"
    assert verify_destabilizer(K, verdict.witness)
    assert verify_destabilizer(K, planted_witness(4, 3, 2, 2))


def test_random_4x3_certified_semistable():
    rng = random.Random(13)
    K = random_module(3, 4, rng)
    verdict = is_semistable(K)
    assert verdict.kind == "semistable"
    assert verify_certificate(K, verdict.certificate)


def test_minors_agree_with_definite_verdicts():
    rng = random.Random(99)
    for _ in range(40):
        K = random_module(2, 3, rng)
        verdict = is_semistable(K)
        assert verdict.kind in ("semistable", "unstable")
        assert (verdict.kind == "semistable") == minors_semistable(K)


def test_dependent_minors_give_exact_witness():
    K = module([["X", "0"], ["Y", "0"], ["Z", "X"]])
    verdict = is_semistable(K)
    assert verdict.kind == "unstable"
    assert verify_destabilizer(K, verdict.witness)


def test_verdict_invariant_under_conjugation():
    rng = random.Random(5)
    instances = [
        module([["X", "Y"], ["Y", "Z"], ["Z", "X"]]),        # semistable (2,3)
        module([["X", "0"], ["Y", "0"], ["Z", "X"]]),        # unstable (2,3)
        module([["X", "Y", "Z"]]),                           # semistable row
        plant_zero_block(2, 3, 1, 3, rng),                   # zero column
    ]
    for K in instances:
        base = is_semistable(K).kind
        for _ in range(10):
            assert is_semistable(conjugate(K, rng)).kind == base


def test_every_returned_witness_verifies():
    rng = random.Random(21)
    shapes = [(4, 3, 2, 2), (3, 3, 2, 2), (2, 3, 1, 3), (4, 4, 3, 2), (5, 4, 3, 3)]
    for p, q, pp, qq in shapes:
        K = plant_zero_block(p, q, pp, qq, rng)
        verdict = is_semistable(K)
        assert verdict.kind == "unstable"
        assert verify_destabilizer(K, verdict.witness)


def assert_checked(K, verdict):
    """A semistable verdict carries a certificate and an unstable one a
    witness, and the exact checker accepts it."""
    if verdict.kind == "semistable":
        assert verify_certificate(K, verdict.certificate)
    else:
        assert verdict.kind == "unstable" and verify_destabilizer(K, verdict.witness)


@pytest.mark.parametrize("entry,kind", [("X", "semistable"), ("0", "unstable")])
def test_one_by_one_modules_end_with_a_checked_verdict_at_every_seed(entry, kind):
    # pq/g - 1 = 0 for a 1 x 1 module: a draw that vanishes is redrawn at
    # m = 1 (seeds 2, 38, 57, ... draw T_X = 0 for X) instead of shrinking m
    K = module([[entry]])
    for seed in range(200):
        verdict = is_semistable(K, seed)
        assert verdict.kind == kind, seed
        assert_checked(K, verdict)


def lines_with_dependencies(n, rng):
    """n random linear forms, then, at random, one of them replaced by zero,
    by a rational multiple or by a sum of two others, or all of them scaled
    by rationals."""
    fs = [random_form(1, rng) for _ in range(n)]
    k = rng.randrange(n)
    variant = rng.choice(["as drawn", "zero", "multiple", "sum", "rational"])
    if variant == "zero":
        fs[k] = Form.zero(1)
    elif variant == "multiple":
        fs[k] = fs[rng.randrange(n)].scale(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
    elif variant == "sum" and n >= 3:
        fs[k] = fs[(k + 1) % n] + fs[(k + 2) % n]
    elif variant == "rational":
        fs = [f.scale(Fraction(rng.randint(1, 9), rng.randint(1, 13))) for f in fs]
    return fs


def test_rows_and_columns_agree_with_their_closed_form():
    # a row or column is semistable iff its entries are linearly independent
    rng = random.Random(140)
    kinds = Counter()
    for n in range(1, 7):
        for _ in range(12):
            fs = lines_with_dependencies(n, rng)
            expected = "semistable" if linearly_independent(fs) else "unstable"
            for K in (KroneckerModule([fs]), KroneckerModule([[f] for f in fs])):
                verdict = is_semistable(K)
                assert verdict.kind == expected, [str(f) for f in fs]
                assert_checked(K, verdict)
                kinds[n <= 3, verdict.kind] += 1
    assert kinds[True, "semistable"] and kinds[True, "unstable"]


def test_pencils_agree_with_the_minors_criterion():
    rng = random.Random(200)
    kinds = Counter()
    for draw in range(60):
        p, q = ((2, 3), (3, 2))[draw % 2]
        if draw % 3 == 0:
            K = random_module(p, q, rng)
        else:
            # sparse entries, or one column a multiple of another
            rows = [[random_form(1, rng) if rng.random() < 0.6 else Form.zero(1)
                     for _ in range(p)] for _ in range(q)]
            if draw % 3 == 2:
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                rows = [[row[1].scale(c)] + row[1:] for row in rows]
            K = KroneckerModule(rows)
        verdict = is_semistable(K)
        assert (verdict.kind == "semistable") == minors_semistable(K)
        assert_checked(K, verdict)
        kinds[verdict.kind] += 1
    assert kinds["semistable"] and kinds["unstable"]


# -- semistability certificate -------------------------------------------------

# the planted shapes (p, q, p', q') of acceptance criterion 7
PLANTED_SHAPES = [(4, 3, 2, 2), (3, 3, 2, 2), (2, 3, 1, 3), (4, 4, 3, 2), (5, 4, 3, 3),
                  (3, 4, 2, 3), (4, 3, 3, 1), (2, 2, 1, 2), (5, 5, 4, 2), (6, 6, 4, 3)]

# the six registry rows whose Kronecker block has no closed form: (rows, cols)
UNKNOWN_KRONECKER_BLOCKS = {
    (1, "X_0"): (range(4), range(5)),
    (2, "X_1"): ((0, 1, 2), (0, 1, 2, 3)),
    (3, "X_3"): (range(4), (1, 2, 3)),
    (3, "X_3D"): ((0, 1, 2), range(4)),
    (0, "X_0"): (range(6), range(6)),
    (0, "X_1"): ((0, 1, 2), (1, 2, 3)),
}


def test_no_certificate_for_a_planted_unstable_module():
    rng = random.Random(2024)
    issued = 0
    for p, q, pp, qq in PLANTED_SHAPES:
        for draw in range(5):
            K = plant_zero_block(p, q, pp, qq, rng)
            for M in (K, K.transpose()):
                for seed in range(3):
                    if is_semistable(M, seed).certificate is not None:
                        issued += 1
    assert issued == 0


@pytest.mark.parametrize("key", sorted(UNKNOWN_KRONECKER_BLOCKS),
                         ids=lambda key: "chi%d-%s" % key)
def test_generated_blocks_without_closed_form_are_certified(key):
    chi, sid = key
    rows, cols = UNKNOWN_KRONECKER_BLOCKS[key]
    for seed in range(10):
        P = generate(chi, sid, seed=seed)
        K = KroneckerModule([[P.matrix[i][j] for j in cols] for i in rows])
        verdict = is_semistable(K)
        assert verdict.kind == "semistable", (key, seed)
        assert verify_certificate(K, verdict.certificate)
        assert side_condition(P, get_row(chi, sid)).status == "pass"


def test_tampered_certificate_is_rejected():
    # det(t_X K_X + t_Y K_Y + t_Z K_Z) = t_X * t_Y for this 2 x 2 module
    K = module([["X", "0"], ["0", "Y"]])
    good = SemistabilityCertificate((((1,),), ((1,),), ((0,),)))
    assert verify_certificate(K, good)
    tampered = [
        SemistabilityCertificate((((0,),), ((1,),), ((0,),))),        # a changed entry
        SemistabilityCertificate((((1, 0),),) * 3),                   # no blow-up shape
        SemistabilityCertificate((((1,), (0,)),) * 3),                # no blow-up shape
        SemistabilityCertificate(((), (), ())),                       # empty blocks
        SemistabilityCertificate((((1,),), ((1,),))),                 # a block missing
        SemistabilityCertificate((((True,),), ((1,),), ((0,),))),     # not an integer
        SemistabilityCertificate(good.blocks, prime=CERTIFICATE_PRIME - 2),
        SemistabilityCertificate(good.blocks, prime=7),
    ]
    for cert in tampered:
        assert not verify_certificate(K, cert), cert
    # a certificate belongs to its module: a planted unstable one rejects it
    rng = random.Random(13)
    semistable = random_module(3, 4, rng)
    cert = is_semistable(semistable).certificate
    assert verify_certificate(semistable, cert)
    assert not verify_certificate(plant_zero_block(3, 4, 2, 3, rng), cert)


def test_certificate_falls_through_without_a_reduction_mod_p():
    # the prime divides a denominator; scaling the source column by it
    # leaves a module whose reduction is certified
    K = module([["1/%d*X" % CERTIFICATE_PRIME, "Y", "Z", "X + Y"],
                ["Y", "Z", "X", "Y - Z"],
                ["Z", "X + Z", "Y", "X"]])
    verdict = is_semistable(K)
    assert verdict.kind == "semistable"
    cert = verdict.certificate
    assert cert is not None and verify_certificate(K, cert)
    # the first draw, the 4 x 3 blow-up at m = 1, certifies
    assert all(len(T) == 4 and len(T[0]) == 3 for T in cert.blocks)


def test_semistable_without_a_semistable_reduction_mod_p():
    # every column has the prime in a denominator: scaled, both columns lose
    # their second entry modulo the prime, a zero row, so no draw certifies;
    # the blown-up matrix is nonsingular over Q, which proves semistability
    P = CERTIFICATE_PRIME
    K = module([["1/%d*X" % P, "1/%d*Y" % P], ["Y", "X"]])
    for seed in range(3):
        verdict = is_semistable(K, seed)
        assert verdict.kind == "semistable" and verdict.certificate is None
    assert is_semistable(module([["X", "Y"], ["Y", "X"]])).certificate is not None


def test_skew_symmetric_3x3_has_no_certificate_of_this_size():
    # semistable (no destabilizer), but every t_X K_X + t_Y K_Y + t_Z K_Z is
    # skew-symmetric of odd size, so singular: the 1 x 1 blow-up never
    # certifies it, so every seed certifies at the 2 x 2 blow-up, m = 2
    K = module([["0", "X", "Y"], ["-X", "0", "Z"], ["-Y", "-Z", "0"]])
    for seed in range(5):
        verdict = is_semistable(K, seed)
        assert verdict.kind == "semistable"
        assert all(len(T) == 2 and len(T[0]) == 2 for T in verdict.certificate.blocks)
        assert verify_certificate(K, verdict.certificate)


# an unstable 2 x 3 pencil whose destabilizer is aligned with no coordinate
OFF_AXIS_PENCIL = [["71*X - 82*Y + 3*Z", "108*X - 48*Y + 20*Z", "40*X - 87*Y - 16*Z"],
                     ["-33*X + 66*Y - 29*Z", "-144*X - 36*Y - 80*Z", "60*X + 81*Y + 28*Z"]]


def test_unstable_pencil_off_the_coordinates_gets_a_witness():
    K = module(OFF_AXIS_PENCIL)
    assert not minors_semistable(K)
    verdict = is_semistable(K)
    assert verdict.kind == "unstable"
    assert verify_destabilizer(K, verdict.witness)


def test_conjugated_planted_modules_are_unstable():
    rng = random.Random(2015)
    for p, q, pp, qq in PLANTED_SHAPES:
        for draw in range(3):
            K = conjugate(plant_zero_block(p, q, pp, qq, rng), rng)
            verdict = is_semistable(K)
            assert verdict.kind == "unstable", (p, q, pp, qq, draw)
            assert verify_destabilizer(K, verdict.witness)


def test_witness_does_not_depend_on_the_seed():
    rng = random.Random(8)
    K = conjugate(plant_zero_block(4, 4, 3, 2, rng), rng)
    witnesses = {json.dumps(is_semistable(K, seed=seed).witness.to_json())
                 for seed in range(5)}
    assert len(witnesses) == 1


# -- the second Wong sequence against a Fraction reference ---------------------

def _span_rref(vectors, length):
    rref, pivots = QMatrix(len(vectors), length, vectors).rref()
    return rref.data[:len(pivots)]


def _fraction_wong_sequence(K, blocks):
    """The second Wong sequence as first written, kept as a reference: B over
    the Fraction slices, each B^-1(W) the x-part of the kernel of
    [B | R ⊗ e_a], eliminated from scratch, every subspace a Fraction RREF."""
    rows, cols = len(blocks[0]), len(blocks[0][0])
    slices = [sl.data for sl in K.coefficient_slices()]
    B = [[sum(sl[i][j] * T[a][b] for sl, T in zip(slices, blocks))
          for j in range(K.p) for b in range(cols)]
         for i in range(K.q) for a in range(rows)]
    n = len(B)
    R = []
    corank = None
    while True:
        spanned = [[r[i] if b == a else 0 for r in R for b in range(rows)]
                   for i in range(K.q) for a in range(rows)]
        preimage = QMatrix(n, n + len(R) * rows,
                           [B[k] + spanned[k] for k in range(n)]).kernel_basis()
        if corank is None:
            corank = len(preimage)
            if corank == 0:
                return 0, None
        if len(preimage) < corank + len(R) * rows:
            return corank, None
        S = _span_rref([[x[j * cols + b] for j in range(K.p)]
                        for x in preimage for b in range(cols)], K.p)
        image = _span_rref([mat_vec(sl, s) for sl in K.coefficient_slices() for s in S], K.q)
        if len(image) == len(R):
            p_prime, q_prime = len(S), K.q - len(image)
            assert Fraction(p_prime, K.p) + Fraction(q_prime, K.q) > 1
            D = Destabilizer(p_prime, q_prime, from_columns(S, K.p), from_columns(image, K.q))
            assert verify_destabilizer(K, D)
            return corank, D
        R = image


def rational_copy(K, rng):
    """diag(r) K diag(c), r_i = a/11 and c_j = b/13 with a, b in 1..9: an
    equivalent module whose coefficients are all Fractions."""
    r = [Fraction(rng.randint(1, 9), 11) for _ in range(K.q)]
    c = [Fraction(rng.randint(1, 9), 13) for _ in range(K.p)]
    return KroneckerModule([[f.scale(ri * cj) for f, cj in zip(row, c)]
                            for row, ri in zip(K.entries, r)])


def block_sum(K, L):
    zero = Form.zero(1)
    return KroneckerModule([list(row) + [zero] * L.p for row in K.entries]
                           + [[zero] * K.p + list(row) for row in L.entries])


SKEW_3X3 = [["0", "X", "Y"], ["-X", "0", "Z"], ["-Y", "-Z", "0"]]


def wong_corpus():
    rng = random.Random(2016)
    for p, q, pp, qq in PLANTED_SHAPES:
        K = plant_zero_block(p, q, pp, qq, rng)
        yield from (K, conjugate(K, rng), rational_copy(K, rng))
    for _ in range(20):
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        yield KroneckerModule([[random_form(1, rng) if rng.random() < 0.4 else Form.zero(1)
                                for _ in range(p)] for _ in range(q)])
    skew = module(SKEW_3X3)
    yield skew
    for _ in range(3):
        yield conjugate(skew, rng)
    yield rational_copy(skew, rng)
    for other in (skew, random_module(2, 2, rng), random_module(3, 3, rng),
                  random_module(2, 3, rng), plant_zero_block(3, 3, 2, 2, rng)):
        yield block_sum(skew, other)


def test_wong_sequence_matches_the_fraction_reference(monkeypatch):
    calls = []
    wong = kronecker._second_wong_sequence

    def recording(K, blocks, *shared):
        result = wong(K, blocks, *shared)
        calls.append((K, blocks, result))
        return result

    monkeypatch.setattr(kronecker, "_second_wong_sequence", recording)
    for K in wong_corpus():
        is_semistable(K)
    outcomes, sizes = Counter(), Counter()
    for K, blocks, (corank, D) in calls:
        ref_corank, ref_D = _fraction_wong_sequence(K, blocks)
        assert corank == ref_corank
        assert (D is None) == (ref_D is None)
        if D is not None:
            assert D.to_json() == ref_D.to_json()
        outcomes["witness" if D else "corank > 0, none" if corank else "corank 0"] += 1
        sizes[len(blocks[0]) * gcd(K.p, K.q) // K.p] += 1
    # every branch of the sequence is reached, the no-witness one past m = 1
    assert outcomes["witness"] and outcomes["corank > 0, none"]
    assert any(m > 1 for m in sizes)


def test_blow_up_inputs_are_built_once_per_module_and_draw(monkeypatch):
    # no draw certifies a planted unstable 3 x 3 module, so every draw also
    # runs the Wong sequence: the integer slices are built once per verdict,
    # and each draw's B once for both the certificate check and the sequence
    built = Counter()
    for name in ("_integer_slices", "_blow_up"):
        def spy(*args, real=getattr(kronecker, name), name=name):
            built[name] += 1
            return real(*args)
        monkeypatch.setattr(kronecker, name, spy)
    draws = []
    wong = kronecker._second_wong_sequence
    monkeypatch.setattr(kronecker, "_second_wong_sequence",
                        lambda *args: draws.append(args[1]) or wong(*args))
    rng = random.Random(33)
    for K in (plant_zero_block(3, 3, 2, 2, rng), module([["0", "0", "X"], ["0", "0", "Y"],
                                                         ["X", "Y", "Z"]])):
        built.clear()
        draws.clear()
        verdict = is_semistable(K)
        assert verdict.kind == "unstable" and verify_destabilizer(K, verdict.witness)
        assert built == {"_integer_slices": 1, "_blow_up": len(draws)} and draws


def test_moduli_dimensions():
    assert dim_kronecker_moduli(3, 5, 4) == 20
    assert dim_kronecker_moduli(3, 2, 3) == 6
    assert dim_kronecker_moduli(3, 1, 1) == 2
    # cross-checks against the fibre-bundle dimension sums
    assert 17 + dim_kronecker_moduli(3, 5, 4) == 37
    assert 23 + 2 + dim_kronecker_moduli(3, 2, 3) == 37 - 6


def test_presentation_round_trip():
    rng = random.Random(3)
    K = random_module(2, 3, rng)
    P = K.to_presentation()
    assert P.source == (-1, -1)
    assert P.target == (0, 0, 0)
    assert KroneckerModule.from_presentation(P).entries == K.entries
