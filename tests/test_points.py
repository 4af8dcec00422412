import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from planesheaves import points
from planesheaves.forms import Form, monomial_values, space_dim
from planesheaves.linalg import QMatrix, integer_echelon
from planesheaves.points import (CLAIMS, DEGREE_CAP, BettiShape, GenericityError,
                                 PointConfig, PointError,
                                 colinear_subset_exists, colinear_triple_exists,
                                 contained_in_curve_of_degree,
                                 evaluation_matrix, flag_pair_presentation,
                                 ideal_slice, line_through,
                                 minimal_resolution, verify_point_claim)
from planesheaves.presentation import profile
from planesheaves.strata import classify
from helpers import config_satisfying, random_affine_config, random_invertible, walk_resolution

TRIANGLE = PointConfig([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def colinear_points(n, rng):
    """n distinct points on a random line through (1:0:1)."""
    while True:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if (a, b) == (0, 0):
            continue
        pts = set()
        for t in range(1, 12):
            pts.add((1 + a * t, b * t, 1))
            if len(pts) >= n:
                break
        if len(pts) >= n:
            return PointConfig(sorted(pts)[:n])


# -- config plumbing ------------------------------------------------------------

def test_normalization_and_duplicates():
    cfg = PointConfig([(2, 4, 2), (1, 0, 0)])
    assert cfg.points[0] == (1, 2, 1)
    with pytest.raises(PointError):
        PointConfig([(1, 2, 1), (2, 4, 2)])
    with pytest.raises(PointError):
        PointConfig([(0, 0, 0)])


def test_json_round_trip():
    cfg = PointConfig([(1, 2, 1), (Fraction(1, 2), 3, 1)])
    assert PointConfig.from_json(cfg.to_json()) == cfg


def test_json_decimal_and_exponent_coordinates():
    cfg = PointConfig.from_json({"points": [["0.5", "2e1", "1"], ["-1.5E-2", 3, "1."]]})
    assert cfg.points == ((Fraction(1, 2), 20, 1), (Fraction(-3, 200), 3, 1))


# -- predicates -------------------------------------------------------------------

def colinear_by_ranks(cfg, k):
    """Reference: some k-subset of the coordinate vectors has rank <= 2."""
    return len(cfg) >= k and any(
        QMatrix.from_rows([cfg.points[i] for i in sub]).rank() <= 2
        for sub in combinations(range(len(cfg)), k))


def test_colinear_triple():
    assert not colinear_triple_exists(TRIANGLE)
    assert colinear_triple_exists(PointConfig([(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
    rng = random.Random(1)
    for _ in range(5):
        cfg = random_affine_config(8, rng)
        assert colinear_triple_exists(cfg) == colinear_by_ranks(cfg, 3)


_SMALL = st.integers(-3, 3)
_COORD = _SMALL | st.builds(Fraction, _SMALL, st.integers(1, 3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD, st.sampled_from([0, 1, Fraction(1, 2)])),
                max_size=9),
       st.integers(1, 6))
def test_colinear_subset_matches_rank_enumeration(pts, k):
    try:
        cfg = PointConfig(pts)
    except PointError:
        assume(False)
    assert colinear_subset_exists(cfg, k) == colinear_by_ranks(cfg, k)
    if k == 3:
        assert colinear_triple_exists(cfg) == colinear_by_ranks(cfg, 3)


def test_colinear_subset_on_planted_lines():
    rng = random.Random(21)
    for n in range(1, 8):
        cfg = colinear_points(n, rng)
        assert all(colinear_subset_exists(cfg, k) for k in range(n + 1))
        assert not colinear_subset_exists(cfg, n + 1)
        # a point off the line leaves at most n on one line when n >= 2
        off = PointConfig(cfg.points + ((7, 100, 1),))
        assert colinear_subset_exists(off, n) and colinear_subset_exists(off, n + 1) == (n < 2)
    with pytest.raises(PointError):
        colinear_subset_exists(TRIANGLE, -1)


def test_contained_in_curve():
    rng = random.Random(2)
    assert contained_in_curve_of_degree(random_affine_config(5, rng), 2)
    seven = PointConfig([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                         (1, 2, 3), (1, 4, 9), (2, 1, 5)])
    assert not contained_in_curve_of_degree(seven, 2)
    nine = config_satisfying(CLAIMS["len9_unique_cubic"].predicates, 9, random.Random(3))
    assert contained_in_curve_of_degree(nine, 3)
    assert len(ideal_slice(nine, 3)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 8), st.integers(1, 3))
def test_subset_on_curve_ranks_the_rows_of_each_subset(seed, n, degree):
    # some of the points on the conic X^2 = Y*Z, the rest anywhere; each
    # subset ranked as rows of one evaluation matrix, as its own configuration
    rng = random.Random(seed)
    pts = {(t, t * t, 1) for t in rng.sample(range(-9, 10), rng.randint(0, n))}
    while len(pts) < n:
        pts.add((rng.randint(-9, 9), rng.randint(-9, 9), 1))
    cfg = PointConfig(sorted(pts))
    for size in range(n - 3, n + 2):
        expected = any(contained_in_curve_of_degree(PointConfig([cfg.points[i] for i in sub]),
                                                    degree)
                       for sub in combinations(range(n), size))
        assert points.subset_on_curve_exists(cfg, size, degree) == expected


def test_subset_on_curve_needs_a_curve_only_when_there_are_enough_points():
    assert not points.subset_on_curve_exists(TRIANGLE, 4, 0)
    with pytest.raises(PointError):
        points.subset_on_curve_exists(TRIANGLE, 3, 0)


def test_subset_on_curve_refuses_a_negative_size():
    for degree in (1, 2, 3):
        with pytest.raises(PointError, match="subset size must be non-negative"):
            points.subset_on_curve_exists(TRIANGLE, -1, degree)


def test_ideal_slice_examples():
    basis = ideal_slice(TRIANGLE, 2)
    assert len(basis) == 3
    span = {tuple(f.coeffs) for f in basis}
    # the span is the monomial ideal slice {XY, XZ, YZ}
    target = [Form.monomial(1, 1, 0), Form.monomial(1, 0, 1), Form.monomial(0, 1, 1)]
    m1 = QMatrix.from_rows([list(f.coeffs) for f in basis])
    m2 = QMatrix.from_rows([list(f.coeffs) for f in target])
    assert m1.rank() == 3 and QMatrix.from_rows(m1.data + m2.data).rank() == 3

    rng = random.Random(4)
    five = config_satisfying(CLAIMS["len5_general"].predicates, 5, rng)
    assert len(ideal_slice(five, 2)) == 1
    eight = config_satisfying(CLAIMS["len8_general"].predicates, 8, rng)
    assert len(ideal_slice(eight, 3)) == 2


def test_ideal_slice_is_primitive_and_spans_the_kernel():
    rng = random.Random(22)
    configs = [TRIANGLE, colinear_points(4, rng),
               PointConfig([(Fraction(1, 2), 3, 1), (1, 0, 0), (2, -1, 0), (1, 1, 1)])]
    configs += [random_affine_config(n, rng) for n in (2, 5, 9)]
    for cfg in configs:
        for t in range(5):
            forms = ideal_slice(cfg, t)
            kernel = evaluation_matrix(cfg, t).kernel_basis()
            assert len(forms) == len(kernel)
            for f in forms:
                assert all(type(c) is int for c in f.coeffs) and gcd(*f.coeffs) == 1
            if forms:
                m = QMatrix.from_rows([f.coeffs for f in forms])
                assert m.rank() == len(forms) == QMatrix.from_rows(m.data + kernel).rank()


def test_evaluation_rows_are_ints_with_the_row_space_of_the_point_values():
    cfg = PointConfig([(Fraction(1, 2), 3, 1), (1, 0, 0), (2, -1, 0),
                       (Fraction(-2, 3), Fraction(1, 6), 1)])
    for t in range(5):
        m = evaluation_matrix(cfg, t)
        assert all(type(c) is int for row in m.data for c in row)
        assert m.rref() == QMatrix.from_rows([monomial_values(t, p) for p in cfg.points]).rref()


def test_independent_conditions_dimension():
    rng = random.Random(5)
    for n in (4, 7, 10):
        cfg = random_affine_config(n, rng)
        for t in range(3, 7):
            if space_dim(t) >= n:
                assert len(ideal_slice(cfg, t)) == space_dim(t) - n


# -- minimal resolutions ------------------------------------------------------------

def test_triangle_resolution():
    assert minimal_resolution(TRIANGLE) == BettiShape((2, 2, 2), (3, 3))


def test_colinear_triple_resolution():
    cfg = colinear_points(3, random.Random(6))
    assert minimal_resolution(cfg) == BettiShape((1, 3), (4,))


def test_nine_generic_resolution():
    cfg = config_satisfying(CLAIMS["len9_unique_cubic"].predicates, 9, random.Random(7))
    assert minimal_resolution(cfg) == BettiShape((3, 4, 4, 4), (5, 5, 5))


def test_degeneration_changes_shape_as_predicted():
    rng = random.Random(9)
    general = PointConfig([(1, 0, 1), (0, 1, 1), (3, 2, 1)])
    assert not colinear_triple_exists(general)
    assert minimal_resolution(general) == BettiShape((2, 2, 2), (3, 3))
    # move the third point onto the line through the first two: x + y = 1
    degenerate = PointConfig([(1, 0, 1), (0, 1, 1), (3, -2, 1)])
    assert colinear_triple_exists(degenerate)
    assert minimal_resolution(degenerate) == BettiShape((1, 3), (4,))


def test_single_and_double_point():
    assert minimal_resolution(PointConfig([(1, 2, 1)])) == BettiShape((1, 1), (2,))
    assert minimal_resolution(PointConfig([(1, 0, 1), (0, 1, 1)])) == BettiShape((1, 2), (3,))


def test_cap_violation_errors():
    # n colinear points have regularity index n - 1 and their last syzygy in
    # degree n + 1: six points are the last accepted below the degree cap 8
    rng = random.Random(10)
    assert minimal_resolution(colinear_points(6, rng)) == BettiShape((1, 6), (7,))
    for n in (7, 9):
        with pytest.raises(PointError):
            minimal_resolution(colinear_points(n, rng))


@pytest.mark.parametrize("cfg", [
    PointConfig([]),
    TRIANGLE,                                               # two points on Z = 0
    colinear_points(5, random.Random(18)),
    config_satisfying(CLAIMS["len8_general"].predicates, 8, random.Random(8)),
    PointConfig([(Fraction(1, 2), 1, 0), (Fraction(-2, 3), Fraction(1, 5), 1),
                 (0, Fraction(7, 4), 1), (3, Fraction(-5, 3), 1), (1, 1, 0)]),
    colinear_points(7, random.Random(10)),                  # r_Z = 6, refused
], ids=["empty", "triangle", "colinear5", "general8", "fractional", "colinear7"])
def test_one_elimination_resolves(monkeypatch, cfg):
    # one forward elimination of n rows and space_dim(top) columns,
    # top = min(n - 1, DEGREE_CAP - 3) (0 for no points), then only
    # eliminations of at most 7 columns, and no ideal slice
    expected = _outcome(walk_resolution, cfg)
    calls = []

    def recording_echelon(rows, ncols, reduced=False):
        calls.append((len(rows), ncols, reduced))
        return integer_echelon(rows, ncols, reduced)

    def refuse(*args):
        raise AssertionError("ideal_slice called")

    monkeypatch.setattr(points, "ideal_slice", refuse)
    monkeypatch.setattr(points, "integer_echelon", recording_echelon)
    n = len(cfg)
    assert _outcome(minimal_resolution, cfg) == expected
    assert calls[0] == (n, space_dim(max(min(n - 1, DEGREE_CAP - 3), 0)), False)
    assert all(ncols <= 7 for _, ncols, _ in calls[1:])


def _planted_points(rng, kind, n, whole):
    """n distinct projective points.  "anywhere" draws each with fractional
    x and y and z in {0, 1}; the other kinds plant all of them (`whole`) or
    some of them on a line, on the line Z = 0, on the conic X^2 = Y Z
    (which meets Z = 0 at (0:1:0)) or on a grid, and draw the rest anywhere."""
    def anywhere():
        x, y = (Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2))
        return x, y, rng.choice((0, 1, 1, 1))

    if kind == "line":
        dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (1, 3)))
        x0, y0 = rng.randint(-4, 4), rng.randint(-4, 4)
        plant = [(x0 + k * dx, y0 + k * dy, 1) for k in range(-9, 10)]
    elif kind == "infinity":
        plant = [(0, 1, 0)] + [(1, k, 0) for k in range(-9, 10)]
    elif kind == "conic":
        plant = [(0, 1, 0)] + [(t, t * t, 1) for t in range(-9, 10)]
    elif kind == "grid":
        w = rng.randint(1, 4)
        plant = [(i % w, i // w, 1) for i in range(20)]
    else:
        plant = []
    planted = rng.sample(plant, min(len(plant), n if whole else rng.randint(0, n)))
    seen = {PointConfig([p]).points[0] for p in planted}
    while len(seen) < n:
        p = anywhere()
        if any(p):
            seen.add(PointConfig([p]).points[0])
    return sorted(seen)


def _outcome(resolve, cfg):
    """The Betti shape a resolver gives, or the message of its PointError."""
    try:
        return resolve(cfg)
    except PointError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(("anywhere", "line", "infinity", "conic", "grid")),
       st.integers(1, 17), st.booleans())
@example(0, "infinity", 7, True)       # on Z = 0 with r_Z = 6, refused
@example(0, "line", 9, True)           # r_Z = 8, refused
@example(0, "anywhere", 16, False)     # above 15 points, refused
@example(0, "conic", 11, True)         # r_Z = 5, accepted
@example(0, "anywhere", 0, False)      # no points: the unit ideal
@example(0, "line", 6, True)           # r_Z = 5, accepted: (1, 6), (7)
@example(0, "line", 7, True)           # r_Z = 6, refused
@example(0, "conic", 15, True)         # r_Z = 7, refused
@example(2, "anywhere", 15, False)     # 15 general points, one on Z = 0: six quintics
def test_section_count_agrees_with_the_walk(seed, kind, n, whole):
    cfg = PointConfig(_planted_points(random.Random(seed), kind, n, whole))
    assert _outcome(minimal_resolution, cfg) == _outcome(walk_resolution, cfg)
    if all(z for _, _, z in cfg.points):
        assert points._line_missing(cfg.points) == (0, 0)


def _subset_on_curve_by_rank(cfg, size, degree):
    """Whether some `size` rows of the evaluation matrix have rank below
    dim S_degree, each subset ranked by `QMatrix.rank`."""
    e = evaluation_matrix(cfg, degree)
    return any(QMatrix(size, e.cols, [e.data[i] for i in rows]).rank() < e.cols
               for rows in combinations(range(len(cfg)), size))


def test_the_forward_elimination_agrees_with_the_exact_references():
    # 300 configurations: every kind of `_planted_points`, n = 1..15, four
    # draws each (planted whole, then in part, twice)
    rng = random.Random(3)
    corpus = [PointConfig(_planted_points(rng, kind, n, whole))
              for kind in ("anywhere", "line", "infinity", "conic", "grid")
              for n in range(1, 16) for whole in (True, False, True, False)]
    subsets = set()
    for cfg in corpus:
        assert _outcome(minimal_resolution, cfg) == _outcome(walk_resolution, cfg), cfg.to_json()
        n = len(cfg)
        for k in (1, 2, 3):
            assert points._ideal_dim(cfg, k) == space_dim(k) - evaluation_matrix(cfg, k).rank()
        for degree in (1, 2):
            for size in (n - 2, n - 1):
                if size >= 0:
                    found = points.subset_on_curve_exists(cfg, size, degree)
                    assert found == _subset_on_curve_by_rank(cfg, size, degree), \
                        (cfg.to_json(), size, degree)
                    subsets.add((size >= space_dim(degree), found))
    # both answers occur where `size` points need not lie on such a curve
    assert {(True, True), (True, False)} <= subsets


def test_generators_are_counted_without_block_mult_map(monkeypatch):
    # after the one forward elimination, every elimination is a block B_t
    # (reduced) or a section product (forward) of t + 1 <= 7 columns
    rng = random.Random(24)
    configs = [TRIANGLE, colinear_points(6, rng), random_affine_config(15, rng),
               PointConfig(_planted_points(rng, "infinity", 5, True))]
    expected = [walk_resolution(cfg) for cfg in configs]
    calls = []

    def recording_echelon(rows, ncols, reduced=False):
        calls.append((ncols, reduced))
        return integer_echelon(rows, ncols, reduced)

    def refuse(*args):
        raise AssertionError("block_mult_map or QMatrix called")

    monkeypatch.setattr(points, "block_mult_map", refuse)
    monkeypatch.setattr(points, "QMatrix", refuse)
    monkeypatch.setattr(points, "integer_echelon", recording_echelon)
    for cfg, shape in zip(configs, expected):
        del calls[:]
        assert minimal_resolution(cfg) == shape
        later = calls[1:]
        assert any(not reduced for _, reduced in later)
        assert any(reduced for _, reduced in later)
        assert max(ncols for ncols, _ in later) <= 7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_points_on_z_resolve_as_their_image_off_it(seed, n):
    rng = random.Random(seed)
    cfg = PointConfig(_planted_points(rng, "infinity", n, False))
    assume(any(z == 0 for _, _, z in cfg.points))
    a, b = points._line_missing(cfg.points)
    assert (a, b) != (0, 0)
    assert all(a * x + b * y + z for x, y, z in cfg.points)
    while True:
        m = random_invertible(3, rng)
        image = [tuple(sum(c * v for c, v in zip(row, p)) for row in m.data) for p in cfg.points]
        if all(z for _, _, z in image):
            break
    image = PointConfig(image)
    assert points._line_missing(image.points) == (0, 0)
    assert _outcome(minimal_resolution, cfg) == _outcome(minimal_resolution, image)


def test_unique_cubic_counts_the_cubics_through_nine_points():
    unique = dict(CLAIMS["len9_unique_cubic"].predicates)["unique_cubic"]
    rng = random.Random(23)
    configs = [random_affine_config(9, rng) for _ in range(12)]
    # a 3 x 3 grid lies on two cubics, products of three parallel lines each
    configs += [PointConfig([(x0 + i * dx, y0 + j * dy, 1) for i in range(3) for j in range(3)])
                for x0, y0, dx, dy in ((0, 0, 1, 1), (-2, 3, 2, 5), (1, -1, 3, 1))]
    # five points on a line put the line in every cubic through them
    configs += [PointConfig(sorted(set(colinear_points(5, rng).points)
                                   | {(k, k * k + 7, 1) for k in range(4)}))]
    configs += [PointConfig(_planted_points(rng, kind, 9, False))
                for kind in ("infinity", "conic", "grid") for _ in range(3)]
    counts = [len(ideal_slice(cfg, 3)) for cfg in configs]
    for cfg, k in zip(configs, counts):
        assert unique(cfg) == (k == 1), cfg.to_json()
    assert {1, 2} <= set(counts)


def criterion_6_configs():
    """The 200 configurations of the criterion-6 acceptance test."""
    rng = random.Random(20240601)
    for claim_id in ("len8_general", "len5_general", "len7_no_conic", "len9_unique_cubic"):
        claim = CLAIMS[claim_id]
        for _ in range(50):
            yield config_satisfying(claim.predicates, claim.size, rng)


def test_hilbert_function_is_n_from_the_regularity_index_on():
    # _check_hilbert takes H_Z(t) = n for every t >= r_Z without a rank: the
    # Hilbert function of reduced points is non-decreasing and bounded by n
    rng = random.Random(19)
    configs = list(criterion_6_configs()) + [colinear_points(n, rng) for n in range(1, 7)]
    for cfg in configs:
        n = len(cfg)
        r_z = next(t for t in range(9) if evaluation_matrix(cfg, t).rank() == n)
        for t in range(r_z, 9):
            assert evaluation_matrix(cfg, t).rank() == n, (cfg.to_json(), t)


# -- claims ---------------------------------------------------------------------------

@pytest.mark.parametrize("claim_id,n", [
    ("len8_general", 8), ("len5_general", 5),
    ("len7_no_conic", 7), ("len9_unique_cubic", 9),
])
def test_claims_match_on_generic_configs(claim_id, n):
    rng = random.Random(hash(claim_id) % 100000)
    for _ in range(3):
        cfg = config_satisfying(CLAIMS[claim_id].predicates, n, rng)
        assert verify_point_claim(claim_id, cfg).matched


def test_claim_precondition_failure():
    cfg = colinear_points(3, random.Random(11))
    with pytest.raises(GenericityError):
        verify_point_claim("len3_general", cfg)
    with pytest.raises(GenericityError):
        verify_point_claim("len5_general", colinear_points(5, random.Random(12)))
    with pytest.raises(GenericityError):
        verify_point_claim("len8_general", colinear_points(8, random.Random(13)))


def test_claim_size_mismatch():
    with pytest.raises(GenericityError):
        verify_point_claim("len5_general", TRIANGLE)


def test_short_claims():
    assert verify_point_claim("len1", PointConfig([(2, 3, 1)])).matched
    assert verify_point_claim("len2", PointConfig([(1, 0, 1), (0, 1, 1)])).matched


def test_seven_on_conic_shape_observed_not_asserted():
    # eight points with seven on a conic: the resolution is recorded and kept
    # Hilbert-consistent, but no particular shape is claimed for this wall
    rng = random.Random(17)
    conic_pts = [(t, t * t, 1) for t in (-3, -2, -1, 1, 2, 3, 4)]   # on y = x^2
    cfg = PointConfig(conic_pts + [(5, 1, 1)])
    shape = minimal_resolution(cfg)
    assert len(shape.generators) == len(shape.syzygies) + 1
    for t in range(9):
        lhs = len(ideal_slice(cfg, t))
        rhs = (sum(space_dim(t - a) for a in shape.generators)
               - sum(space_dim(t - b) for b in shape.syzygies))
        assert lhs == rhs


def _criterion_6_configs():
    """The 200 generic configurations of the acceptance test for criterion 6
    (same seed, same draws), then colinear configurations of 1 to 6 points."""
    rng = random.Random(20240601)
    configs = []
    for claim_id in ("len8_general", "len5_general", "len7_no_conic", "len9_unique_cubic"):
        claim = CLAIMS[claim_id]
        configs += [config_satisfying(claim.predicates, claim.size, rng) for _ in range(50)]
    return configs + [colinear_points(n, rng) for n in range(1, 7)]


def test_hilbert_burch_consistency():
    # minimal_resolution reads the shape off the Hilbert function; the ideal
    # slices here check it degree by degree against independent ranks
    rng = random.Random(14)
    drawn = [random_affine_config(n, rng) for n in (3, 5, 8)]
    for cfgs in (drawn, _criterion_6_configs()):
        for cfg in cfgs:
            try:
                shape = minimal_resolution(cfg)
            except PointError:
                continue
            assert len(shape.generators) == len(shape.syzygies) + 1
            for t in range(9):
                lhs = len(ideal_slice(cfg, t))
                rhs = (sum(space_dim(t - a) for a in shape.generators)
                       - sum(space_dim(t - b) for b in shape.syzygies))
                assert lhs == rhs, (cfg.to_json(), t)


# -- the flag-pair construction ---------------------------------------------------------

def random_sextic_through(cfg, rng):
    while True:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(space_dim(6))]
        mat = evaluation_matrix(cfg, 6)
        kern = mat.kernel_basis()
        # project a random vector onto the kernel: solve for a combination
        f = Form(6, kern[rng.randrange(len(kern))])
        if not f.is_zero():
            return f


def test_flag_pair_classifies_to_x5():
    rng = random.Random(15)
    pts = PointConfig([(1, 0, 0), (0, 1, 0)])
    sextic = random_sextic_through(pts, rng)
    P = flag_pair_presentation(pts, sextic)
    label = classify(P)
    assert (label.chi, label.id) == (1, "X_5")
    prof = profile(P)
    assert (prof.h0_Fm1, prof.h1_F, prof.h0_omega) == (1, 3, 4)


def test_flag_pair_determinant_identity():
    rng = random.Random(16)
    pts = PointConfig([(1, 2, 1), (3, -1, 1)])
    sextic = random_sextic_through(pts, rng)
    P = flag_pair_presentation(pts, sextic)
    h, ell = P.matrix[0]
    g, q = P.matrix[1]
    assert h * q - ell * g == sextic
    assert ell == line_through(*pts.points).monic() or ell == line_through(*pts.points)


def test_flag_pair_rejects_sextic_missing_a_point():
    pts = PointConfig([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(PointError):
        flag_pair_presentation(pts, Form.monomial(6, 0, 0))
