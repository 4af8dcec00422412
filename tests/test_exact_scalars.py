"""Every coefficient, matrix cell and point coordinate reachable from the
public API is an int or a Fraction: never a float, which a division of two
ints would give, and never a bool."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from planesheaves.forms import Form, block_mult_map, format_form, mult_map, parse_form, space_dim
from planesheaves.linalg import QMatrix
from planesheaves.points import PointConfig, evaluation_matrix
from planesheaves.presentation import Presentation
from helpers import random_equivalence


def assert_exact(values):
    for x in values:
        assert type(x) in (int, Fraction), (type(x), x)


def cells(m):
    return [x for row in m.data for x in row]


# what callers may pass in: ints, Fractions, and bools and binary floats,
# which must come out as Fractions
_SCALARS = st.one_of(st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=6),
                     st.booleans(),
                     st.sampled_from([0.5, -0.25, 3.0]))


@st.composite
def _forms(draw, degree=None):
    d = draw(st.integers(0, 3)) if degree is None else degree
    return Form(d, draw(st.lists(_SCALARS, min_size=space_dim(d), max_size=space_dim(d))))


@st.composite
def _matrices(draw):
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_SCALARS, min_size=c, max_size=c), min_size=r, max_size=r))
    return QMatrix(r, c, rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_forms(), _forms(), _SCALARS)
def test_form_arithmetic_keeps_exact_coefficients(f, g, s):
    assert_exact(f.coeffs)
    results = [f * g, f.scale(s), -f, parse_form(format_form(f))]
    if f.degree == g.degree:
        results += [f + g, f - g]
    if not f.is_zero():
        monic = f.monic()
        assert monic.leading()[1] == 1
        results.append(monic)
    for h in results:
        assert_exact(h.coeffs)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_forms(), st.integers(0, 2), _forms(degree=1))
def test_multiplication_maps_keep_exact_cells(f, s, g):
    assert_exact(cells(mult_map(f, s)))
    assert_exact(cells(block_mult_map([[f, Form.zero(0)], [g, f]], [f.degree + s, 1 + s],
                                      [s, 1 + s - f.degree])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices(), st.lists(_SCALARS, min_size=5, max_size=5))
def test_eliminations_return_exact_entries(m, rhs):
    assert_exact(cells(m))
    rref, _ = m.rref()
    assert_exact(cells(rref))
    for v in m.kernel_basis():
        assert_exact(v)
    x = m.solve(rhs[:m.rows])
    if x is not None:
        assert_exact(x)
    if m.rows == m.cols:
        assert_exact([m.det()])


_COORDS = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=4))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1, max_size=6, unique=True),
       st.integers(0, 3))
def test_points_and_evaluation_matrices_are_exact(coords, t):
    try:
        cfg = PointConfig(coords)
    except ValueError:       # the zero vector, or two equal projective points
        return
    for p in cfg.points:
        assert_exact(p)
        # a coordinate without a denominator is an int
        assert all(type(c) is int for c in p if c.denominator == 1)
    assert_exact(cells(evaluation_matrix(cfg, t)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_random_equivalence_keeps_exact_coefficients(seed):
    P = Presentation.from_text([-3, -2, -2], [-1, -1, 0],
                               [["X^2", "0", "Y"], ["1/2*Y^2", "Z", "X"], ["Z^3", "X^2", "Y^2"]])
    Q = random_equivalence(P, random.Random(seed))
    for row in Q.matrix:
        for f in row:
            assert_exact(f.coeffs)


def test_exact_cells_are_kept_and_the_others_become_fractions():
    # a row of ints and Fractions is copied as it is; a row with any other
    # number is converted cell by cell, its exact cells kept
    half = Fraction(1, 2)
    for row in ([1, half, 0], [True, 2, half], [0.5, 1, False], [True, False, 3.0]):
        expected = [x if type(x) in (int, Fraction) else Fraction(x) for x in row]
        for got in (QMatrix(1, 3, [row]).data[0], list(Form(1, row).coeffs)):
            assert got == expected
            assert [type(x) for x in got] == [type(x) for x in expected]
    assert [type(x) for x in Form(1, (True, 0.25, 2)).coeffs] == [Fraction, Fraction, int]
    row = [1, 2, 3]
    m = QMatrix(1, 3, [row])
    row[0] = 9
    assert m.data == [[1, 2, 3]]   # the matrix owns a copy of each row


def test_monic_of_an_integer_form_divides_exactly():
    for text, coeffs in (("2*X", (1, 0, 0)), ("3*X - Y", (1, Fraction(-1, 3), 0))):
        monic = parse_form(text).monic().coeffs
        assert monic == coeffs
        assert_exact(monic)


def test_point_coordinates_are_ints_where_they_have_no_denominator():
    (p,) = PointConfig([[2, 4, 2]]).points
    assert p == (1, 2, 1) and all(type(c) is int for c in p)
    (q,) = PointConfig([[1, 2, 3]]).points
    assert q == (Fraction(1, 3), Fraction(2, 3), 1)
    assert [type(c) for c in q] == [Fraction, Fraction, int]
    assert PointConfig([[2, 4, 2], [1, 2, 3]]).to_json() == {
        "points": [["1", "2", "1"], ["1/3", "2/3", "1"]]}
