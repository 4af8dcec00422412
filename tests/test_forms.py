import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planesheaves.forms import (MAX_DIGITS, Form, FormError, ParseError,
                                conic_is_irreducible, divides, form_gcd,
                                form_mul, format_form, linearly_independent,
                                monomials, mult_map, parse_form, space_dim)
from planesheaves.linalg import QMatrix
from helpers import random_form, random_nonzero_form

X = Form.monomial(1, 0, 0)
Y = Form.monomial(0, 1, 0)
Z = Form.monomial(0, 0, 1)


def test_monomial_order_graded_lex():
    assert monomials(2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert space_dim(4) == 15
    assert space_dim(-1) == 0


def test_mul_monomial_times_sum():
    assert X * (X + Y + Z) == X * X + X * Y + X * Z


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_mul_evaluation_oracle():
    rng = random.Random(2)
    for _ in range(10):
        f = random_form(2, rng)
        g = random_form(2, rng)
        h = form_mul(f, g)
        assert h.degree == 4
        pt = (1, 2, 3)
        assert h.evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_gcd_monomials():
    assert form_gcd(X * X * Y, X * Z * Z) == X


def test_gcd_shared_factor():
    f = X * X - Y * Y
    assert form_gcd(f, X + Y) == X + Y


def _sylvester_resultant_at(f, g, y_value):
    """Resultant in x of the dehomogenizations f(x, c, 1), g(x, c, 1)."""
    def x_coeffs(form):
        out = {}
        for (a, b, c), coeff in form.terms():
            out[a] = out.get(a, Fraction(0)) + coeff * Fraction(y_value) ** b
        deg = max(out) if out else 0
        return [out.get(i, Fraction(0)) for i in range(deg + 1)]

    fc, gc = x_coeffs(f), x_coeffs(g)
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + fc[::-1] + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc[::-1] + [Fraction(0)] * (size - i - n - 1))
    return QMatrix.from_rows(rows).det()


def test_gcd_random_conics_coprime():
    rng = random.Random(9)
    for _ in range(5):
        f = random_nonzero_form(2, rng)
        g = random_nonzero_form(2, rng)
        res = _sylvester_resultant_at(f, g, 7)
        if res == 0:
            continue  # nonzero resultant is the coprimality certificate
        assert form_gcd(f, g).degree == 0


def test_gcd_both_zero_errors():
    with pytest.raises(FormError):
        form_gcd(Form.zero(2), Form.zero(3))


def test_gcd_divides_both_and_degree_bound():
    rng = random.Random(31)
    for _ in range(8):
        h = random_nonzero_form(1, rng)
        f = h * random_nonzero_form(2, rng)
        g = h * random_nonzero_form(1, rng)
        d = form_gcd(f, g)
        assert divides(d, f) and divides(d, g)
        assert d.degree <= min(f.degree, g.degree)


def test_divides():
    assert divides(X, X * X + X * Y)
    assert not divides(X, Y * Y)
    with pytest.raises(FormError):
        divides(Form.zero(1), X)


def test_divides_perturbation_oracle():
    rng = random.Random(12)
    for _ in range(6):
        ell = random_nonzero_form(1, rng)
        ell2 = random_nonzero_form(1, rng)
        q = ell * ell2
        assert divides(ell, q)
        eps = random_nonzero_form(2, rng)
        if divides(ell, eps):
            continue
        assert not divides(ell, q + eps)


def test_conic_irreducible():
    # Gram matrix of XZ - Y^2 has determinant 1/4 by direct expansion
    gram = QMatrix.from_rows([
        [0, 0, Fraction(1, 2)], [0, -1, 0], [Fraction(1, 2), 0, 0]])
    assert gram.det() == Fraction(1, 4)
    assert conic_is_irreducible(X * Z - Y * Y)
    assert not conic_is_irreducible(X * Y)
    assert not conic_is_irreducible(X * X)
    with pytest.raises(FormError):
        conic_is_irreducible(X)


def test_linear_independence():
    assert linearly_independent([X, Y, Z])
    assert not linearly_independent([X + Y, X, Y])
    with pytest.raises(FormError):
        linearly_independent([X, X * Y])


def test_minors_of_standard_pencil_independent():
    block = [[X, Y], [Y, Z], [Z, X]]
    minors = []
    for skip in range(3):
        rows = [r for r in range(3) if r != skip]
        a, b = block[rows[0]]
        c, d = block[rows[1]]
        minors.append(a * d - b * c)
    assert linearly_independent(minors)


def test_independence_verdict_stable_under_recombination():
    rng = random.Random(4)
    for _ in range(6):
        forms = [random_form(2, rng) for _ in range(4)]
        verdict = linearly_independent(forms)
        shuffled = forms[:]
        rng.shuffle(shuffled)
        scaled = [f.scale(Fraction(rng.choice([1, 2, 3, -1, 5]), rng.choice([1, 2, 7])))
                  for f in shuffled]
        assert linearly_independent(scaled) == verdict


def test_mult_map_basics():
    m = mult_map(X, 0)
    assert (m.rows, m.cols) == (3, 1)
    assert [row[0] for row in m.data] == [1, 0, 0]
    one = Form.constant(1)
    m = mult_map(one, 3)
    assert m == QMatrix.identity(space_dim(3))


def test_mult_map_composition_law():
    rng = random.Random(8)
    for _ in range(10):
        f = random_form(rng.randint(1, 2), rng)
        g = random_form(rng.randint(1, 2), rng)
        s = rng.randint(0, 2)
        lhs = mult_map(f, s + g.degree) @ mult_map(g, s)
        rhs = mult_map(form_mul(f, g), s)
        assert lhs == rhs


def test_parse_examples():
    f = parse_form("3*X^2*Y - 1/2*Z^3")
    assert f.degree == 3
    assert format_form(f) == "3*X^2*Y - 1/2*Z^3"
    assert parse_form("0").is_zero()
    assert parse_form("-X") == -X
    assert parse_form("X*Y - Z^2") == X * Y - Z * Z


def test_parse_rejects_inhomogeneous_with_degree_report():
    with pytest.raises(ParseError) as err:
        parse_form("X + Y^2")
    assert "degrees" in str(err.value)
    assert "1" in str(err.value) and "2" in str(err.value)


def test_parse_rejects_garbage():
    for bad in ("", "X +", "2**X", "W", "X^-1", "1/", "X^12/2", "X^4/1", "1/0*X^6",
                "7" * (MAX_DIGITS + 1), "2\u00b2*X^6"):
        with pytest.raises(ParseError):
            parse_form(bad)


def test_format_roundtrip_bit_exact():
    rng = random.Random(77)
    for _ in range(20):
        f = random_form(rng.randint(0, 4), rng)
        text = format_form(f)
        assert format_form(parse_form(text, degree=f.degree if not f.is_zero() else None)) == text


# Pieces of polynomial text: the grammar's own tokens, whitespace, and what
# used to escape the parser as a traceback (a digit that is not decimal, a
# zero denominator, numerals beyond the digit cap and beyond Python's
# int-conversion limit).
_TEXT_PIECES = st.one_of(
    st.sampled_from(["X", "Y", "Z", "+", "-", "*", "^", "/", "0", "1", "12", "1/2", "/0",
                     " ", "\t", "\n", "\u00b2", "\u0663", "W", "(", "7" * MAX_DIGITS,
                     "7" * (MAX_DIGITS + 1), "9" * 5000]),
    st.text(alphabet="XYZ+-*^/0123456789 \u00b2", max_size=4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_TEXT_PIECES, max_size=12).map("".join), st.none() | st.integers(0, 4))
def test_parse_form_returns_a_form_or_raises_parse_error(text, degree):
    try:
        f = parse_form(text, degree)
    except ParseError:
        return
    assert isinstance(f, Form)


@st.composite
def _forms(draw):
    degree = draw(st.integers(0, 4))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return Form(degree, draw(st.lists(coeff, min_size=space_dim(degree),
                                      max_size=space_dim(degree))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_forms())
def test_format_parse_round_trip_property(f):
    text = format_form(f)
    g = parse_form(text, None if f.is_zero() else f.degree)
    assert format_form(g) == text
    assert f.is_zero() or g == f
