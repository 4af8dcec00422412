import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from planesheaves import forms
from planesheaves.forms import (MAX_DIGITS, Form, FormError, ParseError,
                                block_mult_map, divides, form_gcd, form_minors,
                                form_mul, format_form, linearly_independent,
                                monomials, mult_map, parse_form, position,
                                random_ints, space_dim)
from planesheaves.linalg import CERTIFICATE_PRIME, QMatrix
from planesheaves.presentation import Presentation, is_injective
from planesheaves.strata import REGISTRY, generate
from helpers import (laplace_det, macaulay_gcd, printed_back_reading, random_form,
                     random_nonzero_form, solve_divides)

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


@pytest.mark.parametrize("bound", [0, 4, 9])
@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_random_ints_are_the_draws_of_randint(bound, n):
    # the values, and the state left in the generator, of n randint calls
    for seed in range(50):
        fast, slow = random.Random(seed), random.Random(seed)
        assert random_ints(fast, n, bound) == [slow.randint(-bound, bound) for _ in range(n)]
        assert fast.random() == slow.random()


def test_random_ints_refuse_a_negative_bound():
    # every draw of getrandbits(1) is at least 2 * -1 + 1, so without the
    # check the rejection loop would never end
    with pytest.raises(ValueError):
        random_ints(random.Random(0), 1, -1)


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


def _planted_pairs(rng, count):
    """(h, f, g): forms f, g of degree <= 5 with the planted common factor h
    of degree 0-3, in turn a random form, a power of Z times a random form, a
    power of Z, or a constant (then f and g are coprime but for chance).
    Every fifth f is zero and every seventh g is a constant."""
    planted = (lambda k: random_nonzero_form(k, rng),
               lambda k: Form.monomial(0, 0, k) * random_nonzero_form(rng.randint(0, 3 - k), rng),
               lambda k: Form.monomial(0, 0, k),
               lambda k: Form.constant(rng.randint(1, 9)))
    for i in range(count):
        h = planted[i % 4](rng.randint(0, 3))
        f, g = (h * random_nonzero_form(rng.randint(0, 5 - h.degree), rng) for _ in range(2))
        if i % 5 == 4:
            f = Form.zero(f.degree)
        if i % 7 == 6:
            g = Form.constant(rng.randint(1, 9))
        yield h, f, g


def test_gcd_and_divides_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("X Y Z")

    def to_sympy(f):
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod(
            v ** e for v, e in zip(gens, mono)) for mono, c in f.terms()), sympy.Integer(0))

    def from_sympy(expr):
        poly = sympy.Poly(expr, *gens)
        return Form.from_dict(poly.total_degree(), {
            mono: Fraction(int(c.p), int(c.q)) for mono, c in poly.terms()})

    for h, f, g in _planted_pairs(random.Random(57), 60):
        assert form_gcd(f, g) == from_sympy(sympy.gcd(to_sympy(f), to_sympy(g))).monic()
        for a, b in ((f, g), (g, f), (h, f)):
            if a.is_zero():
                with pytest.raises(FormError):
                    divides(a, b)
                continue
            remainder = sympy.div(to_sympy(b), to_sympy(a), *gens)[1]
            assert divides(a, b) == (remainder == 0)


class _ExactPath(Exception):
    pass


def _by_certificate(call, *args):
    """call(*args) answered by a line certificate alone, with mult_map
    refused; None when the answer needed the exact path."""
    def refuse(*_):
        raise _ExactPath
    with mock.patch.object(forms, "mult_map", refuse):
        try:
            return call(*args)
        except _ExactPath:
            return None


def _random_pair(rng, fractions):
    """Nonzero forms of degrees 0-6, with Fraction coefficients if asked."""
    f, g = (random_nonzero_form(rng.randint(0, 6), rng) for _ in range(2))
    if fractions:
        f, g = (h.scale(Fraction(rng.randint(1, 9), rng.randint(1, 40))) for h in (f, g))
    return f, g


def _assert_certificates_agree(f, g):
    """form_gcd and divides agree with the references, and whatever a
    certificate answers alone is the reference's answer."""
    exact = macaulay_gcd(f, g)
    assert form_gcd(f, g) == exact
    assert _by_certificate(form_gcd, f, g) in (None, exact)
    for a, b in ((f, g), (g, f)):
        assert divides(a, b) == solve_divides(a, b)
        assert _by_certificate(divides, a, b) in (None, False)


@pytest.mark.parametrize("fractions", [False, True])
def test_line_certificates_agree_with_the_exact_references(fractions):
    rng = random.Random(61 + fractions)
    certified = not_dividing = 0
    for _ in range(80):
        f, g = _random_pair(rng, fractions)
        _assert_certificates_agree(f, g)
        certified += _by_certificate(form_gcd, f, g) is not None
        not_dividing += _by_certificate(divides, f, g) is False
    # random pairs are coprime, and f divides g only when f is a constant:
    # almost every answer is given without the exact path
    assert certified == 80
    assert not_dividing >= 60


def test_planted_common_factors_are_never_certified_coprime():
    rng = random.Random(67)
    for h, f, g in _planted_pairs(rng, 60):
        if f.is_zero() or g.is_zero():
            continue
        _assert_certificates_agree(f, g)
        if macaulay_gcd(f, g).degree > 0:
            assert _by_certificate(form_gcd, f, g) is None
        if h.degree > 0:
            assert _by_certificate(divides, h, f) is None


@pytest.mark.parametrize("f,g", [
    # a common zero (0, 1, 0) on Z = 0 but no common factor
    (X, X + Z),
    (X * Y, X * X + Y * Z),
    # restrictions to Z = 0 that lose degree
    (Z * (X + Y), X * X - Y * Z),
    (Y * Y * Y, X * X + Z * Z),
    (Y * Y, Y * Z + X * X),
    # an X^m coefficient divisible by the prime
    (Form.from_dict(2, {(2, 0, 0): CERTIFICATE_PRIME, (0, 2, 0): 1, (0, 0, 2): 1}), X + Y),
    (Form.from_dict(1, {(1, 0, 0): 2 * CERTIFICATE_PRIME, (0, 1, 0): 1}), X * X + Z * Z),
])
def test_pairs_that_defeat_the_line_z_0_are_certified_on_another_line(f, g):
    u, v = next(forms._restrictions(f, g))
    assert not (u[-1] and v[-1] and len(forms._univariate_gcd(u, v)) == 1)
    _assert_certificates_agree(f, g)
    assert _by_certificate(form_gcd, f, g) == Form.constant(1)


@pytest.mark.parametrize("f", [
    Form.from_dict(1, {(1, 0, 0): CERTIFICATE_PRIME, (0, 1, 0): 1}),
    # the prime divides the content: every restriction is 0 modulo the prime
    Form.from_dict(1, {(1, 0, 0): CERTIFICATE_PRIME, (0, 1, 0): CERTIFICATE_PRIME}),
])
def test_a_multiple_of_a_form_whose_leading_coefficient_the_prime_divides(f):
    for g in (f * (X + Z), f * f, f * Form.constant(Fraction(1, CERTIFICATE_PRIME))):
        assert divides(f, g) and solve_divides(f, g)
        assert _by_certificate(divides, f, g) is None
    assert not divides(f, X * X + Y * Z) and not solve_divides(f, X * X + Y * Z)


def test_a_degree_40_pair_is_certified_coprime_without_a_multiplication_matrix():
    f = parse_form("X^40 + Y^40")
    g = parse_form("X^40 - Y^40 + Z^40")
    assert _by_certificate(form_gcd, f, g) == Form.constant(1)
    assert _by_certificate(divides, f, g) is False


def _line_directions():
    """The point Q of each certificate line, whose value F(Q) leads u(t):
    (1, 0, 0) for Z = 0, then the second draw of each seeded pair."""
    rng = random.Random(forms._LINE_SEED)
    points = [(1, 0, 0)]
    for _ in range(forms._LINE_DRAWS):
        _, q = random_ints(rng, 3, 99), random_ints(rng, 3, 99)
        points.append(tuple(q))
    return points


def test_forms_zero_at_every_line_direction_are_answered_by_the_exact_paths():
    # f is the conic through the five directions and g a cubic through them
    # that f does not divide: every restriction drops a degree, so no line
    # certifies, and the Macaulay matrix and the solve answer
    points = _line_directions()
    (conic,) = QMatrix.from_rows([forms.monomial_values(2, q) for q in points]).kernel_basis()
    f = Form(2, conic)
    g = next(h for v in QMatrix.from_rows([forms.monomial_values(3, q) for q in points])
             .kernel_basis() for h in (Form(3, v),) if not solve_divides(f, h))
    assert all(not u[-1] and not v[-1] for u, v in forms._restrictions(f, g))
    assert _by_certificate(form_gcd, f, g) is None and _by_certificate(divides, f, g) is None
    assert form_gcd(f, g) == Form.constant(1) == macaulay_gcd(f, g)
    assert not divides(f, g)
    # a multiple of f: the Macaulay gcd of positive degree and the solve's "yes"
    h = f * Form(1, [1, 2, 3])
    assert _by_certificate(form_gcd, f, h) is None
    assert form_gcd(f, h) == f.monic() and divides(f, h)


def test_position_enumerates_every_basis_up_to_degree_40():
    # one closed form for every degree, so no degree needs a kept table
    for d in range(41):
        assert [position(b, c) for _, b, c in monomials(d)] == list(range(space_dim(d)))
    # position cannot see the degree, so Form.from_dict checks it
    with pytest.raises(FormError):
        Form.from_dict(2, {(0, 0, 1): 1})


def test_conic_irreducible():
    # Gram matrix of XZ - Y^2, a smooth conic, has determinant 1/4 by direct expansion
    gram = QMatrix.from_rows([
        [0, 0, Fraction(1, 2)], [0, -1, 0], [Fraction(1, 2), 0, 0]])
    assert gram.det() == Fraction(1, 4)


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
    n = space_dim(3)
    assert m.data == [[int(i == j) for j in range(n)] for i in range(n)]


def test_mult_map_composition_law():
    rng = random.Random(8)
    for _ in range(10):
        f = random_form(rng.randint(1, 2), rng)
        g = random_form(rng.randint(1, 2), rng)
        s = rng.randint(0, 2)
        lhs = mult_map(f, s + g.degree) @ mult_map(g, s)
        rhs = mult_map(form_mul(f, g), s)
        assert lhs == rhs


def _sparse_form(deg, rng):
    return Form(deg, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6
                      else 0 for _ in range(space_dim(deg))])


def test_mult_map_columns_are_products():
    rng = random.Random(47)
    for _ in range(80):
        f = _sparse_form(rng.randint(0, 4), rng)
        s = rng.randint(0, 4)
        m = mult_map(f, s)
        for j, mono in enumerate(monomials(s)):
            assert [row[j] for row in m.data] == list(form_mul(f, Form.monomial(*mono)).coeffs)
    # several blocks: each column of block (i, j) is entry (i, j) times one
    # degree-col_deg[j] monomial, and a zero entry, of any degree, is a zero block
    for _ in range(40):
        col_deg = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        row_deg = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
        entries = [[_sparse_form(t - s, rng) if t >= s and rng.random() < 0.7
                    else Form.zero(rng.randint(0, 2)) for s in col_deg] for t in row_deg]
        m = block_mult_map(entries, row_deg, col_deg)
        c0 = 0
        for j, s in enumerate(col_deg):
            for k, mono in enumerate(monomials(s)):
                column = [row[c0 + k] for row in m.data]
                r0 = 0
                for i, t in enumerate(row_deg):
                    f = entries[i][j]
                    want = [0] * space_dim(t) if f.is_zero() else \
                        list(form_mul(f, Form.monomial(*mono)).coeffs)
                    assert column[r0:r0 + space_dim(t)] == want
                    r0 += space_dim(t)
            c0 += space_dim(s)
        assert (m.rows, m.cols) == (r0, c0)


@pytest.mark.parametrize("s,k", [(0, 0), (0, 3), (1, 2), (2, 1), (3, 3), (4, 0)])
def test_products_index_the_product_monomial(s, k):
    basis = monomials(s + k)
    for a, b1, c1 in monomials(s):
        for u, b2, c2 in monomials(k):
            assert basis[position(b1 + b2, c1 + c2)] == (a + u, b1 + b2, c1 + c2)


def test_form_minors_evaluates_to_the_determinant_of_the_values():
    rng = random.Random(23)
    for row in REGISTRY:
        P = generate(row.chi, row.id, seed=5)
        (det,) = form_minors(P.matrix).values()
        for _ in range(2):
            pt = tuple(rng.randint(-4, 4) for _ in range(3))
            values = QMatrix.from_rows([[f.evaluate(pt) for f in r] for r in P.matrix])
            assert det.evaluate(pt) == values.det(), (row.chi, row.id, pt)


def test_form_minors_match_the_laplace_reference():
    # seeded k x n blocks, k <= n <= 6, entry (i, j) of degree r_i + c_j:
    # about a quarter the zero form of degree 0, about a third with Fraction
    # coefficients; k = 0 and 1 x 1 blocks included
    rng = random.Random(41)
    shapes = [(0, 0), (0, 3), (1, 1)] + [(k, n) for n in range(1, 7) for k in range(1, n + 1)]
    for k, n in shapes:
        r, c = [rng.randint(0, 1) for _ in range(k)], [rng.randint(0, 1) for _ in range(n)]
        block = [[Form.zero(0) if rng.random() < 0.25
                  else random_form(ri + cj, rng).scale(Fraction(1, rng.choice((1, 1, 2, 3))))
                  for cj in c] for ri in r]
        minors = form_minors(block)
        assert sorted(minors) == list(itertools.combinations(range(n), k)), (k, n)
        for cols, minor in minors.items():
            ref = laplace_det([[row[j] for j in cols] for row in block])
            assert (minor - ref).is_zero(), (k, n, cols)
    assert form_minors([]) == {(): Form.constant(1)}


def test_block_mult_map_places_mult_map_blocks():
    m = block_mult_map([[X, Form.zero(0)], [Y * Y, Z]], [1, 2], [0, 1])
    assert (m.rows, m.cols) == (space_dim(1) + space_dim(2), space_dim(0) + space_dim(1))
    assert [row[:1] for row in m.data[:3]] == mult_map(X, 0).data
    assert all(x == 0 for row in m.data[:3] for x in row[1:])
    assert [row[:1] for row in m.data[3:]] == mult_map(Y * Y, 0).data
    assert [row[1:] for row in m.data[3:]] == mult_map(Z, 1).data
    with pytest.raises(FormError):
        block_mult_map([[X * Y]], [1], [0])


def test_int_and_fraction_coefficients_make_the_same_form():
    rng = random.Random(79)
    for _ in range(50):
        deg = rng.randint(0, 4)
        ints = [rng.randint(-9, 9) for _ in range(space_dim(deg))]
        f, g = Form(deg, ints), Form(deg, [Fraction(c) for c in ints])
        assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
        assert format_form(f) == format_form(g)


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
    # near misses of about 100k characters are rejected in linear time: a
    # grammar match that backtracked over every split would not finish
    for bad in ("X+" * 50000, "X*" * 50000 + "+", "1/" * 50000):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_form(bad)
        assert time.perf_counter() - start < 2.0


def test_parse_errors_name_the_cause():
    for text, message in (("{'a': 1}", "unexpected character '{'"),
                          ("X + 2\u00b2*Y", "unexpected character '\u00b2'"),
                          ("X*Y + 7" + "7" * MAX_DIGITS + "*Z^2",
                           "numeral of more than %d digits" % MAX_DIGITS),
                          ("X^2 - 1/" + "3" * (MAX_DIGITS + 1) + "*Y^2",
                           "numeral of more than %d digits" % MAX_DIGITS),
                          (" \t\n", "empty polynomial text"),
                          ("1/0*X", "zero denominator in '1/0'"),
                          ("X^41", "degree cap")):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_form(text)


def test_format_roundtrip_bit_exact():
    rng = random.Random(77)
    for _ in range(20):
        f = random_form(rng.randint(0, 4), rng)
        text = format_form(f)
        g = parse_form(text)
        assert format_form(g) == text
        # the zero form is read in degree 0
        assert g.degree == (0 if f.is_zero() else f.degree)


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
@given(st.lists(_TEXT_PIECES, max_size=12).map("".join))
def test_parse_form_returns_a_form_or_raises_parse_error(text):
    try:
        f = parse_form(text)
    except ParseError:
        return
    assert isinstance(f, Form)


_INT_COEFFS = st.integers(-20, 20)
_FRACTION_COEFFS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _forms(draw, coeff=_FRACTION_COEFFS):
    degree = draw(st.integers(0, 4))
    return Form(degree, draw(st.lists(coeff, min_size=space_dim(degree),
                                      max_size=space_dim(degree))))


def _respell(text, draw):
    """Printed polynomial text spelt another way: whitespace between any two
    tokens, factors in any order, a coefficient split into a product of
    numerals, and a "+" before a leading positive term."""
    tokens = []
    terms = text.replace(" - ", " + -").split(" + ")
    for k, term in enumerate(terms):
        negative = term.startswith("-")
        if negative:
            tokens.append("-")
        elif k or draw(st.booleans()):
            tokens.append("+")
        factors = term.lstrip("-").split("*")
        if factors[0][0].isdigit():
            top, slash, bottom = factors.pop(0).partition("/")
            p = draw(st.sampled_from([p for p in range(1, 10) if int(top) % p == 0]))
            factors += [str(p), str(int(top) // p) + slash + bottom]
        for i, factor in enumerate(draw(st.permutations(factors))):
            if i:
                tokens.append("*")
            tokens += factor.partition("^") if "^" in factor else [factor]
    space = st.sampled_from(["", " ", "  ", "\t", "\n", " \t\n "])
    return "".join(draw(space) + token for token in tokens) + draw(space)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_forms(), st.data())
def test_format_parse_round_trip_property(f, data):
    text = format_form(f)
    g = parse_form(text)
    assert format_form(g) == text
    assert g == f if not f.is_zero() else g.is_zero() and g.degree == 0
    # the same polynomial spelt otherwise reads back to the same form, with
    # the same coefficient types
    h = parse_form(_respell(text, data.draw))
    assert h == g and list(map(type, h.coeffs)) == list(map(type, g.coeffs))


def _reading(reader, text):
    """What a reader makes of the text: the form and its coefficient types,
    or the message of its ParseError."""
    try:
        f = reader(text)
    except ParseError as exc:
        return "ParseError", str(exc)
    return f, [type(c) for c in f.coeffs]


def assert_reads_as_the_grammar(text):
    """parse_form, printed text read by lookup, agrees with the grammar
    reader on every input."""
    assert _reading(parse_form, text) == _reading(forms._parse_grammar, text)


def _mutations(text):
    """Printed text changed into text that format_form never prints but the
    grammar may still read: doubled, leading and trailing spaces, a leading
    "+", a repeated term, terms out of graded-lex order, a coefficient of 1,
    an unreduced fraction, a zero-padded exponent, a signed zero, a digit
    that is not ASCII and a zero denominator."""
    terms = text.replace(" - ", " + -").split(" + ")
    return [text.replace(" ", "  ", 1), text + " ", " " + text, "+" + text,
            text + " + " + terms[0].lstrip("-"), " + ".join(reversed(terms)),
            "1*" + text, "2/4*" + text.lstrip("-"), text.replace("^", "^0", 1),
            text + " - 0", "-0 + " + text, text.replace("2", "\u0662"),
            text.replace("1", "\u0663"), text + " + 1/0*" + terms[-1].split("*")[-1]]


def test_fixed_spellings_read_as_the_grammar():
    for text in ("1*X", "2/4*X", "X + X", "Y + X", "Z^2 + X*Y", "X^01", "-0", "+X",
                 "\u0663*X", "1/0*X", "X  + Y", "X + Y ", "X - -Y", "0", "X", "X^2 + Y",
                 "1/2", "-1/2", "X^41", "X^1", "X*Y*Z^-1", "", "X + ", " + X", "3_0*X",
                 "1e3*X", "1.5*X", "X**Y", "X^", "Q", "Q^2 + X^2", "X^99999999999", "-X",
                 format_form(Form(1, (10 ** 600, -Fraction(1, 7), 1))),
                 " + ".join(["X"] * 200),
                 # near-canonical traps: a star without a monomial or the other
                 # way round, separators the printer never writes, zero and unit
                 # coefficients spelt out, a padded numeral, a trailing factor
                 "9*", "-9*", "X*", "*X", "3*X*", "X + Y*", "X + -Y", "X - +Y", "1/2*",
                 "0*X", "X + 0*Y", "-0*X", "1/1*X", "01*X", "-1*X", "X*1", "2*1"):
        assert_reads_as_the_grammar(text)
    # a numeral past the digit cap goes to the grammar, which names the cap
    numeral = "1" * (MAX_DIGITS + 1) + "*X"
    with pytest.raises(ParseError, match="numeral of more than %d digits" % MAX_DIGITS):
        parse_form(numeral)
    assert_reads_as_the_grammar(numeral)
    assert parse_form("0").degree == 0 and parse_form("-X").degree == 1
    # only text longer than MAX_DIGITS // 2 can build a coefficient past the
    # digit cap; the grammar reads it and names the cap
    long = "*".join(["9" * 300] * 4) + "*X"
    with pytest.raises(ParseError, match="coefficient of more than %d digits" % MAX_DIGITS):
        parse_form(long)
    assert_reads_as_the_grammar(long)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([_INT_COEFFS, _FRACTION_COEFFS]).flatmap(_forms), st.data())
def test_printed_and_mutated_text_read_as_the_grammar(f, data):
    text = format_form(f)
    assert_reads_as_the_grammar(text)
    # the lookup reads every print itself
    assert forms._read_printed(text) is not None
    assert_reads_as_the_grammar(_respell(text, data.draw))
    for mutated in _mutations(text):
        assert_reads_as_the_grammar(mutated)


# What an edit inserts or writes over a character: the printer's separators
# and others, signs, stars, carets and slashes, whitespace, numerals
# canonical and not, variables, a trailing factor and a digit that is not
# ASCII.
_EDIT_TOKENS = (" + ", " - ", " + -", "+", "-", "*", "^", "/", " ", "\t", "0", "1", "2",
                "9", "01", "1/1", "2/4", "X", "Y", "Z", "*1", "\u0663")


def _printed_and_edited(n, seed):
    """n seeded texts: prints of forms of degree 0 to 12 with int, unit, zero
    and Fraction coefficients; two thirds of them with one or two edits (an
    _EDIT_TOKENS token inserted or written over a character, or a character
    deleted) and one in twenty with its terms shuffled."""
    rng = random.Random(seed)
    coefficient = (lambda: rng.choice((1, -1)), lambda: rng.randint(-99, 99),
                   lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 12)))
    for _ in range(n):
        degree = rng.randint(0, 12)
        density = rng.random()
        text = format_form(Form(degree, [rng.choice(coefficient)() if rng.random() < density
                                         else 0 for _ in range(space_dim(degree))]))
        roll = rng.random()
        if roll < 0.05:
            terms = text.replace(" - ", " + -").split(" + ")
            rng.shuffle(terms)
            text = " + ".join(terms).replace(" + -", " - ")
        elif roll < 0.05 + 2 / 3:
            for _ in range(rng.randint(1, 2)):
                at = rng.randrange(len(text) + 1)
                edit = rng.randrange(3)
                token = rng.choice(_EDIT_TOKENS) if edit < 2 else ""
                text = text[:at] + token + text[at + (edit > 0):]
        yield text


def test_the_term_by_term_reader_agrees_with_the_print_back_reader():
    accepted = 0
    for text in _printed_and_edited(3000, 32):
        want = printed_back_reading(text)
        got = forms._read_printed(text)
        assert (got is None) == (want is None), text
        if want is not None:
            assert got == want, text
            assert list(map(type, got.coeffs)) == list(map(type, want.coeffs)), text
            accepted += 1
        assert_reads_as_the_grammar(text)
    # the unedited prints, about 30% of the corpus, and a few edited texts
    assert 750 < accepted < 1500
    # a print longer than the 500 characters the lookup once stopped at
    long = format_form(Form(12, [Fraction(k - 45, 7) for k in range(space_dim(12))]))
    assert len(long) > 500
    with mock.patch.object(forms, "_parse_grammar", side_effect=AssertionError):
        assert parse_form(long) == printed_back_reading(long) is not None


def test_terms_above_the_kept_tables_follow_the_basis():
    # above the kept tables the terms are read at their `position`, with no
    # basis table: the same terms, in the same order, as the table gives
    rng = random.Random(43)
    for d in (12, 13, 20, 40, 120):
        for f in (random_form(d, rng), Form.monomial(d // 3, d // 2, d - d // 3 - d // 2, -2)):
            assert f.terms() == [(m, c) for m, c in zip(monomials(d), f.coeffs) if c]


def test_large_degree_basis_tables_are_not_kept():
    # a kernel check of the 3 x 3 X^40 map multiplies forms up to degree 120,
    # whose basis tables used to stay in the caches: 1.5 MB
    matrix = [["X^40", "X^40", "Y^40"], ["Y^40", "Y^40", "Z^40"], ["Z^40", "Z^40", "X^40"]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not is_injective(Presentation.from_text([-20] * 3, [20] * 3, matrix))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.2 * 2 ** 20
    assert monomials(12) is monomials(12)
    assert monomials(13) == monomials(13) and monomials(13) is not monomials(13)
