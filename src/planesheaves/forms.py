"""Homogeneous forms in X, Y, Z over the rationals.

A Form is a dense coefficient vector indexed by the graded-lex monomial
basis (X > Y > Z) of its degree.  The zero form is representable in every
degree.  Everything is immutable and exact.

Polynomial text is read by one regular-expression pass (``_tokenize``) and a
small term grammar (``parse_form``); ``format_form`` prints text that
``parse_form`` reads back to the same form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd

from .linalg import QMatrix

VARIABLES = ("X", "Y", "Z")

# Largest total degree parse_form accepts.  A form of degree d is a dense
# vector of (d + 1)(d + 2) / 2 coefficients, so unbounded input degrees would
# allocate without limit; every registry, test and benchmark form has
# degree at most 10.
MAX_DEGREE = 40

# Longest numeral (numerator or denominator, in digits) parse_form accepts.
# Python refuses to convert decimal strings of more than 4300 digits; every
# registry, test and benchmark numeral has at most 3.
MAX_DIGITS = 1000


class FormError(ValueError):
    pass


class ParseError(ValueError):
    pass


def space_dim(k: int) -> int:
    """Dimension of the degree-k forms, i.e. h^0(O(k)) on the plane."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


@lru_cache(maxsize=None)
def monomials(degree: int):
    """Exponent triples of the given degree in graded-lex order, X > Y > Z."""
    if degree < 0:
        return ()
    return tuple((a, b, degree - a - b)
                 for a in range(degree, -1, -1)
                 for b in range(degree - a, -1, -1))


@lru_cache(maxsize=None)
def monomial_index(degree: int):
    return {m: i for i, m in enumerate(monomials(degree))}


class Form:
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        if degree < 0:
            raise FormError("negative degree")
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != space_dim(degree):
            raise FormError("coefficient vector has wrong length for degree %d" % degree)
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, degree: int = 0) -> "Form":
        return cls(degree, (Fraction(0),) * space_dim(degree))

    @classmethod
    def from_dict(cls, degree: int, terms) -> "Form":
        idx = monomial_index(degree)
        coeffs = [Fraction(0)] * space_dim(degree)
        for mono, c in terms.items():
            coeffs[idx[mono]] += Fraction(c)
        return cls(degree, coeffs)

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff=1) -> "Form":
        return cls.from_dict(a + b + c, {(a, b, c): coeff})

    @classmethod
    def constant(cls, value) -> "Form":
        return cls(0, (Fraction(value),))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def terms(self):
        basis = monomials(self.degree)
        return [(basis[i], c) for i, c in enumerate(self.coeffs) if c]

    def __eq__(self, other):
        return (isinstance(other, Form) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise FormError("cannot add forms of degrees %d and %d" % (self.degree, other.degree))
        return Form(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.degree, tuple(-c for c in self.coeffs))

    def scale(self, s) -> "Form":
        s = Fraction(s)
        return Form(self.degree, tuple(s * c for c in self.coeffs))

    def __mul__(self, other: "Form") -> "Form":
        return form_mul(self, other)

    def evaluate(self, point) -> Fraction:
        x, y, z = (Fraction(v) for v in point)
        total = Fraction(0)
        for (a, b, c), coeff in zip(monomials(self.degree), self.coeffs):
            if coeff:
                total += coeff * x**a * y**b * z**c
        return total

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term; None if zero."""
        for mono, c in zip(monomials(self.degree), self.coeffs):
            if c:
                return mono, c
        return None

    def monic(self) -> "Form":
        lead = self.leading()
        if lead is None:
            raise FormError("zero form has no monic normalization")
        return self.scale(1 / lead[1])

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return "Form(%r)" % format_form(self)


def form_mul(f: Form, g: Form) -> Form:
    deg = f.degree + g.degree
    if f.is_zero() or g.is_zero():
        return Form.zero(deg)
    idx = monomial_index(deg)
    coeffs = [Fraction(0)] * space_dim(deg)
    gterms = g.terms()
    for (a1, b1, c1), x in f.terms():
        for (a2, b2, c2), y in gterms:
            coeffs[idx[(a1 + a2, b1 + b2, c1 + c2)]] += x * y
    return Form(deg, coeffs)


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

# One match per token: a numeral (decimal digits, optionally "/" and more
# digits), an operator or variable, or any other non-space character, which is
# an error.  Every non-space character starts a match, so re.findall skips
# whitespace and nothing else.
_TOKEN = re.compile(r"(\d+)(/\d*)?|([-+*^XYZ])|(\S)")


def _tokenize(text: str):
    """Tokens of polynomial text: "+", "-", "*", "^", "X", "Y", "Z", and
    numerals.  A plain numeral is an int; one written with a slash is an
    integer (numerator, denominator) pair, so an exponent can insist on a
    plain numeral.  Numerals longer than MAX_DIGITS digits and zero
    denominators are parse errors."""
    tokens = []
    for num, slash, op, other in _TOKEN.findall(text):
        if op:
            tokens.append(op)
        elif other:
            raise ParseError("unexpected character %r" % other)
        elif len(num) > MAX_DIGITS or len(slash) > MAX_DIGITS + 1:
            raise ParseError("numeral of more than %d digits" % MAX_DIGITS)
        elif not slash:
            tokens.append(int(num))
        elif slash == "/":
            raise ParseError("malformed rational near %r" % (num + slash))
        else:
            den = int(slash[1:])
            if not den:
                raise ParseError("zero denominator in %r" % (num + slash))
            tokens.append((int(num), den))
    return tokens


def parse_form(text: str, degree: int | None = None) -> Form:
    """Parse polynomial text like ``3*X^2*Y - 1/2*Z^3``.

    Rejects inhomogeneous input, reporting the degrees found.  If ``degree``
    is given, the result is coerced to it (only possible for the zero form
    or an exact match).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    # split into signed terms
    terms = []
    sign = 1
    cur = []
    start = True
    for tok in tokens:
        if tok in ("+", "-") and (start or cur):
            if start and not cur:
                if tok == "-":
                    sign = -sign
                start = False
                continue
            if cur:
                terms.append((sign, cur))
                cur = []
                sign = 1 if tok == "+" else -1
                continue
        start = False
        cur.append(tok)
    if not cur:
        raise ParseError("dangling operator in %r" % text)
    terms.append((sign, cur))

    acc: dict = {}
    for sgn, toks in terms:
        num, den = sgn, 1
        expo = [0, 0, 0]
        i = 0
        expect_factor = True
        while i < len(toks):
            tok = toks[i]
            if tok == "*":
                if expect_factor:
                    raise ParseError("misplaced '*' in %r" % text)
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError("missing operator in %r" % text)
            if isinstance(tok, int):
                num *= tok
                i += 1
            elif isinstance(tok, tuple):
                num *= tok[0]
                den *= tok[1]
                i += 1
            elif tok in VARIABLES:
                v = VARIABLES.index(tok)
                power = 1
                if i + 1 < len(toks) and toks[i + 1] == "^":
                    if i + 2 >= len(toks) or not isinstance(toks[i + 2], int):
                        raise ParseError("malformed exponent in %r" % text)
                    power = toks[i + 2]
                    i += 2
                expo[v] += power
                i += 1
            else:
                raise ParseError("unexpected token %r in %r" % (tok, text))
            expect_factor = False
        if expect_factor:
            raise ParseError("dangling '*' in %r" % text)
        if sum(expo) > MAX_DEGREE:
            raise ParseError("term of degree %d exceeds the degree cap %d"
                             % (sum(expo), MAX_DEGREE))
        if num:
            key = tuple(expo)
            acc[key] = acc.get(key, 0) + Fraction(num, den)

    acc = {k: v for k, v in acc.items() if v}
    if not acc:
        return Form.zero(degree if degree is not None else 0)
    degrees = {sum(k) for k in acc}
    if len(degrees) > 1:
        raise ParseError("inhomogeneous polynomial: degrees %s" % sorted(degrees))
    d = degrees.pop()
    if degree is not None and d != degree:
        raise ParseError("polynomial has degree %d, expected %d" % (d, degree))
    index = monomial_index(d)
    coeffs = [Fraction(0)] * space_dim(d)
    for key, c in acc.items():
        coeffs[index[key]] = c
    return Form(d, coeffs)


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def format_form(f: Form) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for (a, b, c), coeff in f.terms():
        mono = []
        for name, e in zip(VARIABLES, (a, b, c)):
            if e == 1:
                mono.append(name)
            elif e > 1:
                mono.append("%s^%d" % (name, e))
        mag = abs(coeff)
        if mono and mag == 1:
            body = "*".join(mono)
        elif mono:
            body = "*".join([_format_coeff(mag)] + mono)
        else:
            body = _format_coeff(mag)
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out


# ---------------------------------------------------------------------------
# gcd machinery (primitive PRS on integer coefficients)
# ---------------------------------------------------------------------------

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _int_content(p):
    g = 0
    for c in p:
        g = int_gcd(g, abs(c))
    return g or 1


def _uni_primitive(p):
    p = _trim(list(p))
    if not p:
        return p
    g = _int_content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _uni_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _uni_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _uni_scale(a, s):
    return _trim([s * x for x in a])


def _uni_prem(a, b):
    """Pseudo-remainder of integer polynomials a, b (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = _uni_sub(_uni_scale(a, lb), _uni_scale([0] * shift + b, la))
    return a


def uni_gcd(a, b):
    """gcd of integer polynomials given as coefficient lists, constant term
    first: primitive, with positive leading coefficient ([] if both are zero)."""
    a = _uni_primitive(a)
    b = _uni_primitive(b)
    while b:
        a, b = b, _uni_primitive(_uni_prem(a, b))
    return a


def _biv_degx(f):
    return len(f) - 1


def _biv_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _biv_content(f):
    g = []
    for c in f:
        g = uni_gcd(g, c)
        if g == [1]:
            break
    return g or [1]


def _biv_primitive(f):
    f = _biv_trim([_trim(list(c)) for c in f])
    if not f:
        return f
    cont = _biv_content(f)
    if cont == [1]:
        return f
    return [_uni_exact_div(c, cont) for c in f]


def _uni_exact_div(a, b):
    """Exact division of integer polynomials (remainder known to be zero)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        q, r = divmod(la, lb)
        if r:
            raise FormError("inexact polynomial division")
        shift = len(a) - 1 - db
        out[shift] = q
        a = _uni_sub(a, _uni_scale([0] * shift + b, q))
    if a:
        raise FormError("inexact polynomial division")
    return _trim(out)


def _biv_sub(f, g):
    out = [list(c) for c in f] + [[] for _ in range(max(0, len(g) - len(f)))]
    for i, c in enumerate(g):
        out[i] = _uni_sub(out[i], c)
    for i in range(len(f)):
        out[i] = _trim(out[i])
    return _biv_trim(out)


def _biv_scale(f, s):
    """Multiply a poly in x over Z[y] by the Z[y] polynomial s."""
    return _biv_trim([_uni_mul(c, s) for c in f])


def _biv_prem(f, g):
    f = [list(c) for c in f]
    dg = _biv_degx(g)
    lg = g[-1]
    while f and _biv_degx(f) >= dg:
        lf = f[-1]
        shift = _biv_degx(f) - dg
        f = _biv_sub(_biv_scale(f, lg), [[]] * shift + _biv_scale(g, lf))
    return f


def _biv_gcd(f, g):
    """gcd in Z[x, y] (up to sign) by primitive PRS in x."""
    f = _biv_trim([_trim(list(c)) for c in f])
    g = _biv_trim([_trim(list(c)) for c in g])
    if not f:
        return g
    if not g:
        return f
    cf, cg = _biv_content(f), _biv_content(g)
    f, g = _biv_primitive(f), _biv_primitive(g)
    if _biv_degx(f) < _biv_degx(g):
        f, g = g, f
    while g:
        f, g = g, _biv_primitive(_biv_prem(f, g))
    ccontent = uni_gcd(cf, cg)
    return _biv_scale(f, ccontent)


def _strip_z(f: Form):
    """Largest k with Z^k dividing f, and the cofactor."""
    k = min(c for (_, _, c), _coef in f.terms())
    if k == 0:
        return 0, f
    terms = {(a, b, c - k): coeff for (a, b, c), coeff in f.terms()}
    return k, Form.from_dict(f.degree - k, terms)


def _dehomogenize(f: Form):
    """f(X, Y, 1) as x-major integer bivariate rep, plus the cleared denominator."""
    den = 1
    for _, c in f.terms():
        den = den * c.denominator // int_gcd(den, c.denominator)
    biv: list = []
    for (a, b, _c), coeff in f.terms():
        while len(biv) <= a:
            biv.append([])
        col = biv[a]
        while len(col) <= b:
            col.append(0)
        col[b] += int(coeff * den)
    return _biv_trim([_trim(c) for c in biv])


def _rehomogenize(biv) -> Form:
    total = 0
    for i, col in enumerate(biv):
        for j, c in enumerate(col):
            if c:
                total = max(total, i + j)
    terms = {}
    for i, col in enumerate(biv):
        for j, c in enumerate(col):
            if c:
                terms[(i, j, total - i - j)] = Fraction(c)
    return Form.from_dict(total, terms)


def form_gcd(f: Form, g: Form) -> Form:
    """Greatest common divisor, monic in the graded-lex leading term.

    Strategy: split off the common power of Z, dehomogenize at Z = 1, run a
    fraction-free (primitive PRS) bivariate gcd over the integers, and
    rehomogenize.
    """
    if f.is_zero() and g.is_zero():
        raise FormError("gcd undefined for two zero forms")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    kf, f1 = _strip_z(f)
    kg, g1 = _strip_z(g)
    h = _biv_gcd(_dehomogenize(f1), _dehomogenize(g1))
    result = _rehomogenize(h)
    k = min(kf, kg)
    if k:
        result = result * Form.monomial(0, 0, k)
    return result.monic()


def divides(f: Form, g: Form) -> bool:
    """True iff g = f * h for some form h."""
    if f.is_zero():
        raise FormError("divisibility by the zero form is undefined")
    if g.is_zero():
        return True
    if g.degree < f.degree:
        return False
    return form_gcd(f, g).degree == f.degree


def conic_is_irreducible(q: Form) -> bool:
    """A plane conic is irreducible over the closure iff its Gram determinant is nonzero."""
    if q.degree != 2:
        raise FormError("conic test requires a degree-2 form")
    idx = monomial_index(2)
    c = q.coeffs

    def at(a, b, cc):
        return c[idx[(a, b, cc)]]

    half = Fraction(1, 2)
    gram = QMatrix(3, 3, [
        [at(2, 0, 0), half * at(1, 1, 0), half * at(1, 0, 1)],
        [half * at(1, 1, 0), at(0, 2, 0), half * at(0, 1, 1)],
        [half * at(1, 0, 1), half * at(0, 1, 1), at(0, 0, 2)],
    ])
    return gram.det() != 0


def coefficient_matrix(forms) -> QMatrix:
    """Rows are the coefficient vectors of the given same-degree forms."""
    forms = list(forms)
    if not forms:
        return QMatrix(0, 0)
    degs = {f.degree for f in forms if not f.is_zero()}
    if len(degs) > 1:
        raise FormError("mixed degrees: %s" % sorted(degs))
    deg = degs.pop() if degs else forms[0].degree
    rows = []
    for f in forms:
        if f.is_zero():
            rows.append([Fraction(0)] * space_dim(deg))
        else:
            rows.append(list(f.coeffs))
    return QMatrix(len(rows), space_dim(deg), rows)


def linearly_independent(forms) -> bool:
    forms = list(forms)
    if not forms:
        return True
    return coefficient_matrix(forms).rank() == len(forms)


def mult_map(f: Form, s: int) -> QMatrix:
    """Matrix of g -> f*g from degree-s forms to degree-(s + deg f) forms."""
    rows = space_dim(s + f.degree)
    cols = space_dim(s)
    out = QMatrix(rows, cols)
    if cols == 0 or rows == 0 or f.is_zero():
        return out
    idx = monomial_index(s + f.degree)
    for j, (a2, b2, c2) in enumerate(monomials(s)):
        for (a1, b1, c1), coeff in f.terms():
            out.data[idx[(a1 + a2, b1 + b2, c1 + c2)]][j] += coeff
    return out
