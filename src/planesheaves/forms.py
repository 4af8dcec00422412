"""Homogeneous forms in X, Y, Z over the rationals.

A Form is a dense coefficient vector indexed by the graded-lex monomial
basis (X > Y > Z) of its degree.  The zero form is representable in every
degree.  Everything is immutable and exact.

Polynomial text has one grammar:

    [+-]? term ([+-] term)*     term = factor ('*' factor)*
    factor = n | n/m | (X|Y|Z) ('^' n)?

Whitespace (what ``str.split`` splits on) may separate any two tokens; n/m
is one token, and n and m are numerals of 1 to MAX_DIGITS Unicode decimal
digits, read as ``int`` reads them.  ``format_form`` prints text that
``parse_form`` reads back to the same form.  ``parse_form`` reads printed
text term by term: each term must be the canonical spelling of one nonzero
coefficient (``str`` of a positive int or Fraction, left out when it is 1
before a monomial) times one monomial looked up in the table
``format_form`` prints from, the monomials must strictly follow the basis
order, and the separators must be the printer's.  Text built that way is
what ``format_form`` prints for the form read, so by the round trip it is
the grammar's reading.  Any other text is checked with one compiled
regular expression, then read by string splits; the caps and the error
messages are the grammar's.  JSON is decoded here too, by ``load_json``,
so what ``json.loads`` refuses, even past one of Python's limits, is a
``ParseError`` like bad polynomial text.

Questions about factors are put first to a word-size certificate on a
line: ``form_gcd`` and ``divides`` restrict both forms to Z = 0, then to a
few seeded lines, modulo ``linalg.CERTIFICATE_PRIME``.  Coprime
restrictions of full degree prove the forms coprime (Bezout), and a
restriction of f of full degree that does not divide that of g proves
that f does not divide g (Gauss's lemma).  What no line certifies is
linear algebra on multiplication matrices (``mult_map``), run by the one
exact core in ``linalg``: ``form_gcd`` takes one rank, one kernel and one
solve, ``divides`` one solve.  Where a monomial sits in the basis of its
degree (``position``, a closed form, so products need no table), the values
of the monomials at a point (``monomial_values``) and the maximal minors of
matrices of forms (``form_minors``) are worked out here and nowhere else.

Coefficients are ints, and Fractions only where a coefficient has a
denominator; any other number given to ``Form`` becomes a Fraction
(``linalg.SCALAR_TYPES``).
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations

from .linalg import CERTIFICATE_PRIME, SCALAR_TYPES, QMatrix, integer_rows

VARIABLES = ("X", "Y", "Z")

# Largest total degree parse_form accepts.  A form of degree d is a dense
# vector of (d + 1)(d + 2) / 2 coefficients, so unbounded input degrees would
# allocate without limit; every registry, test and benchmark form has
# degree at most 10.
MAX_DEGREE = 40

# Longest numeral, and longest numerator or denominator of a coefficient it
# builds, in digits, that parse_form accepts.  Python refuses to convert
# decimal strings of more than 4300 digits; every registry, test and
# benchmark numeral has at most 3.
MAX_DIGITS = 1000
_DIGIT_BOUND = 10 ** MAX_DIGITS


class FormError(ValueError):
    pass


class ParseError(ValueError):
    pass


def load_json(text):
    """json.loads of the text.  What it refuses, even past one of Python's
    limits (an integer literal of more than 4300 digits is a ValueError,
    deep nesting a RecursionError), is a ParseError with its message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def space_dim(k: int) -> int:
    """Dimension of the degree-k forms, i.e. h^0(O(k)) on the plane."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


def position(b: int, c: int) -> int:
    """Index of X^a*Y^b*Z^c in the basis of its degree a + b + c, for every
    degree: the (b + c)(b + c + 1)/2 monomials with fewer factors Y or Z come
    first, then the c of the same b + c with fewer factors Z."""
    return (b + c) * (b + c + 1) // 2 + c


# Largest degree whose basis tables (`monomials` and the monomial spellings)
# are kept after the call.  Every registry, stabilizer and point-ideal table
# has degree at most 8; a larger table, such as the 7381 monomials of degree
# 120 in a kernel check, is built for each call and dropped with its caller.
# Where a monomial sits needs no table: `position`.
_KEPT_TABLE_DEGREE = 12


def _kept_for_small_degrees(build):
    """build, its tables kept for degrees up to _KEPT_TABLE_DEGREE and built
    again on each call above."""
    kept = lru_cache(maxsize=None)(build)

    @wraps(build)
    def table(degree: int):
        return kept(degree) if degree <= _KEPT_TABLE_DEGREE else build(degree)

    return table


@_kept_for_small_degrees
def monomials(degree: int):
    """Exponent triples of the given degree in graded-lex order, X > Y > Z."""
    if degree < 0:
        return ()
    return tuple((a, b, degree - a - b)
                 for a in range(degree, -1, -1)
                 for b in range(degree - a, -1, -1))


def monomial_values(degree: int, point) -> list:
    """The degree's basis monomials evaluated at the point, in basis order:
    ints when the coordinates are ints, else Fractions."""
    x, y, z = [v if type(v) in SCALAR_TYPES else Fraction(v) for v in point]
    # one power table per coordinate; the unit is a Fraction when a
    # coordinate is, so then every value is
    one = (x * y * z) ** 0
    xs, ys, zs = [one], [one], [one]
    for _ in range(degree):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
        zs.append(zs[-1] * z)
    # X^(degree - s) Y^(s - c) Z^c sits at position(s - c, c)
    return [xs[degree - s] * ys[s - c] * zs[c] for s in range(degree + 1) for c in range(s + 1)]


class Form:
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        if degree < 0:
            raise FormError("negative degree")
        coeffs = tuple(coeffs)
        if not SCALAR_TYPES.issuperset(map(type, coeffs)):
            coeffs = tuple([c if type(c) in SCALAR_TYPES else Fraction(c) for c in coeffs])
        if len(coeffs) != space_dim(degree):
            raise FormError("coefficient vector has wrong length for degree %d" % degree)
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, degree: int = 0) -> "Form":
        return cls(degree, (0,) * space_dim(degree))

    @classmethod
    def from_dict(cls, degree: int, terms) -> "Form":
        coeffs = [0] * space_dim(degree)
        for (a, b, c), x in terms.items():
            if a + b + c != degree or min(a, b, c) < 0:
                raise FormError("monomial %r is not of degree %d" % ((a, b, c), degree))
            coeffs[position(b, c)] = x
        return cls(degree, coeffs)

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff=1) -> "Form":
        return cls.from_dict(a + b + c, {(a, b, c): coeff})

    @classmethod
    def constant(cls, value) -> "Form":
        return cls(0, (value,))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def terms(self):
        d, coeffs = self.degree, self.coeffs
        if d <= _KEPT_TABLE_DEGREE:
            return [(m, c) for m, c in zip(monomials(d), coeffs) if c]
        # no table above: X^(d - s) Y^(s - c) Z^c sits at position s(s + 1)/2 + c
        return [((d - s, s - c, c), x) for s in range(d + 1)
                for c, x in enumerate(coeffs[s * (s + 1) // 2:(s + 1) * (s + 2) // 2]) if x]

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
        if type(s) not in SCALAR_TYPES:
            s = Fraction(s)
        return Form(self.degree, tuple(s * c for c in self.coeffs))

    def __mul__(self, other: "Form") -> "Form":
        return form_mul(self, other)

    def evaluate(self, point):
        """Value at the point: an int when the point and the coefficients
        are integers, else a Fraction."""
        return sum(c * v for c, v in zip(self.coeffs, monomial_values(self.degree, point)) if c)

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
        return self.scale(Fraction(1) / lead[1])

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return "Form(%r)" % format_form(self)


def form_mul(f: Form, g: Form) -> Form:
    deg = f.degree + g.degree
    if f.is_zero() or g.is_zero():
        return Form.zero(deg)
    coeffs = [0] * space_dim(deg)
    # `position`, inlined: no basis table of the product degree is built
    gterms = [(b, c, y) for (_, b, c), y in g.terms()]
    for (_, b1, c1), x in f.terms():
        for b2, c2, y in gterms:
            b, c = b1 + b2, c1 + c2
            coeffs[(b + c) * (b + c + 1) // 2 + c] += x * y
    return Form(deg, coeffs)


def form_minors(block) -> dict:
    """Every maximal minor of a k x n matrix of forms, k <= n, keyed by its
    sorted column tuple; {(): 1} for k = 0.  Those on rows 0..i come by
    Laplace along row i from those on rows 0..i-1, each formed once: fewer
    than n * 2^(n - 1) products, where one cofactor expansion takes k!."""
    if not block:
        return {(): Form.constant(1)}
    minors = {(j,): f for j, f in enumerate(block[0])}
    for i, row in enumerate(block[1:], 1):
        layer = {}
        for cols in combinations(range(len(row)), i + 1):
            acc = Form.zero(0)
            for t, j in enumerate(cols):
                term = row[j] * minors[cols[:t] + cols[t + 1:]]
                acc = acc - term if (i + t) % 2 else acc + term
            layer[cols] = acc
        minors = layer
    return minors


def random_ints(rng, n: int, bound: int) -> list:
    """The values, and the state left in rng, of n calls rng.randint(-bound,
    bound) without their overhead: the same draws getrandbits(k), k the bit
    length of 2 * bound + 1, each drawn again while it is at least 2 * bound + 1."""
    if bound < 0:
        raise ValueError("bound %d is negative" % bound)
    span = 2 * bound + 1
    k = span.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(n):
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        out.append(r - bound)
    return out


def random_form(degree: int, rng, bound: int) -> Form:
    """Form of the given degree with coefficients drawn uniformly from
    [-bound, bound] in monomial order, as rng.randint draws them."""
    return Form(degree, random_ints(rng, space_dim(degree), bound))


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

# The grammar of the module docstring.  Each whitespace run sits between two
# tokens and each repetition starts with its own operator, so a failed match
# backtracks in time linear in the text.
_NUMERAL = r"\d{1,%d}" % MAX_DIGITS
_FACTOR = r"(?:{n}(?:/{n})?|[XYZ](?:\s*\^\s*{n})?)".format(n=_NUMERAL)
_TERM = r"{f}(?:\s*\*\s*{f})*".format(f=_FACTOR)
_POLYNOMIAL = re.compile(r"\s*(?:[+-]\s*)?{t}(?:\s*[+-]\s*{t})*\s*".format(t=_TERM))
_OUTSIDE_ALPHABET = re.compile(r"[^\s\d+\-*^/XYZ]")
_LONG_NUMERAL = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))
_VARIABLE_INDEX = {name: v for v, name in enumerate(VARIABLES)}


# Longest stretch of a rejected input that an error message quotes.
QUOTED_CHARS = 80


def quoted(value) -> str:
    """repr of a rejected input, for an error message.  A string (any other
    value: its repr) longer than QUOTED_CHARS characters is cut to its first
    QUOTED_CHARS characters and its length is given."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= QUOTED_CHARS:
        return repr(value)
    return "%r... (%d characters)" % (text[:QUOTED_CHARS], len(text))


def _syntax_error(text: str) -> ParseError:
    """Why text the grammar rejects is not a polynomial."""
    bad = _OUTSIDE_ALPHABET.search(text)
    if bad:
        return ParseError("unexpected character %r" % bad.group())
    if _LONG_NUMERAL.search(text):
        return ParseError("numeral of more than %d digits" % MAX_DIGITS)
    if not text.split():
        return ParseError("empty polynomial text")
    return ParseError("malformed polynomial %s" % quoted(text))


def parse_form(text: str) -> Form:
    """Parse polynomial text like ``3*X^2*Y - 1/2*Z^3``.

    Rejects inhomogeneous input, reporting the degrees found, and any
    coefficient whose numerator or denominator has more than MAX_DIGITS
    digits.  The zero form is read in degree 0.

    Text as ``format_form`` prints it is read term by term, checking each
    term as it is read (``read_printed``); a printed coefficient is one
    numeral, or two around "/", so a numeral within the digit cap keeps
    the coefficient within it.  Everything else, a numeral past the cap
    included, is read by the grammar, which gives the same form.
    """
    if type(text) is str:
        form = read_printed(text)
        if form is not None:
            return form
    return _parse_grammar(text)


def read_printed(text: str, degree=None):
    """The form that ``format_form`` prints as text, read term by term at the
    degree given, else at that of the first term; None unless the degree is
    in 0..MAX_DEGREE, each term is the print of one nonzero coefficient times
    one basis monomial of that degree, in strict basis order, joined as
    ``format_form`` joins them.  Such text is the print of the form read, so
    that form is ``_parse_grammar``'s, with its int and Fraction coefficients."""
    if text == "0":
        return Form.zero(0)
    # the printer joins a negative term with " - ", never with " + -"
    if " + -" in text:
        return None
    terms = text.replace(" - ", " + -").split(" + ")
    try:
        if degree is None:
            first = terms[0].lstrip("-")
            if first[:1] not in _VARIABLE_INDEX:
                first = first.partition("*")[2]
            degree = sum(int(f[2:]) if f[1:] else 1 for f in first.split("*")) if first else 0
        if not 0 <= degree <= MAX_DEGREE:
            return None
        index = _spelling_index(degree)
        coeffs = [0] * len(index)
        last = -1
        for term in terms:
            negative = term[:1] == "-"
            if negative:
                term = term[1:]
            i = index.get(term) if term else None
            if i is not None:
                c = 1
            else:
                # a coefficient, then "*" exactly when a monomial follows
                head, star, mono = term.partition("*")
                i = index.get(mono)
                if i is None or star and not mono:
                    return None
                # a longer numeral is past the digit cap, which the grammar names
                if len(head) > MAX_DIGITS and max(map(len, head.split("/"))) > MAX_DIGITS:
                    return None
                c = Fraction(head) if "/" in head else int(head)
                # the printer's spelling of a coefficient it prints
                if str(c) != head or c <= 0 or (c == 1 and mono):
                    return None
            if i <= last:
                return None
            coeffs[i] = -c if negative else c
            last = i
    except (ValueError, ZeroDivisionError):
        return None
    form = object.__new__(Form)
    form.degree, form.coeffs = degree, tuple(coeffs)
    return form


def _parse_grammar(text: str) -> Form:
    """``parse_form`` on any text: the grammar match, then the terms read by
    string splits."""
    if not _POLYNOMIAL.fullmatch(text):
        raise _syntax_error(text)
    # the match fixes every token boundary, so plain string splits read the terms
    acc: dict = {}
    for term in "".join(text.split()).replace("-", "+-").split("+"):
        if not term:
            continue      # before a leading sign
        num, den = 1, 1
        if term[0] == "-":
            num, term = -1, term[1:]
        expo = [0, 0, 0]
        for factor in term.split("*"):
            v = _VARIABLE_INDEX.get(factor[0])
            if v is not None:
                expo[v] += int(factor[2:]) if len(factor) > 1 else 1
            elif "/" in factor:
                top, bottom = factor.split("/")
                bottom = int(bottom)
                if not bottom:
                    raise ParseError("zero denominator in %s" % quoted(factor))
                num *= int(top)
                den *= bottom
            else:
                num *= int(factor)
        if sum(expo) > MAX_DEGREE:
            raise ParseError("term of degree %d exceeds the degree cap %d"
                             % (sum(expo), MAX_DEGREE))
        if num:
            key = tuple(expo)
            acc[key] = acc.get(key, 0) + (num if den == 1 else Fraction(num, den))

    acc = {k: v for k, v in acc.items() if v}
    # k terms whose numerals have D digits in all sum to a coefficient of at
    # most D + log10(k) + 1 digits; D and k are at most len(text), so only
    # text longer than MAX_DIGITS // 2 can build a coefficient that is too long
    if len(text) > MAX_DIGITS // 2:
        for c in acc.values():
            # compared as integers: str() of a 4301-digit integer raises
            if abs(c.numerator) >= _DIGIT_BOUND or c.denominator >= _DIGIT_BOUND:
                raise ParseError("coefficient of more than %d digits" % MAX_DIGITS)
    if not acc:
        return Form.zero(0)
    degrees = {sum(k) for k in acc}
    if len(degrees) > 1:
        raise ParseError("inhomogeneous polynomial: degrees %s" % sorted(degrees))
    d = degrees.pop()
    coeffs = [0] * space_dim(d)
    for (_, b, c), x in acc.items():
        coeffs[position(b, c)] = x
    return Form(d, coeffs)


@_kept_for_small_degrees
def _monomial_spellings(degree: int):
    """Text of each monomial of the degree in basis order, "" for 1."""
    return tuple("*".join(name if e == 1 else "%s^%d" % (name, e)
                          for name, e in zip(VARIABLES, expo) if e)
                 for expo in monomials(degree))


@_kept_for_small_degrees
def _spelling_index(degree: int):
    """Position in the basis of each monomial spelling of the degree."""
    return {text: i for i, text in enumerate(_monomial_spellings(degree))}


def format_form(f: Form) -> str:
    parts = []
    for mono, coeff in zip(_monomial_spellings(f.degree), f.coeffs):
        if coeff:
            # str of a Fraction with denominator 1 is its numerator alone
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%s*%s" % (mag, mono)
            parts.append((" - " if coeff < 0 else " + ") + body)
    if not parts:
        return "0"
    out = "".join(parts)
    # the first term drops the spaces around its sign, and a "+"
    return "-" + out[3:] if out[1] == "-" else out[3:]


# ---------------------------------------------------------------------------
# plane forms: gcd and divisibility, certified on a line first
# ---------------------------------------------------------------------------

# The lines that the certificates try after Z = 0: each through two integer
# points in -99..99, the draws of random_ints(random.Random(_LINE_SEED), 3, 99).
_LINE_DRAWS = 4
_LINE_SEED = 1


def form_gcd(f: Form, g: Form) -> Form:
    """Greatest common divisor, monic in the graded-lex leading term.

    First a certificate that f and g are coprime, on a line (Bezout).  Let F
    and G be f and g scaled to integer coefficients, P and Q integer points,
    and u(t) = F(P + tQ), v(t) = G(P + tQ) modulo p = CERTIFICATE_PRIME.
    Suppose u and v keep the degrees m and n of f and g, so F(Q) and G(Q)
    are nonzero mod p, and gcd(u, v) = 1 in F_p[t].  The Sylvester matrix
    of u and v is that of the integer polynomials F(P + tQ) and G(P + tQ)
    reduced mod p, so their resultant is nonzero mod p, hence nonzero: f
    and g have no common zero P + tQ, and Q is a zero of neither, so they
    have no common zero on the line through P and Q.  A common factor of
    positive degree would have one, since every plane curve meets every
    line; so f and g are coprime, and 1 is returned.  (If P and Q were
    dependent, u and v would share a root once both have positive degree,
    so no certificate would arise.)  The line Z = 0 is tried first, where
    u(t) = F(t, 1, 0) reads the coefficient of X^a*Y^(m-a) as that of t^a,
    then _LINE_DRAWS seeded lines.

    Otherwise the exact answer.  Write f = h*f' and g = h*g' with
    d = deg h.  The map (a, b) -> a*f + b*g from the forms of degrees
    (deg g - 1, deg f - 1) has the kernel (c*g', -c*f') over the forms c of
    degree d - 1, so its nullity is d(d + 1)/2, and it is injective iff f
    and g are coprime (Macaulay's resultant matrix).  At degrees
    (deg g - d, deg f - d) the kernel is the line of c*(g', -f') with c a
    constant; then h solves (c*f')*h = f.
    """
    if f.is_zero() and g.is_zero():
        raise FormError("gcd undefined for two zero forms")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    for u, v in _restrictions(f, g):
        if u[-1] and v[-1] and len(_univariate_gcd(u, v)) == 1:
            return Form.constant(1)
    m, n = f.degree, g.degree
    sylvester = mult_map(f, n - 1).hstack(mult_map(g, m - 1))
    nullity = sylvester.cols - sylvester.rank()
    d = 0
    while space_dim(d - 1) < nullity:
        d += 1
    if d == 0:
        return Form.constant(1)
    (v,) = mult_map(f, n - d).hstack(mult_map(g, m - d)).kernel_basis()
    cofactor = Form(m - d, v[space_dim(n - d):])
    return Form(d, mult_map(cofactor, d).solve(f.coeffs)).monic()


def divides(f: Form, g: Form) -> bool:
    """True iff g = f * h for some form h, i.e. g lies in the column space
    of multiplication by f.

    A "no" is first looked for on the lines of `form_gcd`, with u and v as
    there and u of degree deg f (F(Q) nonzero mod p): if u does not divide
    v in F_p[t], f does not divide g.  For suppose f divides g.  Write
    F = c_F*F0 and G = c_G*G0 with c_F, c_G the contents, so F0 divides G0
    over Q, and by Gauss's lemma G0 = F0*H0 with H0 integral; then
    c_F*G = c_G*F*H0.  p does not divide c_F, which divides the
    coefficient F(Q) of t^m in u, so restricting to the line and reducing
    mod p gives v = (c_G/c_F)*u*H0(P + tQ): u divides v.  A "yes" is the
    exact solve."""
    if f.is_zero():
        raise FormError("divisibility by the zero form is undefined")
    if g.is_zero():
        return True
    if g.degree < f.degree:
        return False
    for u, v in _restrictions(f, g):
        if u[-1] and _univariate_rem(v, u):
            return False
    return mult_map(f, g.degree - f.degree).solve(g.coeffs) is not None


def _restrictions(f: Form, g: Form):
    """(u, v) for each line of the certificates in turn, Z = 0 first: the
    restrictions t -> F(P + tQ), G(P + tQ) modulo CERTIFICATE_PRIME of f and
    g scaled to integers, as coefficient lists, lowest degree first, of
    length deg + 1 (the last entry, F(Q), may be 0)."""
    p = CERTIFICATE_PRIME
    (F, G), _ = integer_rows([f.coeffs, g.coeffs])
    scaled = ((f.degree, [c % p for c in F]), (g.degree, [c % p for c in G]))
    # on Z = 0 (P = (0, 1, 0), Q = (1, 0, 0)) u(t) reads the coefficient of
    # X^a*Y^(m-a) as that of t^a
    yield tuple([r[position(m - a, 0)] for a in range(m + 1)] for m, r in scaled)
    rng = random.Random(_LINE_SEED)
    for _ in range(_LINE_DRAWS):
        P, Q = random_ints(rng, 3, 99), random_ints(rng, 3, 99)
        yield tuple(_on_line(m, r, P, Q) for m, r in scaled)


def _on_line(m: int, residues, P, Q):
    """Coefficients, lowest first, of t -> F(P + tQ) modulo CERTIFICATE_PRIME
    for the residues of a degree-m form F: its values at t = 0..m,
    interpolated by Newton's divided differences."""
    p = CERTIFICATE_PRIME
    terms = [(c, e) for c, e in zip(residues, monomials(m)) if c]
    c = []
    for t in range(m + 1):
        x, y, z = [[pow(a + t * b, k, p) for k in range(m + 1)] for a, b in zip(P, Q)]
        c.append(sum(r * x[a] * y[b] * z[e] for r, (a, b, e) in terms) % p)
    for j in range(1, m + 1):
        inv = pow(j, p - 2, p)
        for i in range(m, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    # Horner on the Newton form c[0] + t*(c[1] + (t - 1)*(c[2] + ...))
    poly = []
    for k in range(m, -1, -1):
        poly = [(lo - k * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + c[k]) % p
    return poly


def _univariate_rem(a, b):
    """Remainder of a by b in F_p[t], p = CERTIFICATE_PRIME, coefficient
    lists lowest first, b with a nonzero last entry; trailing zeros of the
    remainder dropped."""
    p = CERTIFICATE_PRIME
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    for i in range(len(a) - 1, db - 1, -1):
        q = a[i] * inv % p
        if q:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - q * b[j]) % p
    del a[db:]
    while a and not a[-1]:
        a.pop()
    return a


def _univariate_gcd(a, b):
    """A gcd in F_p[t] by Euclid, of lists with nonzero last entries."""
    while b:
        a, b = b, _univariate_rem(a, b)
    return a


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
            rows.append([0] * space_dim(deg))
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
    return block_mult_map([[f]], [s + f.degree], [s])


def block_mult_map(entries, row_deg, col_deg) -> QMatrix:
    """Block matrix of a matrix of forms acting on forms.

    Block (i, j) is mult_map(entries[i][j], col_deg[j]), from the degree
    col_deg[j] forms to the degree row_deg[i] forms; a zero entry gives a
    zero block.  The terms are written straight into the output, each product
    at its `position`: for a fixed source monomial m_j the products m_f * m_j
    are distinct, so each cell is written at most once.  Raises FormError if
    a nonzero entry has the wrong degree."""
    row_dims = [space_dim(k) for k in row_deg]
    col_dims = [space_dim(k) for k in col_deg]
    out = QMatrix(sum(row_dims), sum(col_dims))
    data = out.data
    r0 = 0
    for row, t, t_dim in zip(entries, row_deg, row_dims):
        c0 = 0
        for f, s, s_dim in zip(row, col_deg, col_dims):
            if t_dim and s_dim and not f.is_zero():
                if f.degree + s != t:
                    raise FormError("entry of degree %d maps degree %d into %d rows, not %d"
                                    % (f.degree, s, space_dim(s + f.degree), t_dim))
                terms = [(b, c, coeff) for (_, b, c), coeff in f.terms()]
                for j, (_, bj, cj) in enumerate(monomials(s), c0):
                    for b, c, coeff in terms:
                        data[r0 + position(bj + b, cj + c)][j] = coeff
            c0 += s_dim
        r0 += t_dim
    return out
