"""Reduced point configurations in the plane.

Point ideals stay in integers: the evaluation matrices are taken at int
coordinates of each point, and an ideal slice is the kernel of one taken
as primitive integer vectors (`QMatrix.integer_kernel_basis`).
Colinearity is decided by counting the points on the line p x q through
each pair; the curve predicates take one elimination of an evaluation
matrix each, and `subset_on_curve_exists` answers every subset from the
left kernel of one matrix.  Minimal free resolutions are counted from one
reduced fraction-free elimination: with no point on the line Z = 0, the
monomials X^(t-b) Y^b Z^(top-t) evaluated at the points, columns in the
order of t, then b, have the ideal slice Z^(top-t) I_t as the kernel of
their first dim S_t columns, so the pivots there count the Hilbert
function, and the free columns of degree t give a basis of the section
of I_t by Z = 0: binary forms in X and Y whose products by X and Y are
shifted coefficient vectors of at most 7 entries.  The generator degrees
are read off those sections, and the Hilbert function then fixes the
syzygy degrees (Hilbert-Burch).  A configuration with a point on Z = 0 is
first moved off that line by a change of coordinates of determinant 1.
It is resolved exactly when it has at most 15 points and r_Z <= 5; see
`minimal_resolution`.  Coordinates read from JSON have at most MAX_DIGITS
digits in numerator and denominator.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import lcm

from .forms import (MAX_DIGITS, Form, ParseError, block_mult_map, divides,
                    monomial_values, quoted, space_dim)
from .linalg import QMatrix, from_columns, integer_echelon, null_vectors
from .presentation import Presentation


class PointError(ValueError):
    pass


class GenericityError(PointError):
    """A claim's genericity precondition fails; names the predicate."""


def _normalize(coords):
    """The coordinates divided by the last nonzero one, each an int where the
    quotient has denominator 1 and a Fraction otherwise."""
    coords = tuple(Fraction(c) for c in coords)
    if len(coords) != 3:
        raise PointError("points need three coordinates")
    last = None
    for c in reversed(coords):
        if c != 0:
            last = c
            break
    if last is None:
        raise PointError("the zero vector is not a projective point")
    return tuple(q.numerator if q.denominator == 1 else q for q in (c / last for c in coords))


# A point coordinate as text: a signed integer with an optional
# "/denominator", or a decimal with an optional exponent.
_COORDINATE = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)\s*")


def _coordinate(c) -> Fraction:
    """The rational a JSON coordinate (text or number) spells.  Its numerator
    and denominator as written, with the exponent applied, may have at most
    MAX_DIGITS digits.  This is checked on the text, before any integer is
    built, so "1e99999" is refused at once instead of building 10^99999."""
    m = _COORDINATE.fullmatch(str(c))
    if m is None:
        raise ParseError("bad point coordinate %s" % quoted(c))
    sign, num, den, frac, exp = m.groups()
    if den is None:
        frac, exp = frac or "", exp or "0"
        # an exponent with more digits than 2 * MAX_DIGITS exceeds it and
        # breaks the cap below whatever the numeral, so int() reads only
        # short exponents
        if len(exp.lstrip("+-0")) > len(str(2 * MAX_DIGITS)):
            raise ParseError("point coordinate of more than %d digits" % MAX_DIGITS)
        shift = int(exp) - len(frac)
        num, den = num + frac + "0" * shift, "1" + "0" * -shift
    if len(num) > MAX_DIGITS or len(den) > MAX_DIGITS:
        raise ParseError("point coordinate of more than %d digits" % MAX_DIGITS)
    if not int(den):
        raise ParseError("zero denominator in point coordinate %s" % quoted(c))
    return Fraction(int(sign + num), int(den))


def _integer_point(p):
    """The point times the lcm of its denominators: the same projective
    point, with int coordinates."""
    scale = lcm(*(c.denominator for c in p))
    return p if scale == 1 else tuple(c.numerator * (scale // c.denominator) for c in p)


class PointConfig:
    """Pairwise distinct projective points, last nonzero coordinate scaled to
    1, and the same points with int coordinates for `evaluation_matrix`."""

    __slots__ = ("points", "_integer_points")

    def __init__(self, points):
        pts = tuple(_normalize(p) for p in points)
        if len(set(pts)) != len(pts):
            raise PointError("duplicate points in configuration")
        self.points = pts
        self._integer_points = tuple(_integer_point(p) for p in pts)

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, PointConfig) and self.points == other.points

    @classmethod
    def from_json(cls, obj) -> "PointConfig":
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            pts = obj["points"]
        except (KeyError, TypeError) as exc:
            raise ParseError("point JSON needs a 'points' list") from exc
        if not isinstance(pts, list) or not all(isinstance(p, list) for p in pts):
            raise ParseError("'points' must be a list of coordinate lists")
        return cls([[_coordinate(c) for c in p] for p in pts])

    def to_json(self) -> dict:
        return {"points": [[str(c) for c in p] for p in self.points]}


def colinear_triple_exists(cfg: PointConfig) -> bool:
    return colinear_subset_exists(cfg, 3)


def colinear_subset_exists(cfg: PointConfig, k: int) -> bool:
    """True iff some k points lie on a line.  Two distinct points p, q span
    the line l = p x q (cross product), and a point r lies on it iff
    l . r = 0, so counting the points on the line of each pair decides it
    exactly in O(n^3) products.  Any k <= 2 of the points are colinear."""
    if k < 0:
        raise PointError("subset size must be non-negative")
    pts = cfg.points
    n = len(pts)
    if n < k:
        return False
    if k <= 2:
        return True
    # the first two of k colinear points, i < j, have k - 2 more after them
    for i in range(n - k + 1):
        x1, y1, z1 = pts[i]
        for j in range(i + 1, n - k + 2):
            x2, y2, z2 = pts[j]
            a, b, c = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
            if 2 + sum(a * x + b * y + c * z == 0 for x, y, z in pts[j + 1:]) >= k:
                return True
    return False


def evaluation_matrix(cfg: PointConfig, t: int) -> QMatrix:
    """Rows are the degree-t monomials evaluated at each point, taken with
    int coordinates.  That scales each row by a nonzero factor, which
    changes no rank, kernel or RREF, and keeps Fractions out of the
    monomial powers."""
    return QMatrix(len(cfg), space_dim(t),
                   [monomial_values(t, p) for p in cfg._integer_points])


def _ideal_dim(cfg: PointConfig, k: int) -> int:
    """dim I_k = dim S_k - rank E_k, the degree-k forms through the points."""
    return space_dim(k) - evaluation_matrix(cfg, k).rank()


def contained_in_curve_of_degree(cfg: PointConfig, k: int) -> bool:
    if k < 1:
        raise PointError("curve degree must be positive")
    return _ideal_dim(cfg, k) > 0


def ideal_slice(cfg: PointConfig, t: int):
    """Basis of the degree-t forms vanishing at every point, each a form with
    coprime integer coefficients."""
    if t < 0:
        return []
    return [Form(t, v) for v in evaluation_matrix(cfg, t).integer_kernel_basis()]


def subset_on_curve_exists(cfg: PointConfig, size: int, degree: int) -> bool:
    """True iff some `size` of the points lie on a curve of the given degree:
    their rows E_S of the evaluation matrix E have rank below dim S_degree.

    One kernel serves every subset.  The rows of W, a basis of the left
    kernel of E, span the relations among the rows of E, and the relations
    among the rows in S are those combinations of W that vanish at every
    point outside S.  So rank E_S = |S| - dim W + rank W_out, where W_out
    is W restricted to the points outside S."""
    if size < 0:
        raise PointError("subset size must be non-negative")
    n = len(cfg)
    if n < size:
        return False
    if degree < 1:
        raise PointError("curve degree must be positive")
    values = evaluation_matrix(cfg, degree)
    w = from_columns(values.data, values.cols).integer_kernel_basis()
    bound = values.cols - size + len(w)      # rank E_S < dim S_degree iff rank W_out < bound
    return any(QMatrix(len(w), n - size, [[v[i] for i in out] for v in w]).rank() < bound
               for out in combinations(range(n), n - size))


# ---------------------------------------------------------------------------
# minimal free resolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiShape:
    generators: tuple
    syzygies: tuple

    def to_json(self):
        return {"gens": list(self.generators), "syz": list(self.syzygies)}


# The last syzygy of a point ideal sits in degree r_Z + 2, so configurations
# whose syzygies would reach this degree (r_Z > DEGREE_CAP - 3) are refused.
DEGREE_CAP = 8


def _line_missing(points):
    """The first (a, b), searched outward from (0, 0) ring by ring, for which
    the line aX + bY + Z = 0 misses every point.  A point excludes at most
    one line of pairs (a, b), so the search ends."""
    for r in count():
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                if max(abs(a), abs(b)) == r and all(a * x + b * y + z for x, y, z in points):
                    return a, b


def minimal_resolution(cfg: PointConfig) -> BettiShape:
    """Generator and syzygy degrees of the minimal free resolution
    0 -> (+) S(-b) -> (+) S(-a) -> I_Z -> 0 of the point ideal.

    Only dimensions are computed, all from one reduced fraction-free
    elimination.  If some point lies on Z = 0, the configuration is first
    replaced by its image (x, y, ax + by + z) for the first line
    aX + bY + Z that misses every point (`_line_missing`).  That change of
    coordinates has determinant 1 and maps the ideal by a graded
    automorphism of S, so the Hilbert function and the graded Betti numbers
    are the same, and now Z vanishes at no point.

    Take top = min(n - 1, DEGREE_CAP - 3), and 0 for no points: n points
    impose independent conditions in degree n - 1.  The matrix has one row
    per point and the space_dim(top) columns X^(t-b) Y^b Z^(top-t), in the
    order of t, then b; `integer_echelon` reduces it to m / d.  Its first
    space_dim(t) columns are Z^(top-t) S_t, whose kernel is Z^(top-t) I_t
    as Z vanishes at no point, so the Hilbert function
    H_Z(t) = dim S_t - dim I_t is the number of pivots among them, and
    r_Z = min{t : H_Z(t) = n} is the regularity index; H_Z(t) = n from r_Z
    on.  By Hilbert-Burch the Hilbert-series numerator
    1 - sum s^a + sum s^b is the third difference
    c_t = H(t) - 3H(t-1) + 3H(t-2) - H(t-3) (H = 0 below 0), so the
    syzygies in degree t number c_t - [t = 0] + (generators in degree t);
    no generator lies above r_Z + 1, and the last syzygy sits in degree
    r_Z + 2.

    The generators are counted on the section by the line Z = 0.  As Z is
    a non-zero-divisor on S/I_Z, Zf in I_Z forces f in I_Z, so I_Z meets
    ZS in Z I_Z.  The section J = (I_Z + ZS)/ZS is then I_Z/Z I_Z, an ideal
    of R = k[X, Y] with dim J_t = dim I_t - dim I_(t-1), and
    I_Z/m I_Z = J/m_R J (Eisenbud, The Geometry of Syzygies, ch. 1 and 3).
    So the generators new in degree t number dim J_t - rank R_1 J_(t-1).
    A free column c of degree t gives the form of I_t with d at c, 0 at the
    other free columns and -m[r][c] at the pivot of each row r.  Rows with
    a pivot of lower degree are zero at c, so its section is d at c and
    -m[r][c] at the pivots of degree t: `null_vectors` of the columns of
    degree t.  These sections have distinct free columns, and there are
    dim J_t of them, so they are a basis of J_t.  R_1 J_(t-1) is spanned by
    X g and Y g for g in that basis: on X^t, X^(t-1) Y, ..., Y^t these are
    g + [0] and [0] + g, so each rank has t + 1 <= 7 rows.

    A configuration is accepted exactly when it has at most 15 points and
    r_Z <= 5, so that every syzygy lies below DEGREE_CAP; otherwise
    PointError.  The shape needs no check against H_Z afterwards: the
    syzygies are read off H_Z, so 1 - sum s^a + sum s^b = (1 - s)^3 HS_Z(s)
    by construction, which makes every degree agree, the tail count n and
    #gens = #syz + 1.
    """
    n = len(cfg)
    if n > 15:
        raise PointError("configurations above 15 points exceed the degree cap")
    a, b = _line_missing(cfg._integer_points)
    top = max(min(n - 1, DEGREE_CAP - 3), 0)
    # X^(t-b) Y^b Z^(top-t) in the order of t, then b, is the basis order
    # of degree top in the variables (Z, X, Y)
    m = [monomial_values(top, (a * x + b * y + z, x, y)) for x, y, z in cfg._integer_points]
    pivots, d = integer_echelon(m, space_dim(top), reduced=True)
    hilb = [bisect_left(pivots, space_dim(t)) for t in range(top + 1)]
    if hilb[top] < n:
        raise PointError("regularity index above %d: the last syzygy reaches "
                         "the degree cap %d" % (DEGREE_CAP - 3, DEGREE_CAP))
    del hilb[hilb.index(n) + 1:]
    hilb.append(n)       # H_Z(t) for t = 0 .. r_Z + 1
    gens = []            # generator degrees, ascending
    sections = []        # a basis of J_(t-1)
    for t, h in enumerate(hilb):
        below = hilb[t - 1] if t else 0      # the rows with a pivot of degree below t
        # columns X*g = g + [0] and Y*g = [0] + g, none below the first generator
        shifted = (QMatrix(t + 1, 2 * len(sections),
                           [[g[k] if k < t else 0 for g in sections]
                            + [g[k - 1] if k else 0 for g in sections]
                            for k in range(t + 1)]).rank()
                   if sections else 0)
        # dim J_t, the free columns of degree t, less rank R_1 J_(t-1)
        gens.extend([t] * (t + 1 - (h - below) - shifted))
        lo = space_dim(t - 1)
        sections = null_vectors([m[r][lo:lo + t + 1] for r in range(below, h)],
                                [pivots[r] - lo for r in range(below, h)], d, t + 1)

    padded = [0, 0, 0] + hilb + [n]      # H(-3) .. H(r_Z + 2)
    syz = []
    for t in range(len(hilb) + 1):
        h3, h2, h1, h0 = padded[t:t + 4]
        b = (h0 - 3 * h1 + 3 * h2 - h3) - (t == 0) + gens.count(t)
        if b < 0:
            raise PointError("Hilbert function gives %d syzygies in degree %d" % (b, t))
        syz.extend([t] * b)

    return BettiShape(tuple(gens), tuple(syz))


# ---------------------------------------------------------------------------
# named claims
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointClaim:
    size: int
    shape: BettiShape
    predicates: tuple   # (name, callable) pairs


def _pred_no_colinear(k):
    return ("no_%d_colinear" % k, lambda cfg: not colinear_subset_exists(cfg, k))


CLAIMS = {
    "len8_general": PointClaim(
        8, BettiShape((3, 3, 4), (5, 5)),
        (_pred_no_colinear(4),
         ("no_7_on_conic", lambda cfg: not subset_on_curve_exists(cfg, 7, 2)))),
    "len5_general": PointClaim(
        5, BettiShape((2, 3, 3), (4, 4)),
        (_pred_no_colinear(3),)),
    "len7_no_conic": PointClaim(
        7, BettiShape((3, 3, 3), (4, 5)),
        (("not_on_conic", lambda cfg: not contained_in_curve_of_degree(cfg, 2)),
         _pred_no_colinear(4))),
    "len9_unique_cubic": PointClaim(
        9, BettiShape((3, 4, 4, 4), (5, 5, 5)),
        (("unique_cubic", lambda cfg: _ideal_dim(cfg, 3) == 1),)),
    "len1": PointClaim(1, BettiShape((1, 1), (2,)), ()),
    "len2": PointClaim(2, BettiShape((1, 2), (3,)), ()),
    "len3_general": PointClaim(
        3, BettiShape((2, 2, 2), (3, 3)),
        (("not_colinear", lambda cfg: not colinear_triple_exists(cfg)),)),
    "len3_colinear": PointClaim(
        3, BettiShape((1, 3), (4,)),
        (("colinear", lambda cfg: colinear_triple_exists(cfg)),)),
}


@dataclass
class ClaimResult:
    matched: bool
    expected: BettiShape
    found: BettiShape

    def to_json(self):
        return {"match": self.matched,
                "expected": self.expected.to_json(),
                "found": self.found.to_json()}


def verify_point_claim(claim_id: str, cfg: PointConfig) -> ClaimResult:
    if claim_id not in CLAIMS:
        raise PointError("unknown claim %r" % claim_id)
    claim = CLAIMS[claim_id]
    if len(cfg) != claim.size:
        raise GenericityError("claim %s needs %d points, got %d"
                              % (claim_id, claim.size, len(cfg)))
    for name, pred in claim.predicates:
        if not pred(cfg):
            raise GenericityError("genericity predicate %r fails" % name)
    found = minimal_resolution(cfg)
    return ClaimResult(found == claim.shape, claim.shape, found)


# ---------------------------------------------------------------------------
# the two-points-on-a-sextic construction
# ---------------------------------------------------------------------------

def line_through(p, q) -> Form:
    kern = QMatrix.from_rows([list(p), list(q)]).kernel_basis()
    if len(kern) != 1:
        raise PointError("points do not span a unique line")
    return Form(1, kern[0])


def flag_pair_presentation(two_points: PointConfig, sextic: Form) -> Presentation:
    """Presentation O(-4)+O(-1) -> O+O(1) of the twisted ideal of two points
    inside the sextic curve through them; classifies to (1, X_5)."""
    if len(two_points) != 2:
        raise PointError("exactly two points required")
    if sextic.degree != 6 or sextic.is_zero():
        raise PointError("a nonzero sextic form is required")
    for pt in two_points.points:
        if sextic.evaluate(pt) != 0:
            raise PointError("sextic does not vanish at %s" % (pt,))
    ell = line_through(*two_points.points)
    conic = None
    for vec in evaluation_matrix(two_points, 2).kernel_basis():
        cand = Form(2, vec)
        if not divides(ell, cand):
            conic = cand
            break
    if conic is None:
        raise PointError("no conic through the points avoids the line")
    # solve  sextic = h * conic - g * line  for h (quartic), g (quintic)
    system = block_mult_map([[conic, -ell]], [6], [4, 5])
    solution = system.solve(list(sextic.coeffs))
    if solution is None:
        raise PointError("sextic is not in the ideal of the two points")
    h = Form(4, solution[:space_dim(4)])
    g = Form(5, solution[space_dim(4):])
    return Presentation((-4, -1), (0, 1), [[h, ell], [g, conic]])
