"""Reduced point configurations in the plane.

Genericity predicates are determinant/rank computations; ideal slices are
kernels of evaluation matrices.  Minimal free resolutions are counted, not
eliminated: the Hilbert function and the generator degrees, read off the
slices up to degree r_Z + 1, fix the syzygy degrees (Hilbert-Burch).  A
configuration is resolved exactly when it has at most 15 points and
r_Z <= 5; see `minimal_resolution`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count

from .forms import Form, ParseError, block_mult_map, divides, monomials, space_dim
from .linalg import QMatrix
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


class PointConfig:
    """Pairwise distinct projective points, last nonzero coordinate scaled to 1."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = tuple(_normalize(p) for p in points)
        if len(set(pts)) != len(pts):
            raise PointError("duplicate points in configuration")
        self.points = pts

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
        try:
            coords = [[Fraction(str(c)) for c in p] for p in pts]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad point coordinate: %s" % exc) from exc
        return cls(coords)

    def to_json(self) -> dict:
        return {"points": [[str(c) for c in p] for p in self.points]}

    def subset(self, idxs) -> "PointConfig":
        return PointConfig([self.points[i] for i in idxs])


def colinear_triple_exists(cfg: PointConfig) -> bool:
    if len(cfg) < 3:
        return False
    for tri in combinations(range(len(cfg)), 3):
        m = QMatrix.from_rows([list(cfg.points[i]) for i in tri])
        if m.det() == 0:
            return True
    return False


def colinear_subset_exists(cfg: PointConfig, k: int) -> bool:
    """True iff some k points lie on a line (coordinate rank at most 2)."""
    if len(cfg) < k:
        return False
    for sub in combinations(range(len(cfg)), k):
        m = QMatrix.from_rows([list(cfg.points[i]) for i in sub])
        if m.rank() <= 2:
            return True
    return False


def evaluation_matrix(cfg: PointConfig, t: int) -> QMatrix:
    """Rows are the degree-t monomials evaluated at each point."""
    rows = []
    for (x, y, z) in cfg.points:
        rows.append([x**a * y**b * z**c for (a, b, c) in monomials(t)])
    return QMatrix(len(cfg), space_dim(t), rows)


def contained_in_curve_of_degree(cfg: PointConfig, k: int) -> bool:
    if k < 1:
        raise PointError("curve degree must be positive")
    return evaluation_matrix(cfg, k).rank() < space_dim(k)


def ideal_slice(cfg: PointConfig, t: int):
    """Basis of the degree-t forms vanishing at every point."""
    if t < 0:
        return []
    return [Form(t, v) for v in evaluation_matrix(cfg, t).kernel_basis()]


def subset_on_curve_exists(cfg: PointConfig, size: int, degree: int) -> bool:
    if len(cfg) < size:
        return False
    return any(contained_in_curve_of_degree(cfg.subset(sub), degree)
               for sub in combinations(range(len(cfg)), size))


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

_VARIABLES = (Form.monomial(1, 0, 0), Form.monomial(0, 1, 0), Form.monomial(0, 0, 1))


def minimal_resolution(cfg: PointConfig) -> BettiShape:
    """Generator and syzygy degrees of the minimal free resolution
    0 -> (+) S(-b) -> (+) S(-a) -> I_Z -> 0 of the point ideal.

    Only dimensions are computed.  For t = 0, 1, ... the ideal slice I_t gives
    the Hilbert function H_Z(t) = dim S_t - dim I_t, and the generators new in
    degree t number dim I_t - rank(S_1 * I_{t-1}).  The walk stops at
    t = r_Z + 1, where r_Z = min{t : H_Z(t) = n} is the regularity index: no
    generator lies above r_Z + 1.  By Hilbert-Burch the Hilbert-series
    numerator 1 - sum s^a + sum s^b is the third difference
    c_t = H(t) - 3H(t-1) + 3H(t-2) - H(t-3) (H = 0 below 0, H = n from r_Z
    on), so the syzygies in degree t number c_t - [t = 0] + (generators in
    degree t); the last one sits in degree r_Z + 2.

    A configuration is accepted exactly when it has at most 15 points and
    r_Z <= 5, so that every syzygy lies below DEGREE_CAP; otherwise
    PointError.  The shape is then checked against the Hilbert function at
    every degree up to the cap and against the point count beyond it.
    """
    n = len(cfg)
    if n > 15:
        raise PointError("configurations above 15 points exceed the degree cap")
    hilb = []            # H_Z(t) for t = 0 .. r_Z + 1
    gens = []            # generator degrees, ascending
    prev_slice = []
    for t in count():
        cur = ideal_slice(cfg, t)
        hilb.append(space_dim(t) - len(cur))
        shifted = QMatrix.from_rows([(f * x).coeffs for f in prev_slice for x in _VARIABLES])
        gens.extend([t] * (len(cur) - shifted.rank()))
        if t > 0 and hilb[t - 1] == n:
            break        # t = r_Z + 1
        if hilb[t] < n and t + 3 >= DEGREE_CAP:
            raise PointError("regularity index above %d: the last syzygy reaches "
                             "the degree cap %d" % (DEGREE_CAP - 3, DEGREE_CAP))
        prev_slice = cur

    padded = [0, 0, 0] + hilb + [n]      # H(-3) .. H(r_Z + 2)
    syz = []
    for t in range(len(hilb) + 1):
        h3, h2, h1, h0 = padded[t:t + 4]
        b = (h0 - 3 * h1 + 3 * h2 - h3) - (t == 0) + gens.count(t)
        if b < 0:
            raise PointError("Hilbert function gives %d syzygies in degree %d" % (b, t))
        syz.extend([t] * b)

    shape = BettiShape(tuple(gens), tuple(syz))
    _check_hilbert(n, shape, DEGREE_CAP, hilb)
    return shape


def _check_hilbert(n: int, shape: BettiShape, cap: int, hilb):
    """Compare the shape with the Hilbert function of n reduced points, given
    as hilb = [H_Z(0), ..., H_Z(r_Z + 1)].  H_Z is non-decreasing and bounded
    by n, so H_Z(t) = n for every t >= r_Z and no rank is needed there."""
    for t in range(cap + 1):
        expected = space_dim(t) - (hilb[t] if t < len(hilb) else n)
        from_shape = (sum(space_dim(t - a) for a in shape.generators)
                      - sum(space_dim(t - b) for b in shape.syzygies))
        if expected != from_shape:
            raise PointError(
                "resolution inconsistent with the ideal at degree %d (%d vs %d)"
                % (t, from_shape, expected))
    if len(shape.generators) != len(shape.syzygies) + 1:
        raise PointError("resolution is not of codimension-two shape")
    # tail check: the resolved module must eventually count exactly the points
    for t in (cap + 1, cap + 2, cap + 3):
        covolume = (space_dim(t) - sum(space_dim(t - a) for a in shape.generators)
                    + sum(space_dim(t - b) for b in shape.syzygies))
        if covolume != n:
            raise PointError(
                "resolution incomplete within the degree cap: "
                "the tail counts %d instead of %d points" % (covolume, n))


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
        (("unique_cubic", lambda cfg: len(ideal_slice(cfg, 3)) == 1),)),
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
