"""Stability verdicts for square presentations, and cohomology bounds.

The criteria implemented here are hypothesis-gated: when a criterion's
preconditions fail the verdict is Inconclusive with the failed hypothesis
named, never a guess.  Stable/ProperlySemistable answers are exact.

Each criterion takes an injective map, which it does not check: the
`stability` command and `verify_row` decide injectivity first.  A map that
is not injective still gets a verdict and never a traceback, but the verdict
proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forms import Form, divides, form_gcd, form_minors, linearly_independent, space_dim
from .presentation import (Presentation, PresentationError,
                           euler_char_line_bundle)


def slope(r: int, chi: int) -> Fraction:
    if r < 1:
        raise ValueError("slope needs positive multiplicity")
    return Fraction(chi, r)


@dataclass
class SubsheafWitness:
    """Resolution data 0 -> O(a) -> O(b) -> S -> 0 of a slope-matching subsheaf."""

    sub_source: int
    sub_target: int

    def hilbert(self):
        r = self.sub_target - self.sub_source
        chi = euler_char_line_bundle(self.sub_target) - euler_char_line_bundle(self.sub_source)
        return r, chi

    def slope(self) -> Fraction:
        r, chi = self.hilbert()
        return Fraction(chi, r)

    def to_json(self):
        return {"sub_source": self.sub_source, "sub_target": self.sub_target}


@dataclass
class StabilityVerdict:
    kind: str                   # "stable" | "properly_semistable" | "inconclusive"
    reason: str = ""
    witness: SubsheafWitness | None = None

    def to_json(self):
        out = {"kind": self.kind, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def _sorted_square(P: Presentation):
    if len(P.source) != len(P.target):
        raise PresentationError("criterion needs a square presentation")
    if not P.source:
        raise PresentationError("criterion needs a nonempty presentation")
    return P.source, P.target


def _restriction_minors(P: Presentation):
    """Maximal minors of the matrix with the lowest-twist source column removed.

    Minor i omits target row i, a column of the transpose that `form_minors`
    takes; returns (minor forms, their required degrees)."""
    n = len(P.source)
    minors = form_minors(list(zip(*[row[1:] for row in P.matrix])))
    tail = sum(P.target) - sum(P.source[1:])
    return ([minors[tuple(r for r in range(n) if r != i)] for i in range(n)],
            [tail - e for e in P.target])


def _share_a_factor(forms) -> bool:
    """Whether the forms have a common factor of positive degree; forms that
    are all zero share every factor."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return True
    g = forms[0]
    for f in forms[1:]:
        g = form_gcd(g, f)
        if g.degree == 0:
            return False
    return g.degree > 0


def _pair_special_form(P: Presentation) -> bool:
    """For a 2x2 presentation with e1-d1 = e2-d2 that passes the gates of
    `two_by_two_criterion`: can the (1,1) entry be made zero by the allowed
    triangular transformations?  Decided exactly."""
    d1, d2 = P.source
    f11, f12 = P.matrix[0]
    f21, f22 = P.matrix[1]
    if d1 < d2:
        # a row scalar cannot mix rows downward; only the column operation
        # col1 += u * col2 (deg u = d2 - d1) and scalars act on the slot.
        # f12 != 0: else the caller's coprime second column makes f22 a
        # nonzero constant, so e2 = d2, and equal gaps give e1 = d1 <= d2,
        # against d2 < e1
        return divides(f12, f11)
    # d1 == d2 (hence e1 == e2): both sides act by full 2x2 scalars; the slot
    # can be cleared iff a*phi*c = 0 for some nonzero scalar vectors a, c,
    # i.e. the entrywise wedge quadrics, binary in (u, v), have a common root
    # over the closure: a common factor, as forms in X = u and Y = v, or all
    # of them zero
    dim = space_dim(P.target[0] - d1)

    def wedge(f, g):
        fa = f.coeffs if not f.is_zero() else (0,) * dim
        ga = g.coeffs if not g.is_zero() else (0,) * dim
        return [fa[a] * ga[b] - fa[b] * ga[a]
                for a in range(dim) for b in range(a + 1, dim)]

    w_11 = wedge(f11, f21)
    w_cross = [x + y for x, y in zip(wedge(f11, f22), wedge(f12, f21))]
    w_22 = wedge(f12, f22)
    return _share_a_factor([Form.from_dict(2, {(2, 0, 0): a, (1, 1, 0): b, (0, 2, 0): c})
                            for a, b, c in zip(w_11, w_cross, w_22)])


def two_by_two_criterion(P: Presentation) -> StabilityVerdict:
    """Pairs O(d1)+O(d2) -> O(e1)+O(e2) with d2 < e1 and e1-d1 >= e2-d2 and the
    second-column entries coprime: stable, unless the twist gaps agree and the
    top-left slot can be cleared, which is the properly-semistable wall.
    P must be injective, which is not checked here; a second column that
    vanishes, as it may only when P is not, shares every factor."""
    d, e = _sorted_square(P)
    if len(d) != 2:
        return StabilityVerdict("inconclusive", "needs exactly two summands on each side")
    d1, d2 = d
    e1, e2 = e
    if not d2 < e1:
        return StabilityVerdict("inconclusive", "twist ordering d2 < e1 fails")
    if not (e1 - d1 >= e2 - d2):
        return StabilityVerdict("inconclusive", "twist gap ordering e1-d1 >= e2-d2 fails")
    if _share_a_factor([P.matrix[0][1], P.matrix[1][1]]):
        return StabilityVerdict("inconclusive", "second-column entries share a factor")
    if e1 - d1 > e2 - d2:
        return StabilityVerdict("stable", "strict twist gap")
    if _pair_special_form(P):
        return StabilityVerdict("properly_semistable", "slope-matching subsheaf found",
                                SubsheafWitness(d1, e2))
    return StabilityVerdict("stable", "no special form")


def minor_gcd_criterion(P: Presentation) -> StabilityVerdict:
    """Square presentations with sorted twists: if the twist-gap inequalities
    hold and the maximal minors of the truncation (lowest source column
    removed) are coprime of positive degree, the cokernel is stable unless an
    integral slope ratio admits a line-bundle-pair subsheaf.  P must be
    injective, which is not checked here; truncation minors that all vanish,
    as they may only when P is not, share every factor."""
    # An injective P has e_i >= d_i for every i, else rows 0..i and columns
    # i..n-1 hold an (i+1) x (n-i) zero block and det P = 0; so the further
    # twist-gap inequalities hold (their quadratic bound is a weighted mean of
    # the e_i + d_i, each at least e_0 + d_0), and det P, which expands along
    # column 0 into the truncation minors, keeps them from all vanishing.
    d, e = _sorted_square(P)
    n = len(d)
    if not (e[0] - d[0] >= sum(e[1:]) - sum(d[1:])):
        return StabilityVerdict("inconclusive", "twist gap inequality (first summand) fails")
    minors, degs = _restriction_minors(P)
    if any(deg == 0 for deg in degs):
        return StabilityVerdict("inconclusive", "a truncation minor has degree zero")
    if _share_a_factor(minors):
        return StabilityVerdict("inconclusive", "truncation minors share a common factor")
    num = sum(k * k for k in e) - sum(k * k for k in d)
    den = sum(e) - sum(d)
    ratio = Fraction(num, den)
    if ratio.denominator != 1:
        return StabilityVerdict("stable", "slope ratio is not an integer")
    rho = int(ratio)
    if n == 2:
        # every gate of the pair criterion holds here: f12 is a nonzero minor
        # of degree e1 - d2 > 0, the gap ordering is the first gate above and
        # the second column is coprime, so its verdict is a definite one
        return two_by_two_criterion(P)
    # a subsheaf 0 -> O(d1) -> O(rho - d1) -> S -> 0 needs a nonzero map
    # O(rho - d1) -> target; impossible when every twist gap is negative
    if all(ei < rho - d[0] for ei in e):
        return StabilityVerdict("stable", "no room for a slope-matching subsheaf")
    return StabilityVerdict(
        "inconclusive",
        "integral slope ratio with possible subsheaf embeddings is undecided beyond pairs")


def pencil_block_failure(block) -> str | None:
    """The pencil test on a 2x3 block [[q1, l11, l12], [q2, l21, l22]] of
    one quadric and two linear forms per row: None if the linear 2x2 block
    has a nonzero determinant and the two mixed minors are nonzero and
    independent modulo determinant * (linear forms), else the failed part."""
    minors = form_minors(block)
    det, m1, m2 = minors[1, 2], minors[0, 1], minors[0, 2]
    if det.is_zero():
        return "linear block determinant vanishes"
    if m1.is_zero() or m2.is_zero():
        return "a mixed minor vanishes"
    x, y, z = Form.monomial(1, 0, 0), Form.monomial(0, 1, 0), Form.monomial(0, 0, 1)
    # multiplication by det != 0 is injective on linear forms, so det*X,
    # det*Y and det*Z are independent
    if linearly_independent([det * x, det * y, det * z, m1, m2]):
        return None
    return "mixed minors dependent modulo the pencil determinant"


def pencil_block_criterion(P: Presentation) -> StabilityVerdict:
    """Shape O(-3)+2O(-2) -> 2O(-1)+O(1): stable when the top 2x3 block
    passes pencil_block_failure, inconclusive with the failed part otherwise.
    P must be injective; that is not checked here."""
    d, e = _sorted_square(P)
    if d != (-3, -2, -2) or e != (-1, -1, 1):
        raise PresentationError("pencil block criterion needs shape (-3,-2,-2) -> (-1,-1,1)")
    failure = pencil_block_failure(P.matrix[:2])
    if failure is None:
        return StabilityVerdict("stable", "mixed minors independent modulo the pencil determinant")
    return StabilityVerdict("inconclusive", failure)


# The criteria by their command-line names.
CRITERIA = {
    "minor-gcd": minor_gcd_criterion,
    "two-by-two": two_by_two_criterion,
    "pencil-block": pencil_block_criterion,
}


# ---------------------------------------------------------------------------
# cohomology bounds
# ---------------------------------------------------------------------------

@dataclass
class BoundsQuery:
    r: int
    chi: int
    h0_Fm1: int | None = None
    h1_F: int | None = None
    h1_F1: int | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("multiplicity must be positive")
        for name in ("h0_Fm1", "h1_F", "h1_F1"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError("%s is negative; a cohomology count is at least 0" % name)


@dataclass
class BoundsResult:
    allowed: bool
    rule: str | None = None

    def to_json(self):
        return {"allowed": self.allowed, "rule": self.rule}


_FORBIDDEN_CASES = (
    # (rule, chi, predicate over (h0m1, h1, h11))
    ("forbidden_chi1_a", 1, lambda a, b, c: a is not None and a <= 1
        and b is not None and b >= 3 and c == 0),
    ("forbidden_chi1_b", 1, lambda a, b, c: a == 1 and b == 1),
    ("forbidden_chi1_c", 1, lambda a, b, c: a == 2 and c == 0),
    ("forbidden_chi2_a", 2, lambda a, b, c: a is not None and a <= 1
        and b is not None and b >= 3 and c == 0),
    ("forbidden_chi2_b", 2, lambda a, b, c: a == 0 and b == 2 and c == 0),
    ("forbidden_chi3_a", 3, lambda a, b, c: a is not None and a <= 1
        and b is not None and b >= 2 and c == 0),
    ("forbidden_chi0_a", 0, lambda a, b, c: a == 0 and b is not None and b >= 3 and c == 0),
)


def bounds_check(q: BoundsQuery) -> BoundsResult:
    """Excluded cohomology vectors for multiplicity 6, plus the growth bounds.

    The seven named forbidden cases apply to multiplicity 6 only; the growth
    bound h1(F(1)) > 2 h1(F) - h1(F(-1)) applies whenever 0 <= chi < r and
    h1(F) > 0; the section bound h0(F) > 2 h0(F(-1)) is applied at chi = 1
    where h0(F(-2)) vanishes for semistable sheaves."""
    a, b, c = q.h0_Fm1, q.h1_F, q.h1_F1
    if q.r == 6:
        for rule, chi, pred in _FORBIDDEN_CASES:
            if q.chi == chi and pred(a, b, c):
                return BoundsResult(False, rule)
    if 0 <= q.chi < q.r and b is not None and b > 0 and c is not None and a is not None:
        # h1(F(-1)) = h0(F(-1)) - chi(F(-1)) for one-dimensional sheaves
        if not c > 2 * b - (a - (q.chi - q.r)):
            return BoundsResult(False, "h1_growth_bound")
    if q.chi == 1 and a is not None and a > 0 and b is not None:
        h0_F = b + q.chi
        if not h0_F > 2 * a:
            return BoundsResult(False, "h0_section_bound")
    return BoundsResult(True, None)
