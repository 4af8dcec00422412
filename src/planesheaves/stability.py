"""Stability verdicts for square presentations, and cohomology bounds.

The criteria implemented here are hypothesis-gated: when a criterion's
preconditions fail the verdict is Inconclusive with the failed hypothesis
named, never a guess.  Stable/ProperlySemistable answers are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .forms import Form, form_gcd, divides, space_dim, uni_gcd
from .linalg import QMatrix
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
    kind: str                   # "stable" | "properly_semistable" | "semistable" | "inconclusive"
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
    return list(P.source), list(P.target)


def _restriction_minors(P: Presentation):
    """Maximal minors of the matrix with the lowest-twist source column removed.

    Minor i omits target row i; returns (minor forms, their required degrees)."""
    n = len(P.source)
    degs = []
    minors = []
    total_e = sum(P.target)
    tail_d = sum(P.source[1:])
    for i in range(n):
        rows = [r for r in range(n) if r != i]
        minors.append(_det_forms([[P.matrix[r][c] for c in range(1, n)] for r in rows]))
        degs.append(total_e - P.target[i] - tail_d)
    return minors, degs


def _det_forms(block) -> Form:
    n = len(block)
    if n == 0:
        return Form.constant(1)
    if n == 1:
        return block[0][0]
    acc = None
    for j in range(n):
        sub = [[block[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = block[0][j] * _det_forms(sub)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _gcd_of_all(forms):
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return None
    g = forms[0]
    for f in forms[1:]:
        g = form_gcd(g, f)
        if g.degree == 0:
            return g
    return g.monic()


def _binary_gcd_has_root(quadrics):
    """Common projective root (over the closure) of binary quadrics a*u^2+b*uv+c*v^2."""
    polys = [q for q in quadrics if any(q)]
    if not polys:
        return True
    den = 1
    for q in polys:
        for c in q:
            den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [[int(c * den) for c in q] for q in polys]
    g = []
    for q in ints:
        g = uni_gcd(g, q)
        if g == [1] or g == [-1]:
            break
    if len(g) > 1:
        return True
    # common root at infinity: all leading coefficients vanish
    return all(q[2] == 0 for q in ints)


def _pair_special_form(P: Presentation) -> bool:
    """For a 2x2 presentation with e1-d1 = e2-d2: can the (1,1) entry be made
    zero by the allowed triangular transformations?  Decided exactly."""
    d1, d2 = P.source
    f11, f12 = P.matrix[0]
    f21, f22 = P.matrix[1]
    if d1 < d2:
        # a row scalar cannot mix rows downward; only the column operation
        # col1 += u * col2 (deg u = d2 - d1) and scalars act on the slot
        if f12.is_zero():
            return f11.is_zero()
        return divides(f12, f11)
    # d1 == d2 (hence e1 == e2): both sides act by full 2x2 scalars; the slot
    # can be cleared iff a*phi*c = 0 for some nonzero scalar vectors a, c,
    # i.e. the entrywise wedge quadric system has a root
    dim = space_dim(P.target[0] - d1)

    def wedge(f, g):
        fa = f.coeffs if not f.is_zero() else (Fraction(0),) * dim
        ga = g.coeffs if not g.is_zero() else (Fraction(0),) * dim
        return [fa[a] * ga[b] - fa[b] * ga[a]
                for a in range(dim) for b in range(a + 1, dim)]

    col1 = (f11, f21)
    col2 = (f12, f22)
    quadrics = []
    w_11 = wedge(col1[0], col1[1])
    w_cross = [x + y for x, y in zip(wedge(col1[0], col2[1]), wedge(col2[0], col1[1]))]
    w_22 = wedge(col2[0], col2[1])
    for a, b, c in zip(w_11, w_cross, w_22):
        quadrics.append([a, b, c])
    return _binary_gcd_has_root(quadrics)


def two_by_two_criterion(P: Presentation) -> StabilityVerdict:
    """Pairs O(d1)+O(d2) -> O(e1)+O(e2) with d2 < e1 and e1-d1 >= e2-d2 and the
    second-column entries coprime: stable, unless the twist gaps agree and the
    top-left slot can be cleared, which is the properly-semistable wall."""
    d, e = _sorted_square(P)
    if len(d) != 2:
        return StabilityVerdict("inconclusive", "needs exactly two summands on each side")
    d1, d2 = d
    e1, e2 = e
    if not d2 < e1:
        return StabilityVerdict("inconclusive", "twist ordering d2 < e1 fails")
    if not (e1 - d1 >= e2 - d2):
        return StabilityVerdict("inconclusive", "twist gap ordering e1-d1 >= e2-d2 fails")
    f12, f22 = P.matrix[0][1], P.matrix[1][1]
    if f12.is_zero() and f22.is_zero():
        return StabilityVerdict("inconclusive", "second column vanishes")
    g = _gcd_of_all([f12, f22])
    if g is not None and g.degree > 0:
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
    integral slope ratio admits a line-bundle-pair subsheaf."""
    d, e = _sorted_square(P)
    n = len(d)
    tail_e = sum(e[1:])
    tail_d = sum(d[1:])
    if not (e[0] - d[0] >= tail_e - tail_d):
        return StabilityVerdict("inconclusive", "twist gap inequality (first summand) fails")
    denom = tail_e - tail_d
    if denom > 0:
        bound = Fraction(sum(k * k for k in e[1:]) - sum(k * k for k in d[1:]), denom)
        if not Fraction(e[0] + d[0]) <= bound:
            return StabilityVerdict("inconclusive", "twist quadratic inequality fails")
    else:
        if not all(e[i] >= d[i] for i in range(1, n)):
            return StabilityVerdict("inconclusive", "componentwise twist inequality fails")
    minors, degs = _restriction_minors(P)
    if any(deg == 0 for deg in degs):
        return StabilityVerdict("inconclusive", "a truncation minor has degree zero")
    g = _gcd_of_all(minors)
    if g is None:
        return StabilityVerdict("inconclusive", "all truncation minors vanish")
    if g.degree > 0:
        return StabilityVerdict("inconclusive", "truncation minors share a common factor")
    num = sum(k * k for k in e) - sum(k * k for k in d)
    den = sum(e) - sum(d)
    ratio = Fraction(num, den)
    if ratio.denominator != 1:
        return StabilityVerdict("stable", "slope ratio is not an integer")
    rho = int(ratio)
    if n == 2:
        delegate = two_by_two_criterion(P)
        if delegate.kind in ("stable", "properly_semistable"):
            return delegate
        return StabilityVerdict("stable", "pair criterion found no special subsheaf")
    # a subsheaf 0 -> O(d1) -> O(rho - d1) -> S -> 0 needs a nonzero map
    # O(rho - d1) -> target; impossible when every twist gap is negative
    if all(ei < rho - d[0] for ei in e):
        return StabilityVerdict("stable", "no room for a slope-matching subsheaf")
    return StabilityVerdict(
        "inconclusive",
        "integral slope ratio with possible subsheaf embeddings is undecided beyond pairs")


def pencil_block_criterion(P: Presentation) -> StabilityVerdict:
    """Shape O(-3)+2O(-2) -> 2O(-1)+O(1): the linear 2x2 block must have a
    nonzero determinant and the two quadratic-column minors must stay
    independent modulo determinant * (linear forms)."""
    d, e = _sorted_square(P)
    if tuple(d) != (-3, -2, -2) or tuple(e) != (-1, -1, 1):
        raise PresentationError("pencil block criterion needs shape (-3,-2,-2) -> (-1,-1,1)")
    q1, l11, l12 = P.matrix[0]
    q2, l21, l22 = P.matrix[1]
    det = l11 * l22 - l12 * l21
    if det.is_zero():
        return StabilityVerdict("inconclusive", "linear block determinant vanishes")
    m1 = q1 * l21 - q2 * l11
    m2 = q1 * l22 - q2 * l12
    if m1.is_zero() or m2.is_zero():
        return StabilityVerdict("inconclusive", "a mixed minor vanishes")
    x, y, z = Form.monomial(1, 0, 0), Form.monomial(0, 1, 0), Form.monomial(0, 0, 1)
    rows = [list((det * v).coeffs) for v in (x, y, z)]
    base = QMatrix.from_rows(rows)
    base_rank = base.rank()
    full = QMatrix.from_rows(rows + [list(m1.coeffs), list(m2.coeffs)])
    if full.rank() == base_rank + 2:
        return StabilityVerdict("stable", "mixed minors independent modulo the pencil determinant")
    return StabilityVerdict("inconclusive", "mixed minors dependent modulo the pencil determinant")


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


@dataclass
class BoundsResult:
    allowed: bool
    rule: str | None = None

    def to_json(self):
        return {"allowed": self.allowed, "rule": self.rule}


def _h1_Fm1(q: BoundsQuery) -> int | None:
    # h1(F(-1)) = h0(F(-1)) - chi(F(-1)) for one-dimensional sheaves
    if q.h0_Fm1 is None:
        return None
    return q.h0_Fm1 - (q.chi - q.r)


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
        h1m1 = _h1_Fm1(q)
        if not c > 2 * b - h1m1:
            return BoundsResult(False, "h1_growth_bound")
    if q.chi == 1 and a is not None and a > 0 and b is not None:
        h0_F = b + q.chi
        if not h0_F > 2 * a:
            return BoundsResult(False, "h0_section_bound")
    return BoundsResult(True, None)
