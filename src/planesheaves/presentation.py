"""Presentations of one-dimensional plane sheaves.

A presentation is an injective map between direct sums of line bundles,
written as a matrix of homogeneous forms: entry (i, j) maps the j-th source
summand O(d_j) to the i-th target summand O(e_i) and therefore has degree
e_i - d_j.  The cokernel is a sheaf supported on a curve; its Hilbert data,
twisted section counts, and the four-term cohomology profile used by the
strata classifier are all computed exactly from the twist lists and, where
the matrix matters, from exact linear algebra on multiplication maps.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .forms import (Form, ParseError, format_form, mult_map, parse_form,
                    space_dim)
from .linalg import QMatrix


# Largest |twist| Presentation.from_text accepts.  Twists set the degrees of
# the graded pieces whose dense matrices the cohomology computations build;
# every registry, test and benchmark twist has |twist| <= 10.
MAX_TWIST = 40


class PresentationError(ValueError):
    pass


class InconsistentPresentationError(PresentationError):
    """Raised when cohomology arithmetic certifies the map was not injective."""


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary printable parts."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def euler_char_line_bundle(k: int) -> int:
    """chi(O(k)) on the plane, for any integer k."""
    return (k + 1) * (k + 2) // 2


@dataclass(frozen=True)
class HilbertData:
    r: int
    chi: int

    def value(self, m: int) -> int:
        return self.r * m + self.chi

    def as_text(self) -> str:
        return "%d*m %s %d" % (self.r, "+" if self.chi >= 0 else "-", abs(self.chi))


@dataclass(frozen=True)
class CohomologyProfile:
    """(h0(F(-1)), h1(F), h0(F ⊗ Ω¹(1)), h1(F(1)))."""

    h0_Fm1: int
    h1_F: int
    h0_omega: int
    h1_F1: int

    def as_tuple(self):
        return (self.h0_Fm1, self.h1_F, self.h0_omega, self.h1_F1)


class Presentation:
    """Immutable validated presentation: sorted twist lists plus form matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, _checked=False):
        source = tuple(int(d) for d in source)
        target = tuple(int(e) for e in target)
        matrix = tuple(tuple(row) for row in matrix)
        if not _checked:
            source, target, matrix = _validate(source, target, matrix)
        self.source = source
        self.target = target
        self.matrix = matrix

    # -- construction -----------------------------------------------------

    @classmethod
    def from_text(cls, source, target, rows) -> "Presentation":
        """Rows of polynomial text (or Form objects), target-major."""
        try:
            twists = [int(d) for d in (*source, *target)]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError("twists must be integers: %s" % exc) from exc
        if any(abs(d) > MAX_TWIST for d in twists):
            raise ParseError("twist beyond the cap: |twist| must be at most %d" % MAX_TWIST)
        if not isinstance(rows, (list, tuple)) \
                or not all(isinstance(row, (list, tuple)) for row in rows):
            raise ParseError("the matrix must be a list of rows, each a list of entries")
        matrix = []
        for row in rows:
            out = []
            for entry in row:
                out.append(entry if isinstance(entry, Form) else parse_form(str(entry)))
            matrix.append(out)
        return cls(source, target, matrix)

    @classmethod
    def from_json(cls, obj) -> "Presentation":
        if isinstance(obj, str):
            obj = json.loads(obj)
        try:
            source = obj["source"]
            target = obj["target"]
            rows = obj["matrix"]
        except (KeyError, TypeError) as exc:
            raise ParseError("presentation JSON needs source/target/matrix") from exc
        return cls.from_text(source, target, rows)

    def to_json(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "matrix": [[format_form(f) for f in row] for row in self.matrix],
        }

    def __eq__(self, other):
        return (isinstance(other, Presentation) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __repr__(self):
        return "Presentation(%r, %r)" % (self.source, self.target)

    def entry(self, i: int, j: int) -> Form:
        return self.matrix[i][j]


def _validate(source, target, matrix):
    if len(matrix) != len(target):
        raise PresentationError("matrix must have one row per target summand")
    if any(len(row) != len(source) for row in matrix):
        raise PresentationError("matrix must have one column per source summand")
    src_order = sorted(range(len(source)), key=lambda j: source[j])
    tgt_order = sorted(range(len(target)), key=lambda i: target[i])
    source = tuple(source[j] for j in src_order)
    target = tuple(target[i] for i in tgt_order)
    matrix = tuple(tuple(matrix[i][j] for j in src_order) for i in tgt_order)
    for i, e in enumerate(target):
        for j, d in enumerate(source):
            f = matrix[i][j]
            if not isinstance(f, Form):
                raise PresentationError("entry (%d, %d) is not a form" % (i, j))
            need = e - d
            if f.is_zero():
                continue
            if need < 0:
                raise PresentationError(
                    "entry (%d, %d) must be zero: required degree %d is negative" % (i, j, need))
            if f.degree != need:
                raise PresentationError(
                    "entry (%d, %d) has degree %d, required %d" % (i, j, f.degree, need))
    return source, target, matrix


# ---------------------------------------------------------------------------
# Hilbert data and twisted cohomology
# ---------------------------------------------------------------------------

def hilbert(P: Presentation) -> HilbertData:
    if len(P.source) != len(P.target):
        raise PresentationError(
            "not one-dimensional: %d source vs %d target summands leave a quadratic term"
            % (len(P.source), len(P.target)))
    r = sum(P.target) - sum(P.source)
    if r < 1:
        raise PresentationError("multiplicity %d is not positive" % r)
    chi = sum((k * k + 3 * k) // 2 + 1 for k in P.target) \
        - sum((k * k + 3 * k) // 2 + 1 for k in P.source)
    return HilbertData(r, chi)


def h0_twist(P: Presentation, t: int) -> int:
    """h^0(F(t)); pure twist arithmetic, valid for injective presentations."""
    return sum(space_dim(e + t) for e in P.target) - sum(space_dim(d + t) for d in P.source)


def h1_twist(P: Presentation, t: int) -> int:
    hd = hilbert(P)
    h1 = h0_twist(P, t) - hd.value(t)
    if h1 < 0:
        raise InconsistentPresentationError(
            "h1(F(%d)) = %d < 0; the presentation map cannot be injective" % (t, h1))
    return h1


def is_injective(P: Presentation, seed: int = 0, trials: int = 8) -> bool:
    """Generic-rank certificate: full column rank at one random point proves
    injectivity of the sheaf map; repeated failure reports likely degeneracy."""
    p = len(P.source)
    q = len(P.target)
    if p > q:
        raise PresentationError("injectivity test needs at most as many source summands")
    rng = random.Random(derive_seed("inject", seed, P.source, P.target))
    for _ in range(trials):
        point = tuple(Fraction(rng.randint(-100, 100)) for _ in range(3))
        if point == (0, 0, 0):
            continue
        values = QMatrix(q, p, [[P.matrix[i][j].evaluate(point) for j in range(p)]
                                for i in range(q)])
        if values.rank() == p:
            return True
    return False


# ---------------------------------------------------------------------------
# graded pieces and the contraction invariant
# ---------------------------------------------------------------------------

@dataclass
class GradedPiece:
    """Model of H^0(F(t)) as ambient global sections of the target modulo the
    column space of the global-sections matrix of the presentation."""

    t: int
    ambient_blocks: tuple
    ambient_dim: int
    image: QMatrix
    image_rank: int
    dim: int


def _sections_matrix(P: Presentation, t: int) -> QMatrix:
    rows = sum(space_dim(e + t) for e in P.target)
    cols = sum(space_dim(d + t) for d in P.source)
    out = QMatrix(rows, cols)
    r0 = 0
    for i, e in enumerate(P.target):
        c0 = 0
        re = space_dim(e + t)
        for j, d in enumerate(P.source):
            cd = space_dim(d + t)
            f = P.matrix[i][j]
            if cd and re and not f.is_zero():
                block = mult_map(f, d + t)
                for a in range(block.rows):
                    row = out.data[r0 + a]
                    brow = block.data[a]
                    for b in range(block.cols):
                        row[c0 + b] = brow[b]
            c0 += cd
        r0 += re
    return out


def graded_piece(P: Presentation, t: int) -> GradedPiece:
    image = _sections_matrix(P, t)
    blocks = tuple((e, space_dim(e + t)) for e in P.target)
    ambient = sum(dim for _, dim in blocks)
    rank = image.rank()
    dim = ambient - rank
    expected = h0_twist(P, t)
    if dim != expected:
        raise InconsistentPresentationError(
            "graded piece at t=%d has dimension %d, twist arithmetic expects %d"
            % (t, dim, expected))
    return GradedPiece(t, blocks, ambient, image, rank, dim)


def _contraction_matrix(P: Presentation) -> QMatrix:
    """Matrix of V ⊗ H^0-ambient(F) -> H^0-ambient(F(1)), (a,b,c)⊗s -> aXs+bYs+cZs."""
    amb0_blocks = [space_dim(e) for e in P.target]
    amb1_blocks = [space_dim(e + 1) for e in P.target]
    amb0 = sum(amb0_blocks)
    amb1 = sum(amb1_blocks)
    out = QMatrix(amb1, 3 * amb0)
    variables = (Form.monomial(1, 0, 0), Form.monomial(0, 1, 0), Form.monomial(0, 0, 1))
    for v, var in enumerate(variables):
        col0 = v * amb0
        c_off = 0
        r_off = 0
        for e, c_dim, r_dim in zip(P.target, amb0_blocks, amb1_blocks):
            if c_dim:
                block = mult_map(var, e)
                for a in range(block.rows):
                    row = out.data[r_off + a]
                    brow = block.data[a]
                    for b in range(block.cols):
                        row[col0 + c_off + b] = brow[b]
            c_off += c_dim
            r_off += r_dim
    return out


def h0_omega(P: Presentation) -> int:
    """h^0(F ⊗ Ω¹(1)) via the Euler sequence: kernel of the contraction
    V ⊗ H^0(F) -> H^0(F(1)) computed on the graded-piece models."""
    g0 = graded_piece(P, 0)
    g1 = graded_piece(P, 1)
    if g0.ambient_dim == 0:
        return 0
    M = _contraction_matrix(P)
    rank_b1 = g1.image_rank
    rank_joint = M.hstack(g1.image).rank()
    value = 3 * g0.ambient_dim - (rank_joint - rank_b1) - 3 * g0.image_rank
    if value < 0:
        raise InconsistentPresentationError("negative contraction kernel dimension")
    return value


def h1_omega(P: Presentation) -> int:
    """h^1(F ⊗ Ω¹(1)) from the six-term sequence of the Euler tensor sequence."""
    value = (h0_omega(P) - 3 * h0_twist(P, 0) + h0_twist(P, 1)
             + 3 * h1_twist(P, 0) - h1_twist(P, 1))
    if value < 0:
        raise InconsistentPresentationError("negative h1 of the cotangent twist")
    return value


def profile(P: Presentation) -> CohomologyProfile:
    return CohomologyProfile(
        h0_Fm1=h0_twist(P, -1),
        h1_F=h1_twist(P, 0),
        h0_omega=h0_omega(P),
        h1_F1=h1_twist(P, 1),
    )


# ---------------------------------------------------------------------------
# duality and twisting
# ---------------------------------------------------------------------------

def dual(P: Presentation) -> Presentation:
    """Transpose with twists reflected through -3; swaps chi and -chi."""
    new_source_raw = [-3 - e for e in P.target]
    new_target_raw = [-3 - d for d in P.source]
    src_order = sorted(range(len(new_source_raw)), key=lambda i: new_source_raw[i])
    tgt_order = sorted(range(len(new_target_raw)), key=lambda j: new_target_raw[j])
    source = tuple(new_source_raw[i] for i in src_order)
    target = tuple(new_target_raw[j] for j in tgt_order)
    matrix = tuple(tuple(P.matrix[src_order[jj]][tgt_order[ii]]
                         for jj in range(len(source)))
                   for ii in range(len(target)))
    return Presentation(source, target, matrix, _checked=False)


def twist(P: Presentation, k: int) -> Presentation:
    return Presentation(tuple(d + k for d in P.source),
                        tuple(e + k for e in P.target), P.matrix, _checked=True)


# ---------------------------------------------------------------------------
# the symmetry group action (used by tests and the stabilizer audit)
# ---------------------------------------------------------------------------

def random_invertible(n: int, rng) -> QMatrix:
    """Random invertible n x n matrix with integer entries in [-4, 4]."""
    while True:
        m = QMatrix(n, n, [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def _random_form(degree: int, rng, lo=-4, hi=4) -> Form:
    return Form(degree, [Fraction(rng.randint(lo, hi)) for _ in range(space_dim(degree))])


def _random_auto(twists, rng):
    """Random invertible degree-compatible endomorphism of a twist list, as a
    form matrix g with g[a][b]: O(t_b) -> O(t_a) of degree t_a - t_b."""
    n = len(twists)
    g = [[Form.zero(0) for _ in range(n)] for _ in range(n)]
    groups = {}
    for idx, t in enumerate(twists):
        groups.setdefault(t, []).append(idx)
    for t, idxs in groups.items():
        block = random_invertible(len(idxs), rng)
        for a, ia in enumerate(idxs):
            for b, ib in enumerate(idxs):
                g[ia][ib] = Form.constant(block.data[a][b])
    for a, ta in enumerate(twists):
        for b, tb in enumerate(twists):
            if ta > tb:
                g[a][b] = _random_form(ta - tb, rng)
    return g


def _compose(forms_a, forms_b):
    """Product of two form matrices."""
    rows = len(forms_a)
    inner = len(forms_b)
    cols = len(forms_b[0]) if inner else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                term = forms_a[i][k] * forms_b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def random_equivalence(P: Presentation, rng) -> Presentation:
    """Left/right multiply by random invertible degree-compatible transformations."""
    gB = _random_auto(P.target, rng)
    gA = _random_auto(P.source, rng)
    matrix = _compose(_compose(gB, [list(r) for r in P.matrix]), gA)
    fixed = []
    for i, e in enumerate(P.target):
        row = []
        for j, d in enumerate(P.source):
            f = matrix[i][j]
            row.append(Form.zero(0) if f.is_zero() else f)
        fixed.append(row)
    return Presentation(P.source, P.target, fixed)
