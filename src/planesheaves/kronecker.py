"""Semistability of matrices of linear forms (Kronecker modules).

A module is a q x p matrix of linear forms in X, Y, Z up to the left-right
action of invertible matrices.  Semistability is the zero-submatrix
condition: for every q' x p' zero submatrix of any representative,
p'/p + q'/q <= 1.  Violations are certified exactly by a pair of subspaces
(S, T) with K(S) contained in T ⊗ V*.

Destabilizer search is one-sided: certificates are exact over the
rationals; when the exact detectors and the sampling budget find nothing,
the verdict is ProbablySemistable.  The strata classifier never depends on
this verdict, it only gates instance generation.

Extension point: for q = p + 1 the unstable orbits have a block-triangular
normal form, which suggests an exact decision procedure; only the closed
forms below (p <= 1, q <= 1, and the pencil shapes) are implemented.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd

from .forms import Form, linearly_independent, monomial_index, parse_form, uni_gcd
from .linalg import (LinalgError, QMatrix, from_columns, hstack_all, mod_rank,
                     mod_residues)
from .presentation import Presentation, derive_seed, random_invertible


class KroneckerError(ValueError):
    pass


class KroneckerModule:
    """q x p matrix of degree-1 forms; p source copies, q target copies."""

    __slots__ = ("p", "q", "entries", "_slices")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise KroneckerError("empty module")
        q = len(entries)
        p = len(entries[0])
        for row in entries:
            if len(row) != p:
                raise KroneckerError("ragged matrix")
            for f in row:
                if not isinstance(f, Form):
                    raise KroneckerError("entries must be forms")
                if not f.is_zero() and f.degree != 1:
                    raise KroneckerError("entries must be linear forms")
        self.p = p
        self.q = q
        self.entries = entries
        self._slices = None

    @classmethod
    def from_text(cls, rows) -> "KroneckerModule":
        return cls([[e if isinstance(e, Form) else parse_form(str(e)) for e in row]
                    for row in rows])

    def coefficient_slices(self):
        """The three scalar matrices K_X, K_Y, K_Z, built once per module.

        Callers share the returned matrices and must not mutate them."""
        if self._slices is None:
            index = monomial_index(1)
            slices = []
            for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                k = index[mono]
                data = [[Fraction(0) if f.is_zero() else f.coeffs[k] for f in row]
                        for row in self.entries]
                slices.append(QMatrix(self.q, self.p, data))
            self._slices = tuple(slices)
        return self._slices

    def transpose(self) -> "KroneckerModule":
        return KroneckerModule(tuple(tuple(self.entries[i][j] for i in range(self.q))
                                     for j in range(self.p)))

    def to_presentation(self) -> Presentation:
        return Presentation((-1,) * self.p, (0,) * self.q, self.entries)

    @classmethod
    def from_presentation(cls, P: Presentation) -> "KroneckerModule":
        gaps = {e - d for e in P.target for d in P.source}
        if gaps != {1}:
            raise KroneckerError("presentation does not have a unit twist gap")
        return cls(P.matrix)


@dataclass
class Destabilizer:
    p_prime: int
    q_prime: int
    source_basis: QMatrix   # p x p', columns span S
    target_basis: QMatrix   # q x (q - q'), columns span T

    def to_json(self):
        return {
            "p_prime": self.p_prime,
            "q_prime": self.q_prime,
            "source_basis": [[str(x) for x in row] for row in self.source_basis.data],
            "target_basis": [[str(x) for x in row] for row in self.target_basis.data],
        }


@dataclass
class KroneckerVerdict:
    kind: str                      # "semistable" | "unstable" | "probably_semistable"
    witness: Destabilizer | None = None

    def is_definite(self) -> bool:
        return self.kind != "probably_semistable"


def verify_destabilizer(K: KroneckerModule, D: Destabilizer) -> bool:
    """Exact check: the slope inequality is violated and K(S) lies in T ⊗ V*."""
    p, q = K.p, K.q
    if D.source_basis.rows != p or D.source_basis.cols != D.p_prime:
        return False
    if D.target_basis.rows != q or D.target_basis.cols != q - D.q_prime:
        return False
    if D.p_prime < 1 or D.p_prime > p or D.q_prime < 1 or D.q_prime > q:
        return False
    if Fraction(D.p_prime, p) + Fraction(D.q_prime, q) <= 1:
        return False
    if D.source_basis.rank() != D.p_prime:
        return False
    t_rank = D.target_basis.rank()
    if t_rank != q - D.q_prime:
        return False
    for slice_ in K.coefficient_slices():
        image = slice_ @ D.source_basis
        if D.target_basis.cols == 0:
            if any(any(x for x in row) for row in image.data):
                return False
        else:
            if D.target_basis.hstack(image).rank() != t_rank:
                return False
    return True


def minors_semistable(K: KroneckerModule) -> bool:
    """Closed form for shapes (p, q) = (2, 3) and (3, 2): semistable iff the
    three maximal minors are linearly independent forms."""
    if (K.p, K.q) == (3, 2):
        return minors_semistable(K.transpose())
    if (K.p, K.q) != (2, 3):
        raise KroneckerError("minors criterion needs shape (2, 3) or (3, 2)")
    minors = []
    for skip in range(3):
        rows = [i for i in range(3) if i != skip]
        a, b = K.entries[rows[0]]
        c, d = K.entries[rows[1]]
        minors.append(a * d - b * c)
    return linearly_independent(minors)


def dim_kronecker_moduli(n: int, p: int, q: int) -> int:
    """Dimension n*p*q - p^2 - q^2 + 1 of the moduli of semistable modules."""
    return n * p * q - p * p - q * q + 1


# ---------------------------------------------------------------------------
# destabilizer search
# ---------------------------------------------------------------------------

def _violating_pairs(p: int, q: int):
    pairs = [(pp, qq) for pp in range(1, p + 1) for qq in range(1, q + 1)
             if Fraction(pp, p) + Fraction(qq, q) > 1]
    pairs.sort(key=lambda pq: Fraction(pq[0], p) + Fraction(pq[1], q), reverse=True)
    return pairs


def _span_matrix(columns, nrows) -> QMatrix:
    if not columns:
        return QMatrix(nrows, 0)
    return from_columns(columns, nrows)


def _column_space_basis(mat: QMatrix) -> QMatrix:
    rref, pivots = mat.transpose().rref()
    cols = [rref.data[r] for r in range(len(pivots))]
    return _span_matrix(cols, mat.rows)


def _image_of(K: KroneckerModule, S: QMatrix) -> QMatrix:
    stacked = hstack_all([slice_ @ S for slice_ in K.coefficient_slices()])
    return _column_space_basis(stacked)


def _witness_from_subspace(K: KroneckerModule, S: QMatrix) -> Destabilizer | None:
    """Best destabilizer with the given source subspace, if any."""
    p_prime = S.rank()
    if p_prime == 0:
        return None
    image = _image_of(K, S)
    q_prime = K.q - image.cols
    if q_prime < 1:
        return None
    if Fraction(p_prime, K.p) + Fraction(q_prime, K.q) <= 1:
        return None
    D = Destabilizer(p_prime, q_prime, _column_space_basis(S), image)
    return D if verify_destabilizer(K, D) else None


def _coordinate_search(K: KroneckerModule):
    slices = [sl.data for sl in K.coefficient_slices()]
    for p_prime, q_prime in _violating_pairs(K.p, K.q):
        for cols in combinations(range(K.p), p_prime):
            # the image of the coordinate subspace is spanned by the chosen
            # columns of the three slices
            image = QMatrix(K.q, 3 * p_prime,
                            [[sl[i][c] for sl in slices for c in cols] for i in range(K.q)])
            if K.q - image.rank() >= q_prime:
                S = QMatrix(K.p, p_prime)
                for a, c in enumerate(cols):
                    S.data[c][a] = Fraction(1)
                D = _witness_from_subspace(K, S)
                if D is not None:
                    return D
    return None


def _kernel_seeds(K: KroneckerModule):
    """Candidate source subspaces from kernel intersections of the slices."""
    slices = K.coefficient_slices()
    stacked = slices[0].vstack(slices[1]).vstack(slices[2])
    seeds = []
    common = stacked.kernel_basis()
    if common:
        seeds.append(_span_matrix(common, K.p))
    for a in range(3):
        ker = slices[a].kernel_basis()
        if ker:
            seeds.append(_span_matrix(ker, K.p))
    for a in range(3):
        for b in range(a + 1, 3):
            ker = slices[a].vstack(slices[b]).kernel_basis()
            if ker:
                seeds.append(_span_matrix(ker, K.p))
    return seeds


def _rational_roots(coeffs):
    """Rational roots of an integer-coefficient polynomial (ascending coeffs)."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    roots = []
    if not coeffs:
        return roots
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        coeffs = coeffs[k:]
    if len(coeffs) == 1:
        return roots
    a0, an = abs(coeffs[0]), abs(coeffs[-1])

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return out

    seen = set()
    for num in divisors(a0):
        for den in divisors(an):
            for sgn in (1, -1):
                cand = Fraction(sgn * num, den)
                if cand in seen:
                    continue
                seen.add(cand)
                if sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
                    roots.append(cand)
    return roots


def _pencil_line_search(K: KroneckerModule):
    """For p = 2: rational source lines s where the image span drops rank.

    The columns K_X s, K_Y s, K_Z s form a q x 3 matrix whose 2x2 minors are
    binary quadrics in s; common rational roots give candidate subspaces."""
    if K.p != 2:
        return []
    slices = K.coefficient_slices()

    def image_cols(s):
        return [sl.mat_vec(s) for sl in slices]

    minor_polys = []
    # each 2x2 minor of the q x 3 image matrix, as a quadratic in s = (1, t)
    base = [image_cols([Fraction(1), Fraction(0)]),
            image_cols([Fraction(0), Fraction(1)])]
    for rows in combinations(range(K.q), 2):
        for cols in combinations(range(3), 2):
            # det of [[m(t)]] with m(t) = base0 + t*base1 entrywise
            a0 = base[0][cols[0]][rows[0]]
            a1 = base[1][cols[0]][rows[0]]
            b0 = base[0][cols[1]][rows[0]]
            b1 = base[1][cols[1]][rows[0]]
            c0 = base[0][cols[0]][rows[1]]
            c1 = base[1][cols[0]][rows[1]]
            d0 = base[0][cols[1]][rows[1]]
            d1 = base[1][cols[1]][rows[1]]
            # (a0 + a1 t)(d0 + d1 t) - (b0 + b1 t)(c0 + c1 t)
            poly = [a0 * d0 - b0 * c0,
                    a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0,
                    a1 * d1 - b1 * c1]
            if any(poly):
                minor_polys.append(poly)
    if not minor_polys:
        # image rank <= 1 identically
        return [QMatrix(2, 1, [[1], [0]]), QMatrix(2, 1, [[0], [1]])]
    # clear denominators and take the gcd of all minors as binary quadrics
    int_polys = []
    for poly in minor_polys:
        den = 1
        for c in poly:
            den = den * c.denominator // int_gcd(den, c.denominator)
        int_polys.append([int(c * den) for c in poly])
    g = []
    for poly in int_polys:
        g = uni_gcd(g, poly)
    candidates = []
    if len(g) > 1:
        for t in _rational_roots(g):
            candidates.append(QMatrix(2, 1, [[Fraction(1)], [t]]))
    # the point at infinity s = (0, 1): all minors of base[1] columns must vanish
    inf_ok = all(p[2] == 0 for p in int_polys)
    if inf_ok:
        candidates.append(QMatrix(2, 1, [[Fraction(0)], [Fraction(1)]]))
    return candidates


def _exact_small_cases(K: KroneckerModule) -> KroneckerVerdict | None:
    p, q = K.p, K.q
    if p == 1:
        entries = [row[0] for row in K.entries]
        span = QMatrix.from_rows([
            list(f.coeffs) if not f.is_zero() else [Fraction(0)] * 3 for f in entries])
        if span.rank() == q and q <= 3:
            return KroneckerVerdict("semistable")
        S = QMatrix.identity(1)
        D = _witness_from_subspace(K, S)
        if D is None:
            raise KroneckerError("internal: dependent column without witness")
        return KroneckerVerdict("unstable", D)
    if q == 1:
        entries = [K.entries[0][j] for j in range(p)]
        coeff = QMatrix.from_rows([
            list(f.coeffs) if not f.is_zero() else [Fraction(0)] * 3 for f in entries])
        if coeff.rank() == p and p <= 3:
            return KroneckerVerdict("semistable")
        kern = coeff.transpose().kernel_basis()
        S = _span_matrix(kern, p)
        D = _witness_from_subspace(K, S)
        if D is None:
            raise KroneckerError("internal: dependent row entries without witness")
        return KroneckerVerdict("unstable", D)
    if (p, q) in ((2, 3), (3, 2)):
        if minors_semistable(K):
            return KroneckerVerdict("semistable")
        D = _full_search(K, budget=64, seed=derive_seed("minors-fallback"))
        if D is None:
            raise KroneckerError("internal: dependent minors without witness")
        return KroneckerVerdict("unstable", D)
    return None


def _full_search(K: KroneckerModule, budget: int, seed: int) -> Destabilizer | None:
    for S in _kernel_seeds(K):
        D = _witness_from_subspace(K, S)
        if D is not None:
            return D
    D = _coordinate_search(K)
    if D is not None:
        return D
    for S in _pencil_line_search(K):
        D = _witness_from_subspace(K, S)
        if D is not None:
            return D
    # prime-field sampling: draw source vectors over a 30-bit prime field; a
    # modular image drop is lifted to an exact rational certificate check
    rng = random.Random(seed)
    prime = (1 << 30) + 85   # 1073741909
    try:
        mod_slices = [mod_residues(sl.data, prime) for sl in K.coefficient_slices()]
    except LinalgError:
        return None          # the module has no reduction modulo this prime
    for _ in range(budget):
        vec = [rng.randrange(-9, 10) for _ in range(K.p)]
        if not any(vec):
            continue
        image = [[sum(row[j] * vec[j] for j in range(K.p)) % prime for row in ms]
                 for ms in mod_slices]
        rank = mod_rank(zip(*image), prime)
        if rank < min(3, K.q):
            S = QMatrix(K.p, 1, [[Fraction(v)] for v in vec])
            D = _witness_from_subspace(K, S)
            if D is not None:
                return D
    return None


def is_semistable(K: KroneckerModule, budget: int = 200, seed: int = 0) -> KroneckerVerdict:
    """Exact verdicts for p <= 1, q <= 1, (2,3) and (3,2); otherwise a search
    whose Unstable answers are exact and whose exhaustion is Probably."""
    verdict = _exact_small_cases(K)
    if verdict is not None:
        return verdict
    D = _full_search(K, budget=budget, seed=derive_seed("kron-search", seed))
    if D is not None:
        return KroneckerVerdict("unstable", D)
    return KroneckerVerdict("probably_semistable")


def conjugate(K: KroneckerModule, rng) -> KroneckerModule:
    """Random exact conjugation by invertible rational matrices on both sides."""
    g = random_invertible(K.q, rng)
    h = random_invertible(K.p, rng)
    out = []
    for i in range(K.q):
        row = []
        for j in range(K.p):
            acc = Form.zero(1)
            for a in range(K.q):
                if g.data[i][a]:
                    for b in range(K.p):
                        if h.data[b][j] and not K.entries[a][b].is_zero():
                            acc = acc + K.entries[a][b].scale(g.data[i][a] * h.data[b][j])
            row.append(acc)
        out.append(row)
    return KroneckerModule(out)
