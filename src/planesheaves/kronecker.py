"""Semistability of matrices of linear forms (Kronecker modules).

A module is a q x p matrix of linear forms in X, Y, Z up to the left-right
action of invertible matrices.  Semistability is the zero-submatrix
condition: for every q' x p' zero submatrix of any representative,
p'/p + q'/q <= 1.  Violations are certified exactly by a pair of subspaces
(S, T) with K(S) contained in T ⊗ V*.

Both verdicts are proofs, and every module, rows, columns and pencils
included, is decided on blow-ups: with g = gcd(p, q) and m = 1, 2, ...,
integer matrices T_X, T_Y, T_Z of size (m p/g) x (m q/g) give the square
matrix B = K_X ⊗ T_X + K_Y ⊗ T_Y + K_Z ⊗ T_Z.

* Semistable: B has nonzero determinant modulo the word-size prime
  `linalg.CERTIFICATE_PRIME` = 32749.  A destabilizer (S, T) would map
  S ⊗ Q^(mq/g) into the smaller space T ⊗ Q^(mp/g), so that determinant
  vanishes over Q for every unstable module; nonzero modulo the prime, it
  is nonzero over Q (King 1994: semistable iff some semi-invariant does
  not vanish; Derksen-Weyman 2000: the determinantal semi-invariants
  span).  The draw is the certificate.
* Unstable: the second Wong sequence of B in the blow-up space
  A ⊗ M, A = span(K_X, K_Y, K_Z), ends inside im B while B is singular
  (Ivanyos-Karpinski-Qiao-Santha 2015).  It is W_0 = 0,
  W_(i+1) = (A ⊗ M)(B^-1(W_i)), and each W_i is R_i ⊗ Q^(mp/g) with
  R_(i+1) = K(S_(i+1)), S_(i+1) the column span of the p x (mq/g) reshapes
  of B^-1(W_i).  If the limit W = R ⊗ Q^(mp/g) lies in im B, put
  U = B^-1(W) and S its reshape span: (A ⊗ M)(U) = W = K(S) ⊗ Q^(mp/g) and
  dim U - dim W = corank B > 0, while U lies in S ⊗ Q^(mq/g), so
  (mp/g) dim K(S) < (mq/g) dim S, that is p dim K(S) < q dim S, and S with
  T = K(S) is a destabilizer, checked again exactly.  The sequence runs on
  one fraction-free elimination of [B | I]: its right block E tests
  membership in im B and gives each preimage as an integer vector, each
  S_i and R_i is a primitive integer basis, and Fractions appear only in
  the witness, the canonical `QMatrix.rref` bases of S and K(S).

The lemma the loop relies on: if rank B equals the non-commutative rank of
the blow-up space, the limit lies in im B (IKQS 2015).  A blow-up with
m < pq/g always reaches that rank (Derksen-Makam 2017), and each variable
of det B has degree at most q < 19, so a draw with entries in [-9, 9]
reaches it with positive probability.  So the loop ends with probability
one: m grows to pq/g - 1 (to 1 for a 1 x 1 module) and then fresh draws
are made at that size.  The verdict never depends on the draw, only the
running time does.  A draw whose B is nonsingular over Q but singular
modulo the prime is a proof without a certificate, the one `semistable`
verdict that carries none.  Before the reduction modulo the prime each
source column is scaled by the lcm of its denominators
(`linalg.integer_rows` on the columns), a change of basis that keeps
semistability.  The scale is one per column, not one for the whole module:
a column whose denominator the prime divides then leaves the other columns
nonzero modulo the prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .forms import Form, form_minors, linearly_independent, parse_form, random_ints
from .linalg import (CERTIFICATE_PRIME, QMatrix, from_columns, integer_echelon, integer_rows,
                     mod_nonsingular, null_vectors)
from .presentation import Presentation, derive_seed


class KroneckerError(ValueError):
    pass


class KroneckerModule:
    """q x p matrix of degree-1 forms; p source copies, q target copies."""

    __slots__ = ("p", "q", "entries")

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

    @classmethod
    def from_text(cls, rows) -> "KroneckerModule":
        return cls([[e if isinstance(e, Form) else parse_form(str(e)) for e in row]
                    for row in rows])

    def coefficient_slices(self):
        """K_X, K_Y, K_Z: the coefficients 0, 1 and 2 of the entries as three
        scalar matrices, built on each call (a verdict reads them at most twice)."""
        return tuple(QMatrix(self.q, self.p, [[0 if f.is_zero() else f.coeffs[k] for f in row]
                                              for row in self.entries])
                     for k in range(3))

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


@dataclass(frozen=True)
class SemistabilityCertificate:
    """Integer matrices T_X, T_Y, T_Z of size (m p/g) x (m q/g), g = gcd(p, q),
    m >= 1, for which sum_k K_k ⊗ T_k has full rank modulo `prime`."""

    blocks: tuple
    prime: int = CERTIFICATE_PRIME

    def to_json(self):
        return {"prime": self.prime, "blocks": [[list(row) for row in T] for T in self.blocks]}


@dataclass
class KroneckerVerdict:
    kind: str                      # "semistable" | "unstable"
    witness: Destabilizer | None = None
    certificate: SemistabilityCertificate | None = None


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
    # with no target columns, the rank of the stack is the rank of the image
    return all(D.target_basis.hstack(slice_ @ D.source_basis).rank() == t_rank
               for slice_ in K.coefficient_slices())


def _integer_slices(K: KroneckerModule):
    """K_X, K_Y, K_Z as lists of integer rows, each source column j scaled by
    the lcm d_j of the denominators of its 3q entries (a change of source
    basis, which keeps semistability), and the scales d_j."""
    slices = [sl.data for sl in K.coefficient_slices()]
    q = K.q
    columns, scales = integer_rows([[sl[i][j] for sl in slices for i in range(q)]
                                    for j in range(K.p)])
    return [[[col[k * q + i] for col in columns] for i in range(q)] for k in range(3)], scales


def _blow_up(slices, blocks):
    """Rows of sum_k K_k ⊗ T_k: row (i, a), column (j, b) holds
    sum_k K_k[i][j] * T_k[a][b], for slices and blocks given as lists of rows."""
    kx, ky, kz = slices
    tx, ty, tz = blocks
    cols = range(len(tx[0]))
    return [[kx[i][j] * tx[a][b] + ky[i][j] * ty[a][b] + kz[i][j] * tz[a][b]
             for j in range(len(kx[0])) for b in cols]
            for i in range(len(kx)) for a in range(len(tx))]


def verify_certificate(K: KroneckerModule, cert: SemistabilityCertificate) -> bool:
    """Exact check: the blocks are integer matrices of one (m p/g) x (m q/g)
    shape, m >= 1, and the blown-up matrix sum_k K_k ⊗ T_k, rows (i, a) and
    columns (j, b), has full rank modulo CERTIFICATE_PRIME once each source
    column of K is scaled by the lcm of its denominators.  That matrix is
    square, so the first column without a pivot ends the check."""
    g = gcd(K.p, K.q)
    blocks = cert.blocks
    if cert.prime != CERTIFICATE_PRIME or len(blocks) != 3:
        return False
    rows = len(blocks[0])
    m, rest = divmod(rows, K.p // g)
    cols = m * K.q // g
    if m < 1 or rest:
        return False
    for T in blocks:
        if len(T) != rows or any(len(r) != cols for r in T) \
                or any(type(x) is not int for r in T for x in r):
            return False
    return mod_nonsingular(_blow_up(_integer_slices(K)[0], blocks), cert.prime)


def _draw(rng, rows: int, cols: int):
    return tuple(tuple(tuple(random_ints(rng, cols, 9)) for _ in range(rows)) for _ in range(3))


def minors_semistable(K: KroneckerModule) -> bool:
    """Closed form for shapes (p, q) = (2, 3) and (3, 2): semistable iff the
    three maximal minors are linearly independent forms.  `is_semistable`
    does not call it; it is an independent reference for that verdict."""
    if {K.p, K.q} != {2, 3}:
        raise KroneckerError("minors criterion needs shape (2, 3) or (3, 2)")
    block = K.entries if K.q == 2 else K.transpose().entries
    return linearly_independent(form_minors(block).values())


def dim_kronecker_moduli(n: int, p: int, q: int) -> int:
    """Dimension n*p*q - p^2 - q^2 + 1 of the moduli of semistable modules.
    No engine path needs it; `tests/test_kronecker.py` checks strata codims
    against the 37-dimensional moduli space with it."""
    return n * p * q - p * p - q * q + 1


# ---------------------------------------------------------------------------
# destabilizers
# ---------------------------------------------------------------------------

def _rref_columns(vectors, length: int) -> QMatrix:
    """The canonical basis of the span of the given vectors, the nonzero
    rows of its `QMatrix.rref`, as the columns of a matrix."""
    rref, pivots = QMatrix(len(vectors), length, vectors).rref()
    return from_columns(rref.data[:len(pivots)], length)


def _witness(K: KroneckerModule, basis, image, scales) -> Destabilizer | None:
    """The destabilizer (S, T) if `verify_destabilizer` accepts it, else
    None: S spans the integer p-vectors ``basis`` in the source coordinates
    scaled by ``scales`` (`_integer_slices`), T = K(S) spans ``image``, and
    both are canonical RREF bases."""
    S = _rref_columns([[a * d for a, d in zip(s, scales)] for s in basis], K.p)
    T = _rref_columns(image, K.q)
    D = Destabilizer(S.cols, K.q - T.cols, S, T)
    return D if verify_destabilizer(K, D) else None


def _primitive_basis(vectors, length: int):
    """An echelon basis of the span of the given integer vectors, each
    divided by the gcd of its entries."""
    rows = [v for v in vectors if any(v)]
    pivots, _ = integer_echelon(rows, length)
    return [[a // g for a in row] for row in rows[:len(pivots)] for g in (gcd(*row),)]


def _second_wong_sequence(K: KroneckerModule, blocks, integer, B):
    """(corank of B = sum_k K_k ⊗ T_k over Q, the destabilizer that the
    limit of its second Wong sequence proves, or None), for B the
    `_blow_up` of the blocks and of the slices of ``integer``, the value of
    `_integer_slices(K)`.

    One Bareiss elimination of [B | I] gives d, the pivots, the integer
    kernel of B and E with E B = d RREF(B).  The rows of E from rank B on
    span the left kernel, so w = r ⊗ e_a lies in im B iff those entries of
    E w vanish, and then the first rank entries, put at the pivot columns,
    are d times a preimage.  With ker B these preimages span B^-1(W).  B is
    built from the integer slices, B (D ⊗ I) with D the column scales, so
    S and K(S) are kept in the scaled source coordinates as primitive
    integer bases, and only the witness is scaled back by D."""
    rows, cols = len(blocks[0]), len(blocks[0][0])
    slices = integer[0]
    n = len(B)
    m = [row + [int(k == i) for k in range(n)] for i, row in enumerate(B)]
    pivots, d = integer_echelon(m, n, reduced=True)
    rank = len(pivots)
    if rank == n:
        return 0, None
    E = [row[n:] for row in m]
    kernel = null_vectors(m, pivots, d, n)
    R = []
    while True:
        preimages = kernel[:]
        for r in R:
            terms = [(i * rows, c) for i, c in enumerate(r) if c]
            for a in range(rows):
                w = [sum(c * e[o + a] for o, c in terms) for e in E]
                if any(w[rank:]):
                    return n - rank, None   # W is not inside im B, nor is the limit
                x = [0] * n
                for k, pc in enumerate(pivots):
                    x[pc] = w[k]
                preimages.append(x)
        S = _primitive_basis([[x[j * cols + b] for j in range(K.p)]
                              for x in preimages for b in range(cols)], K.p)
        image = _primitive_basis([[sum(map(mul, row, s)) for row in sl]
                                  for sl in slices for s in S], K.q)
        if len(image) == len(R):
            D = _witness(K, S, image, integer[1])
            if D is None:
                raise RuntimeError("internal: Wong limit without witness")
            return n - rank, D
        R = image


def is_semistable(K: KroneckerModule, seed: int = 0) -> KroneckerVerdict:
    """Exact verdict from blow-ups (see the module docstring): a certificate
    or a destabilizer, whose seed changes only the certificate and the
    running time."""
    g = gcd(K.p, K.q)
    cap = max(K.p * K.q // g - 1, 1)   # a 1 x 1 module has pq/g - 1 = 0
    rng = random.Random(derive_seed("kron-certificate", seed))
    integer = _integer_slices(K)
    m = 1
    while True:
        # the draw has the certificate's shape, so verify_certificate
        # reduces to this rank, and B is shared with the Wong sequence
        cert = SemistabilityCertificate(_draw(rng, m * K.p // g, m * K.q // g))
        B = _blow_up(integer[0], cert.blocks)
        if mod_nonsingular(B, cert.prime):
            return KroneckerVerdict("semistable", certificate=cert)
        corank, D = _second_wong_sequence(K, cert.blocks, integer, B)
        if D is not None:
            return KroneckerVerdict("unstable", D)
        if corank == 0:
            return KroneckerVerdict("semistable")   # the prime divides det B
        m = min(m + 1, cap)
