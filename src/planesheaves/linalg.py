"""Dense exact linear algebra over the rationals.

A cell is an int, or a Fraction where it has a denominator.  Every
elimination (`rank`, `det`, `rref`, `kernel_basis`, `integer_kernel_basis`,
`solve`, `integer_echelon`) runs one fraction-free routine, `_bareiss`: a
row of ints is taken as it is, any other row is scaled to integers once,
by the lcm of its denominators, and rows are combined as
(piv*a - f*b) // p_j, a division that is always exact (Bareiss, Math.
Comp. 22, 1968).  The entries stay minors of the scaled input, so no gcd
is taken inside the loop.  Fractions are built only for the returned
entries that the elimination divides, so the values and types of the
results do not depend on whether the input held ints or Fractions;
`integer_kernel_basis` and `integer_echelon` build none.
Rows that a step leaves alone are not rescaled: each row keeps the level j
it was last brought to, and its Bareiss value at a later level k is
row_j * p_k / p_j, p_0 = 1, p_1, ... the pivots (telescoping), so a row is
brought up to date only when it is combined or chosen as pivot.  `rank`
eliminates along the shorter side: a tall matrix is eliminated through its
columns, each scaled by the lcm of its denominators, since row rank equals
column rank.  The stabilizer certificate of `strata` tries GF(2) first:
`gf2_rank` eliminates rows packed into one int each (bit j is entry j
mod 2) by one XOR per step, and an odd minor is nonzero over Q.  Only when
that rank falls short does the one prime-field elimination, modulo the
word-size `CERTIFICATE_PRIME`, run (`mod_rank` on one integer row per
unknown), and then the exact rank.  The same elimination serves the
Kronecker semistability certificate (`mod_nonsingular` on the blown-up
matrix, which stops at the first column without a pivot).  Both take int
rows as they are, unreduced, since the elimination reduces every entry it
reads.
Rationals enter every integer routine one way: scaled by the lcm of their
denominators, a row at a time (`integer_rows`) or, where the caller knows
the system, by one scalar for all of it.  A rank modulo p only bounds the
rational rank from below, so it proves something only when it meets an
upper bound known in advance.  `null_vectors` turns an integer RREF into
null vectors, for `kernel_basis`, `integer_kernel_basis` and the Kronecker
Wong sequence alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod


class LinalgError(ValueError):
    pass


# The prime of both modular certificates: the largest below 2^15, so the
# product of two residues is a one-digit CPython int.
CERTIFICATE_PRIME = 32749

# The exact scalars, kept as they are in a matrix cell or a form coefficient;
# a bool, a float or any other number becomes a Fraction.  A set, to test rows in C.
SCALAR_TYPES = frozenset((int, Fraction))


class QMatrix:
    """Row-major dense matrix of exact scalars: ints, and Fractions where a
    cell has a denominator.  Any other number is converted to a Fraction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise LinalgError("data shape does not match (%d, %d)" % (rows, cols))
            self.data = [list(row) if SCALAR_TYPES.issuperset(map(type, row))
                         else [x if type(x) in SCALAR_TYPES else Fraction(x) for x in row]
                         for row in data]

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, rows)

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in product")
        out = QMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = row[k]
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        if brow[j]:
                            orow[j] += a * brow[j]
        return out

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if other.rows != self.rows:
            raise LinalgError("row mismatch in hstack")
        return QMatrix(self.rows, self.cols + other.cols,
                       [self.data[i] + other.data[i] for i in range(self.rows)])

    def _rref(self):
        """(integer rows, pivot columns, d): the RREF is rows / d."""
        m, _ = integer_rows(self.data)
        pivots, _, d = _bareiss(m, self.cols, reduced=True)
        return m, pivots, d

    def rref(self):
        """(RREF, pivot columns): an entry is an int where d divides it, as
        zeros and the pivots do, and a Fraction elsewhere."""
        m, pivots, d = self._rref()
        return QMatrix(self.rows, self.cols,
                       [[a // d if a % d == 0 else Fraction(a, d) for a in row]
                        for row in m]), pivots

    def rank(self) -> int:
        if self.rows > self.cols:
            m, _ = integer_rows(zip(*self.data))
            return len(_bareiss(m, self.rows, reduced=False)[0])
        m, _ = integer_rows(self.data)
        return len(_bareiss(m, self.cols, reduced=False)[0])

    def kernel_basis(self):
        """Basis of the right null space, as a list of column vectors: the
        free coordinates are the ints 0 and 1, the pivot ones Fractions."""
        m, pivots, d = self._rref()
        pivset = set(pivots)
        return [[Fraction(a, d) if c in pivset else a // d for c, a in enumerate(v)]
                for v in null_vectors(m, pivots, d, self.cols)]

    def integer_kernel_basis(self):
        """Basis of the right null space as primitive integer vectors: each
        is the matching `kernel_basis` vector times the positive integer
        that clears its denominators and leaves its entries coprime."""
        m, pivots, d = self._rref()
        return [[a // g for a in v] for v in null_vectors(m, pivots, d, self.cols)
                for g in (gcd(*v) if d > 0 else -gcd(*v),)]

    def solve(self, rhs):
        """One solution of self @ x = rhs, or None if the system is
        inconsistent: Fractions at the pivot columns, 0 elsewhere."""
        if len(rhs) != self.rows:
            raise LinalgError("rhs length mismatch")
        aug = QMatrix(self.rows, self.cols + 1,
                      [self.data[i] + [rhs[i]] for i in range(self.rows)])
        m, pivots, d = aug._rref()
        if self.cols in pivots:
            return None
        x = [0] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = Fraction(m[r][self.cols], d)
        return x

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise LinalgError("det of non-square matrix")
        m, scales = integer_rows(self.data)
        pivots, sign, last = _bareiss(m, self.cols, reduced=False)
        return Fraction(sign * last if len(pivots) == self.rows else 0, prod(scales))

    def __repr__(self):
        return "QMatrix(%d, %d, %r)" % (self.rows, self.cols, self.data)


def integer_rows(data):
    """Each row times the lcm of its denominators, which keeps the row space,
    and the list of those scales, 1 for a row of ints, which is only copied."""
    rows = []
    scales = []
    for row in data:
        if {int}.issuperset(map(type, row)):
            rows.append(list(row))
            scales.append(1)
            continue
        scale = lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return rows, scales


def _bareiss(m, ncols: int, reduced: bool):
    """Fraction-free elimination of the integer rows m, in place.

    Returns (pivot columns, sign of the row permutation, last pivot).  After
    k pivots p_1..p_k the Bareiss value of every entry is a minor of the
    row-permuted input, and the next step maps a row a to
    (p_(k+1)*a - f*b) // p_k, b the pivot row.  A row whose entry in the
    pivot column is zero would only be scaled by p_(k+1) // p_k, so it is
    left alone and keeps its level j: its value at level k is
    row_j * p_k / p_j, exact because the eager steps telescope.  A row a at
    level j is combined straight from that level as (p_(k+1)*a - f*b) // p_j,
    which equals the eager step on its level-k value (numerator and divisor
    both lose the factor p_k / p_j), so that division is exact too; a row is
    lifted to level k first only when it becomes the pivot row.  Zero entries are zero at every level, so the
    choice of pivots is unchanged.  With `reduced`, rows above the pivot are
    cleared too, every row is lifted to the last level at the end, every
    pivot ends equal to the last one, d, and the RREF is m / d; otherwise
    only the forward pass runs and the last pivot of a full-rank square
    matrix is the determinant of the permuted rows."""
    nrows = len(m)
    pivots = []
    sign = 1
    past = [1]              # past[j] = p_j; after r pivots every level is <= r
    level = [0] * nrows
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = r
        while p < nrows and not m[p][c]:
            p += 1
        if p == nrows:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            level[r], level[p] = level[p], level[r]
            sign = -sign
        prow = m[r]
        # entries left of column c are zero in the pivot row and below it
        if level[r] < r:
            prev, pj = past[r], past[level[r]]
            prow[c:] = [a * prev // pj for a in prow[c:]]
        piv = prow[c]
        tail = prow[c:]
        for i in range(0 if reduced else r + 1, nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                lo, src = (c, tail) if i > r else (0, prow)
                pj = past[level[i]]
                row[lo:] = [(piv * a - f * b) // pj for a, b in zip(row[lo:], src)]
                level[i] = r + 1
        level[r] = r + 1
        past.append(piv)
        pivots.append(c)
        r += 1
    if reduced:
        d = past[r]
        for i in range(r):
            if level[i] < r:
                pj = past[level[i]]
                m[i] = [a * d // pj for a in m[i]]
    return pivots, sign, past[r]


def integer_echelon(rows, ncols: int, reduced: bool = False):
    """`_bareiss` on a list of int rows, in place, pivots taken in the first
    ncols columns: (pivot columns, last pivot d).  The first len(pivots)
    rows are then an echelon basis of the row space there, and with
    `reduced` they are d times its RREF.  Columns from ncols on go through
    the same row operations, so rows [B | I] end as [E B | E]."""
    pivots, _, d = _bareiss(rows, ncols, reduced)
    return pivots, d


def null_vectors(m, pivots, d: int, ncols: int):
    """A basis of the null space of the RREF m / d of integer rows m, with
    the given pivot columns among the first ncols: one integer vector per
    free column fc, d at fc and -m[r][fc] at the r-th pivot column."""
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in pivset:
            v = [0] * ncols
            v[fc] = d
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
    return basis


def _mod_pivot_flags(rows, p: int):
    """For each column in turn, whether it holds a pivot of the elimination
    modulo the prime p of a matrix of ints given as a list of rows; every
    entry is reduced as it is read, so the rows need not be residues.  The
    flags stop once every row holds a pivot; a column without a pivot is
    reported before any later column is eliminated."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            yield False
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        # entries left of column c are zero mod p in the pivot row and below
        # it, and only the nonzero entries of the pivot row change a row below
        inv = pow(rows[rank][c], -1, p)
        tail = [(j, v * inv % p) for j, v in enumerate(rows[rank][c:], c) if v % p]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            f = row[c] % p
            if f:
                for j, b in tail:
                    row[j] = (row[j] - f * b) % p
        rank += 1
        yield True
        if rank == len(rows):
            return


def mod_rank(rows, p: int) -> int:
    """Rank over Z/p of a matrix of ints, given as a list of rows.

    A rank found modulo p is a lower bound for the rank over Q, so full rank
    modulo p proves full rank over Q."""
    return sum(_mod_pivot_flags(rows, p))


def gf2_rank(masks) -> int:
    """Rank over GF(2) of rows packed as ints, bit j of a row its entry j
    mod 2.  Each row is reduced by the basis row of its lowest set bit until
    it is zero or its lowest bit heads no basis row; a basis row clears its
    own lowest bit and touches only higher ones, so a row takes at most one
    XOR per bit.  A rank mod 2 is a lower bound for the rank over Q, as a
    minor that is odd is nonzero."""
    basis = {}
    for x in masks:
        while x:
            low = x & -x
            b = basis.get(low)
            if b is None:
                basis[low] = x
                break
            x ^= b
    return len(basis)


def mod_nonsingular(rows, p: int) -> bool:
    """Whether a square matrix of ints, given as a list of rows, is
    invertible modulo p: mod_rank(rows, p) == len(rows), decided at the
    first column without a pivot."""
    if any(len(r) != len(rows) for r in rows):
        raise LinalgError("mod_nonsingular needs a square matrix")
    return all(_mod_pivot_flags(rows, p))


def from_columns(cols, nrows: int) -> QMatrix:
    """Matrix whose columns are the given vectors (each of length nrows)."""
    cols = list(cols)
    return QMatrix(nrows, len(cols),
                   [[cols[j][i] for j in range(len(cols))] for i in range(nrows)])
