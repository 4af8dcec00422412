"""Dense exact linear algebra over the rationals.

All matrices in this package are small (dimensions in the tens, at most a
couple hundred rows for the audit systems), so plain Gaussian elimination
with `fractions.Fraction` entries is the right tool.  One prime-field rank
routine (`mod_rank`) serves the randomized cross-check and the Kronecker
sampling search; a rank modulo p only bounds the rational rank from below,
so it is never used as the primary answer.
"""

from __future__ import annotations

from fractions import Fraction


class LinalgError(ValueError):
    pass


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class QMatrix:
    """Row-major dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise LinalgError("data shape does not match (%d, %d)" % (rows, cols))
            self.data = [[_frac(x) for x in row] for row in data]

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, rows)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    def copy(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

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

    def mat_vec(self, v):
        if len(v) != self.cols:
            raise LinalgError("vector length mismatch")
        return [sum((self.data[i][j] * v[j] for j in range(self.cols)), Fraction(0))
                for i in range(self.rows)]

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if other.rows != self.rows:
            raise LinalgError("row mismatch in hstack")
        return QMatrix(self.rows, self.cols + other.cols,
                       [self.data[i] + other.data[i] for i in range(self.rows)])

    def vstack(self, other: "QMatrix") -> "QMatrix":
        if other.cols != self.cols:
            raise LinalgError("col mismatch in vstack")
        return QMatrix(self.rows + other.rows, self.cols,
                       [row[:] for row in self.data] + [row[:] for row in other.data])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def _echelon(self):
        """Return (echelon rows, pivot column list); does not modify self."""
        m = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            p = None
            for i in range(r, self.rows):
                if m[i][c]:
                    p = i
                    break
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rref(self):
        m, pivots = self._echelon()
        return QMatrix(self.rows, self.cols, m), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self):
        """Basis of the right null space, as a list of column vectors."""
        m, pivots = self._echelon()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
        return basis

    def solve(self, rhs):
        """One solution of self @ x = rhs, or None if the system is inconsistent."""
        if len(rhs) != self.rows:
            raise LinalgError("rhs length mismatch")
        aug = QMatrix(self.rows, self.cols + 1,
                      [self.data[i] + [_frac(rhs[i])] for i in range(self.rows)])
        m, pivots = aug._echelon()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][self.cols]
        return x

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise LinalgError("det of non-square matrix")
        m = [row[:] for row in self.data]
        n = self.rows
        sign = 1
        det = Fraction(1)
        for c in range(n):
            p = None
            for i in range(c, n):
                if m[i][c]:
                    p = i
                    break
            if p is None:
                return Fraction(0)
            if p != c:
                m[c], m[p] = m[p], m[c]
                sign = -sign
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det * sign

    def rank_mod_p(self, p: int) -> int:
        """Rank of the reduction modulo p.  Raises if p divides a denominator."""
        return mod_rank(mod_residues(self.data, p), p)

    def __repr__(self):
        return "QMatrix(%d, %d, %r)" % (self.rows, self.cols, self.data)


def mod_residues(rows, p: int):
    """Rows of rationals reduced to residues modulo the prime p."""
    out = []
    for row in rows:
        r = []
        for x in row:
            den = x.denominator % p
            if den == 0:
                raise LinalgError("prime divides a denominator")
            r.append(x.numerator * pow(den, p - 2, p) % p)
        out.append(r)
    return out


def mod_rank(rows, p: int) -> int:
    """Rank over Z/p of a matrix of residues, given as a list of rows.

    A rank found modulo p is a lower bound for the rank over Q, so full rank
    modulo p proves full rank over Q."""
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
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


class IncrementalSpan:
    """Row span maintained in echelon form; supports cheap membership tests."""

    def __init__(self, length: int):
        self.length = length
        self.rows = []          # (pivot index, normalized row)

    def reduce(self, vector):
        v = [_frac(x) for x in vector]
        for piv, row in self.rows:
            if v[piv]:
                f = v[piv]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def insert(self, vector) -> bool:
        """Add the vector; returns True iff it enlarged the span."""
        v = self.reduce(vector)
        for piv in range(self.length):
            if v[piv]:
                inv = 1 / v[piv]
                row = [x * inv for x in v]
                self.rows.append((piv, row))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False

    def contains(self, vector) -> bool:
        return all(x == 0 for x in self.reduce(vector))

    @property
    def rank(self) -> int:
        return len(self.rows)


def hstack_all(mats) -> QMatrix:
    mats = list(mats)
    if not mats:
        raise LinalgError("hstack of nothing")
    out = mats[0]
    for m in mats[1:]:
        out = out.hstack(m)
    return out


def from_columns(cols, nrows: int) -> QMatrix:
    """Matrix whose columns are the given vectors (each of length nrows)."""
    cols = list(cols)
    return QMatrix(nrows, len(cols),
                   [[cols[j][i] for j in range(len(cols))] for i in range(nrows)])
