import random
from fractions import Fraction
from math import gcd

import pytest

from planesheaves import linalg
from planesheaves.linalg import LinalgError, QMatrix
from helpers import mat_vec


def test_identity_rank_and_kernel():
    m = QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.rank() == 3
    assert m.kernel_basis() == []


def test_rank_one_kernel():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1
    (v,) = m.kernel_basis()
    # kernel spanned by (-2, 1)
    assert v[0] * 1 == -2 * v[1]
    assert mat_vec(m, v) == [0, 0]


def test_planted_rank():
    rng = random.Random(5)
    a = QMatrix(20, 12, [[rng.randint(-9, 9) for _ in range(12)] for _ in range(20)])
    b = QMatrix(12, 20, [[rng.randint(-9, 9) for _ in range(20)] for _ in range(12)])
    assert (a @ b).rank() == 12


def test_solve_and_inconsistency():
    m = QMatrix.from_rows([[1, 1], [1, 1]])
    assert m.solve([2, 3]) is None
    sol = m.solve([2, 2])
    assert sol is not None and sol[0] + sol[1] == 2
    m2 = QMatrix.from_rows([[2, 0], [0, 3]])
    assert m2.solve([1, 1]) == [Fraction(1, 2), Fraction(1, 3)]


def test_det():
    assert QMatrix.from_rows([[1, 2], [3, 4]]).det() == -2
    assert QMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    with pytest.raises(LinalgError):
        QMatrix(2, 3).det()


def _rank_mod(m, p):
    """mod_rank of a QMatrix whose rows are scaled to integers by the lcm of
    their denominators, none of which p divides."""
    return linalg.mod_rank(linalg.integer_rows(m.data)[0], p)


def test_mod_rank_cross_check():
    rng = random.Random(17)
    p = (1 << 30) + 85
    agree = 0
    trials = 60
    for _ in range(trials):
        rows = rng.randint(2, 8)
        cols = rng.randint(2, 8)
        m = QMatrix(rows, cols, [[Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                                  for _ in range(cols)] for _ in range(rows)])
        if m.rank() == _rank_mod(m, p) == _rank_mod(QMatrix.from_rows(zip(*m.data)), p):
            agree += 1
    assert agree >= trials * 99 // 100


def test_kernel_members_annihilate():
    rng = random.Random(3)
    m = QMatrix(5, 9, [[rng.randint(-4, 4) for _ in range(9)] for _ in range(5)])
    for v in m.kernel_basis():
        assert mat_vec(m, v) == [0] * 5
    assert m.rank() + len(m.kernel_basis()) == 9


def test_integer_kernel_is_the_kernel_basis_scaled_to_primitive_integers():
    rng = random.Random(4)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(1, 8)
        m = QMatrix(rows, cols, [[rng.choice([0, rng.randint(-9, 9),
                                              Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
                                  for _ in range(cols)] for _ in range(rows)])
        kernel = m.kernel_basis()
        integer = m.integer_kernel_basis()
        assert len(integer) == len(kernel)
        for v, w in zip(kernel, integer):
            assert all(type(a) is int for a in w) and gcd(*w) == 1
            # v has a 1 at its free column, so w is v times w's entry there
            scale = next(a for a, b in zip(w, v) if b == 1)
            assert scale > 0 and w == [scale * b for b in v]


def test_null_vectors_of_an_integer_rref_are_d_times_the_kernel_basis():
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(1, 8)
        data = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(cols)] for _ in range(rows)]
        m = [row[:] for row in data]
        pivots, d = linalg.integer_echelon(m, cols, reduced=True)
        vectors = linalg.null_vectors(m, pivots, d, cols)
        assert all(type(a) is int for v in vectors for a in v)
        assert vectors == [[d * a for a in v] for v in QMatrix(rows, cols, data).kernel_basis()]


def test_integer_rows_scales_each_row_by_the_lcm_of_its_denominators():
    rows, scales = linalg.integer_rows([[1, -2], [Fraction(1, 6), Fraction(3, 4)],
                                        [Fraction(5), 0]])
    assert rows == [[1, -2], [2, 9], [5, 0]] and scales == [1, 12, 1]
    assert all(type(a) is int for row in rows for a in row)


# -- the fraction-free core against sympy -------------------------------------------

def random_oracle_matrices(seed, count=300):
    """Rational matrices with denominators, empty shapes, zero rows and
    columns, and planted rank deficiency."""
    rng = random.Random(seed)

    def entry():
        k = rng.random()
        if k < 0.3:
            return Fraction(0)
        if k < 0.65:
            return Fraction(rng.randint(-9, 9))
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(count)]
    for r, c in shapes:
        rows = [[entry() for _ in range(c)] for _ in range(r)]
        if r >= 2 and rng.random() < 0.4:
            i, j = rng.sample(range(r), 2)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            rows[i] = [a * x for x in rows[j]]
        if r >= 3 and rng.random() < 0.3:
            i, j, k = rng.sample(range(r), 3)
            rows[i] = [x - 2 * y for x, y in zip(rows[j], rows[k])]
        if r and rng.random() < 0.2:
            rows[rng.randrange(r)] = [Fraction(0)] * c
        if c and rng.random() < 0.2:
            col = rng.randrange(c)
            for row in rows:
                row[col] = Fraction(0)
        yield QMatrix(r, c, rows), [entry() for _ in range(r)]


def to_sympy(m, sympy):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row])


def from_sympy(entries):
    return [Fraction(int(x.p), int(x.q)) for x in entries]


def test_core_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for m, rhs in random_oracle_matrices(23):
        s = to_sympy(m, sympy)
        rref, pivots = m.rref()
        s_rref, s_pivots = s.rref()
        assert list(pivots) == list(s_pivots)
        assert rref.data == [from_sympy(s_rref.row(i)) for i in range(m.rows)]
        assert m.rank() == s.rank()
        if m.rows == m.cols:
            assert m.det() == from_sympy([s.det()])[0]
        kernel = m.kernel_basis()
        assert kernel == [from_sympy(v) for v in s.nullspace()]
        b = to_sympy(QMatrix(m.rows, 1, [[x] for x in rhs]), sympy)
        x = m.solve(rhs)
        try:
            sol, params = s.gauss_jordan_solve(b)
        except ValueError:
            assert x is None
        else:
            # solve sets every free variable to zero
            assert x == from_sympy(sol.subs({p: 0 for p in params}))


class ExactInt:
    """Integer whose floor division insists on a zero remainder."""

    divisions = 0

    def __init__(self, v):
        self.v = v.v if isinstance(v, ExactInt) else v

    def __mul__(self, other):
        return ExactInt(self.v * ExactInt(other).v)

    def __sub__(self, other):
        return ExactInt(self.v - ExactInt(other).v)

    def __floordiv__(self, other):
        q, rem = divmod(self.v, ExactInt(other).v)
        assert rem == 0, "inexact Bareiss division"
        ExactInt.divisions += 1
        return ExactInt(q)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        return self.v == ExactInt(other).v


def test_every_bareiss_division_is_exact():
    ExactInt.divisions = 0
    for m, _ in random_oracle_matrices(31):
        for reduced in (False, True):
            rows, _ = linalg.integer_rows(m.data)
            checked = [[ExactInt(a) for a in row] for row in rows]
            pivots, _, d = linalg._bareiss(checked, m.cols, reduced)
            assert pivots == linalg._bareiss(rows, m.cols, reduced)[0]
            if reduced:
                assert all(checked[r][c] == d for r, c in enumerate(pivots))
    assert ExactInt.divisions > 10000


# -- lazy row scaling and the shorter side ------------------------------------------

def eager_bareiss(m, ncols, reduced):
    """`_bareiss` as it was before lazy row scaling: every row with a zero in
    the pivot column is rescaled by piv // prev at every step."""
    nrows = len(m)
    pivots = []
    sign = 1
    prev = 1
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
            sign = -sign
        prow = m[r]
        piv = prow[c]
        tail = prow[c:]
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            lo, src = (c, tail) if i > r else (0, prow)
            row = m[i]
            f = row[c]
            if f:
                row[lo:] = [(piv * a - f * b) // prev for a, b in zip(row[lo:], src)]
            elif piv != prev:
                row[lo:] = [piv * a // prev for a in row[lo:]]
        pivots.append(c)
        prev = piv
        r += 1
    return pivots, sign, prev


def stabilizer_like_systems(seed, count=24):
    """Sparse tall integer systems shaped like the generic-stabilizer systems
    (40-110 rows, 10-72 columns, 5-25% nonzeros), with planted dependent
    rows and columns."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(40, 110), rng.randint(10, 72)
        density = rng.uniform(0.05, 0.25)
        rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
                 for _ in range(c)] for _ in range(r)]
        for _ in range(rng.randint(1, r // 3)):
            i, j, k = rng.sample(range(r), 3)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        for _ in range(rng.randint(0, c // 4)):
            i, j = rng.sample(range(c), 2)
            for row in rows:
                row[i] = row[j] - row[i] if rng.random() < 0.5 else 2 * row[j]
        yield rows, c


def test_lazy_bareiss_equals_eager():
    inputs = [(linalg.integer_rows(m.data)[0], m.cols) for m, _ in random_oracle_matrices(37)]
    inputs += list(stabilizer_like_systems(41))
    inputs += [([], 0), ([], 5), ([[] for _ in range(4)], 0)]
    deficient = 0
    for rows, ncols in inputs:
        for reduced in (False, True):
            lazy = [row[:] for row in rows]
            eager = [row[:] for row in rows]
            got = linalg._bareiss(lazy, ncols, reduced)
            assert got == eager_bareiss(eager, ncols, reduced)
            if reduced:
                assert lazy == eager
        deficient += len(got[0]) < min(len(rows), ncols)
    assert deficient > 50


def fraction_rank(rows):
    """Textbook Gaussian elimination over the Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_along_the_shorter_side():
    rng = random.Random(43)
    shapes = [(0, 0), (0, 4), (4, 0), (7, 0), (0, 7)]
    for _ in range(120):
        short, long = rng.randint(1, 8), rng.randint(2, 24)
        shapes.append((long, short) if rng.random() < 0.6 else (short, long))
    tall = 0
    for r, c in shapes:
        rows = [[Fraction(rng.randint(-20, 20), rng.randint(1, 12)) if rng.random() < 0.5
                 else Fraction(0) for _ in range(c)] for _ in range(r)]
        if r and rng.random() < 0.3:
            rows[rng.randrange(r)] = [Fraction(0)] * c
        if c and rng.random() < 0.3:
            col = rng.randrange(c)
            for row in rows:
                row[col] = Fraction(0)
        if c >= 2 and rng.random() < 0.4:
            i, j = rng.sample(range(c), 2)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            for row in rows:
                row[i] = a * row[j]
        m = QMatrix(r, c, rows)
        tall += r > c
        assert m.rank() == fraction_rank(rows) == QMatrix.from_rows(zip(*m.data)).rank(), (r, c)
    assert tall > 50


# -- ints and Fractions ---------------------------------------------------------------

def _narrowed(rows):
    """The same rows with every entry of denominator 1 as an int."""
    return [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]


def test_int_cells_eliminate_like_fraction_cells():
    """rank, rref, kernel_basis, solve and det take the same values and
    return the same types whether an integral cell is an int or a Fraction."""
    rng = random.Random(47)
    cases = []
    for m, rhs in random_oracle_matrices(53, count=200):
        cases.append((m.data, m.cols, rhs))                             # mixed rows
        cases.append((linalg.integer_rows(m.data)[0], m.cols, rhs))    # integer rows
    for rows, ncols in stabilizer_like_systems(59, count=6):
        cases.append((rows, ncols, [rng.randint(-3, 3) for _ in rows]))
    for rows, ncols, rhs in cases:
        as_fractions = QMatrix(len(rows), ncols, [[Fraction(x) for x in row] for row in rows])
        as_ints = QMatrix(len(rows), ncols, _narrowed(as_fractions.data))
        rhs_fractions = [Fraction(x) for x in rhs]
        assert as_ints == as_fractions
        assert as_ints.rank() == as_fractions.rank()
        results = []
        for m, b in ((as_ints, _narrowed([rhs_fractions])[0]), (as_fractions, rhs_fractions)):
            rref, pivots = m.rref()
            results.append((rref.data, pivots, m.kernel_basis(), m.solve(b),
                            m.det() if m.rows == m.cols else None))
        assert results[0] == results[1]
        assert repr(results[0]) == repr(results[1])


def test_mod_nonsingular_is_full_mod_rank():
    rng = random.Random(61)
    p = 101
    for _ in range(300):
        n = rng.randint(0, 6)
        rows = [[rng.choice((0, 0, rng.randrange(p))) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.4:
            i, j = rng.sample(range(n), 2)
            a = rng.randrange(p)
            rows[i] = [a * x % p for x in rows[j]]
        assert linalg.mod_nonsingular(rows, p) == (linalg.mod_rank(rows, p) == n)
    with pytest.raises(LinalgError):
        linalg.mod_nonsingular([[1, 2]], p)


def test_mod_rank_and_mod_nonsingular_take_ints_unreduced():
    """Ints of either sign and beyond the prime give the verdicts of their
    residues, so a caller with int rows passes them as they are."""
    rng = random.Random(7)
    p = linalg.CERTIFICATE_PRIME
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, rng.randint(-3 * p, 3 * p), rng.randint(-9, 9)))
                 for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.4:
            rows[1] = [x + p * rng.randint(-2, 2) for x in rows[0]]
        residues = [[x % p for x in row] for row in rows]
        assert linalg.mod_rank(rows, p) == linalg.mod_rank(residues, p)
        assert linalg.mod_nonsingular(rows, p) == linalg.mod_nonsingular(residues, p)


def _parity_masks(rows):
    """Each int row packed into one int, bit j its entry j mod 2."""
    return [sum(1 << j for j, x in enumerate(row) if x & 1) for row in rows]


def test_gf2_rank_is_mod_rank_2_and_bounds_the_rank():
    """The elimination over GF(2) of packed rows against `mod_rank` modulo 2
    and the exact rank, on random int rows of either sign with zero rows,
    one-column and empty inputs, and on the stabilizer-shaped systems."""
    rng = random.Random(67)
    cases = [[], [[]], [[0]], [[3]], [[-2]], [[0, 0], [0, 0]]]
    for _ in range(300):
        r, c = rng.randint(1, 12), rng.choice((1, rng.randint(1, 12)))
        rows = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            rows[rng.randrange(r)] = [0] * c
        if r >= 3 and rng.random() < 0.4:
            i, j, k = rng.sample(range(r), 3)
            rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
        cases.append(rows)
    cases += [rows for rows, _ in stabilizer_like_systems(71)]
    short = 0
    for rows in cases:
        got = linalg.gf2_rank(_parity_masks(rows))
        exact = QMatrix.from_rows(rows).rank()
        assert got == linalg.mod_rank(rows, 2) <= exact, rows
        short += got < exact
    assert short > 20
    assert any(len(rows[0]) == 1 for rows in cases if rows)


def test_mod_rank_of_either_orientation_agrees_with_rank():
    """Tall and wide products of planted rank, with int rows, Fraction rows
    and mixed rows, modulo a word-size prime: the same rank as the exact
    elimination, on the matrix and on its transpose, and an all-int matrix
    needs no reduction first."""
    rng = random.Random(29)
    p = 32749
    for _ in range(200):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if rng.random() < 0.5:
            rows, cols = max(rows, cols), min(rows, cols)
        r = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(rows)]
        right = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(r)]
        data = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] if r else [0] * cols
                for lrow in left]
        for row in data:
            if rng.random() < 0.3:
                row[:] = [Fraction(x, rng.randint(1, 9)) for x in row]
        m = QMatrix(rows, cols, data)
        assert _rank_mod(m, p) == m.rank() == _rank_mod(QMatrix.from_rows(zip(*m.data)), p)
        if all(type(x) is int for row in m.data for x in row):
            assert linalg.mod_rank(m.data, p) == m.rank()
