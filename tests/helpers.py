"""Shared random builders for the test suite (all seeded, all exact), and
the reference computations that faster paths of the package are checked
against."""

import random
from fractions import Fraction
from itertools import count

from planesheaves import forms
from planesheaves.forms import (MAX_DEGREE, VARIABLES, Form, FormError, block_mult_map,
                                format_form, mult_map, space_dim)
from planesheaves.linalg import QMatrix
from planesheaves.points import DEGREE_CAP, BettiShape, PointConfig, PointError, ideal_slice
from planesheaves.presentation import Presentation


def random_form(degree, rng):
    return forms.random_form(degree, rng, 9)


def random_nonzero_form(degree, rng):
    while True:
        f = random_form(degree, rng)
        if not f.is_zero():
            return f


def random_affine_config(n, rng, box=9):
    """n distinct rational points with z = 1."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(-box, box), rng.randint(-box, box), 1))
        try:
            return PointConfig(sorted(pts))
        except ValueError:
            continue


def config_satisfying(claim_predicates, n, rng, box=9, tries=200):
    for _ in range(tries):
        cfg = random_affine_config(n, rng, box)
        if all(pred(cfg) for _, pred in claim_predicates):
            return cfg
    raise AssertionError("could not draw a generic configuration")


def walk_resolution(cfg):
    """`points.minimal_resolution` as it was before the generators were
    counted on the section Z = 0: the generators new in degree t number
    dim I_t - rank(S_1 * I_(t-1)), the products X*f, Y*f and Z*f of the
    slice I_(t-1) ranked as the columns of one `block_mult_map`, in the
    original coordinates.  The reference for the section count."""
    n = len(cfg)
    if n > 15:
        raise PointError("configurations above 15 points exceed the degree cap")
    hilb = []
    gens = []
    prev_slice = []
    for t in count():
        last = t > 0 and hilb[t - 1] == n
        cur = None if last else ideal_slice(cfg, t)
        hilb.append(n if last else space_dim(t) - len(cur))
        shifted = (block_mult_map([prev_slice], [t], [1] * len(prev_slice)).rank()
                   if prev_slice else 0)
        gens.extend([t] * (space_dim(t) - hilb[t] - shifted))
        if last:
            break
        if hilb[t] < n and t + 3 >= DEGREE_CAP:
            raise PointError("regularity index above %d: the last syzygy reaches "
                             "the degree cap %d" % (DEGREE_CAP - 3, DEGREE_CAP))
        prev_slice = cur
    padded = [0, 0, 0] + hilb + [n]
    syz = []
    for t in range(len(hilb) + 1):
        h3, h2, h1, h0 = padded[t:t + 4]
        b = (h0 - 3 * h1 + 3 * h2 - h3) - (t == 0) + gens.count(t)
        if b < 0:
            raise PointError("Hilbert function gives %d syzygies in degree %d" % (b, t))
        syz.extend([t] * b)
    return BettiShape(tuple(gens), tuple(syz))


def macaulay_gcd(f, g):
    """`forms.form_gcd` without its line certificate: the degree d of the
    gcd from the nullity d(d + 1)/2 of the Macaulay resultant matrix, then
    the cofactor from one kernel and the gcd from one solve.  The reference
    for the certificate."""
    if f.is_zero() and g.is_zero():
        raise FormError("gcd undefined for two zero forms")
    if f.is_zero() or g.is_zero():
        return (g if f.is_zero() else f).monic()
    m, n = f.degree, g.degree
    sylvester = mult_map(f, n - 1).hstack(mult_map(g, m - 1))
    nullity = sylvester.cols - sylvester.rank()
    d = 0
    while space_dim(d - 1) < nullity:
        d += 1
    if d == 0:
        return Form.constant(1)
    (v,) = mult_map(f, n - d).hstack(mult_map(g, m - d)).kernel_basis()
    cofactor = Form(m - d, v[space_dim(n - d):])
    return Form(d, mult_map(cofactor, d).solve(f.coeffs)).monic()


def solve_divides(f, g):
    """`forms.divides` without its line certificate: whether g is in the
    column space of multiplication by f, by one solve.  The reference for
    the certificate."""
    if g.is_zero():
        return True
    if g.degree < f.degree:
        return False
    return mult_map(f, g.degree - f.degree).solve(g.coeffs) is not None


def printed_back_reading(text):
    """`forms._read_printed` as it was before each term was checked as it
    was read: the terms split, each monomial spelling looked up in the table
    `format_form` prints from, and the form kept only if it prints back to
    the very same text.  The reference for the term-by-term reader."""
    terms = text.replace(" - ", " + -").split(" + ")
    try:
        first = terms[0].lstrip("-")
        if first[:1] not in VARIABLES:
            first = first.partition("*")[2]
        d = sum(int(f[2:]) if f[1:] else 1 for f in first.split("*")) if first else 0
        if not 0 <= d <= MAX_DEGREE:
            return None
        index = forms._spelling_index(d)
        coeffs = [0] * len(index)
        for term in terms:
            sign = 1
            if term[:1] == "-":
                sign, term = -1, term[1:]
            i = index.get(term)
            if i is not None:
                coeffs[i] = sign
                continue
            head, _, mono = term.partition("*")
            i = index.get(mono)
            if i is None:
                return None
            coeffs[i] = sign * (Fraction(head) if "/" in head else int(head))
    except (ValueError, ZeroDivisionError):
        return None
    form = Form(d, coeffs)
    return form if format_form(form) == text else None


def laplace_det(block):
    """Determinant of a square matrix of forms, expanded along the first row
    by cofactors (k! products); the constant 1 for the empty matrix.  The
    reference for `forms.form_minors`."""
    n = len(block)
    if n == 0:
        return Form.constant(1)
    if n == 1:
        return block[0][0]
    acc = None
    for j in range(n):
        sub = [[block[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = block[0][j] * laplace_det(sub)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def minor_cliff(n):
    """O(-(n-1)) + O(-1)^(n-1) -> O^n, each row one form of degree n - 1 and
    n - 1 linear forms drawn in order from random.Random(5): every twist gate
    of `stability.minor_gcd_criterion` holds, so the criterion takes all n
    maximal minors of the n x (n - 1) linear truncation, which a cofactor
    expansion of each forms in about n! products."""
    rng = random.Random(5)
    rows = [[forms.random_form(n - 1, rng, 9)] + [forms.random_form(1, rng, 9)
                                                   for _ in range(n - 1)]
            for _ in range(n)]
    return Presentation([-(n - 1)] + [-1] * (n - 1), [0] * n, rows)


def mat_vec(m, v):
    """The product of the QMatrix m and the column vector v, as a list."""
    return [sum(a * b for a, b in zip(row, v)) for row in m.data]


# ---------------------------------------------------------------------------
# the symmetry group action (used by tests)
# ---------------------------------------------------------------------------

def random_invertible(n: int, rng) -> QMatrix:
    """Random invertible n x n matrix with integer entries in [-4, 4]."""
    while True:
        m = QMatrix(n, n, [forms.random_ints(rng, n, 4) for _ in range(n)])
        if m.det() != 0:
            return m


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
                g[a][b] = forms.random_form(ta - tb, rng, 4)
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
