"""Shared random builders for the test suite (all seeded, all exact)."""

from planesheaves import forms
from planesheaves.forms import Form
from planesheaves.linalg import QMatrix
from planesheaves.points import PointConfig
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
