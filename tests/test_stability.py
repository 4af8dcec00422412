import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from planesheaves import forms
from planesheaves.forms import Form, form_mul, parse_form, space_dim
from planesheaves.presentation import Presentation, PresentationError, hilbert, is_injective
from planesheaves.stability import (BoundsQuery, StabilityVerdict, _pair_special_form,
                                    _restriction_minors, bounds_check, minor_gcd_criterion,
                                    pencil_block_criterion,
                                    pencil_block_failure, slope,
                                    two_by_two_criterion)
from planesheaves.strata import generate
from helpers import laplace_det, minor_cliff, random_form


def test_slope():
    assert slope(6, 1) == Fraction(1, 6)
    assert slope(6, 0) == 0
    assert slope(5, 3) == Fraction(3, 5)
    with pytest.raises(ValueError):
        slope(0, 1)


# -- square criterion ---------------------------------------------------------

def test_minor_gcd_chi0_x3_generic_stable():
    rng = random.Random(0)
    for seed in range(5):
        P = generate(0, "X_3", seed=seed)
        verdict = minor_gcd_criterion(P)
        assert verdict.kind == "stable"


def test_minor_gcd_properly_semistable_pair():
    P = Presentation.from_text([-2, -2], [-1, -1], [["0", "X"], ["Y", "Z"]])
    verdict = minor_gcd_criterion(P)
    assert verdict.kind == "properly_semistable"
    assert verdict.witness is not None
    hd = hilbert(P)
    assert verdict.witness.slope() == slope(hd.r, hd.chi)


def test_minor_gcd_hypothesis_failure_is_inconclusive():
    P = Presentation.from_text(
        [-3, -3], [-1, 1],
        [["X^2", "Y^2"], ["X^4 + Y^4", "Z^4"]])
    verdict = minor_gcd_criterion(P)
    assert verdict.kind == "inconclusive"
    assert "inequality" in verdict.reason


def test_minor_gcd_rejects_non_square():
    P = Presentation.from_text([-1], [0, 0], [["X"], ["Y"]])
    with pytest.raises(PresentationError):
        minor_gcd_criterion(P)


def test_minor_gcd_common_factor_is_inconclusive():
    P = Presentation.from_text(
        [-4, -1, -1], [0, 0, 0],
        [["X^4", "X", "Y"], ["Y^4", "2*X", "2*Y"], ["Z^4", "Z", "X"]])
    # second and third columns have proportional top rows: minors share X or...
    verdict = minor_gcd_criterion(P)
    assert verdict.kind in ("inconclusive", "stable")


# The first three maps are not injective, so outside the criterion's
# contract: each has a zero column in its truncation, whose minors then all
# vanish and share every factor.
@pytest.mark.parametrize("source,target,rows,reason", [
    ([-2, -2, 1], [0, 0, 0], [["X^2", "Y^2", "0"], ["Y^2", "Z^2", "0"], ["Z^2", "X^2", "0"]],
     "truncation minors share a common factor"),
    ([-3, -1, 0], [-1, -1, -1], [["X^2", "0", "0"], ["Y^2", "0", "0"], ["Z^2", "0", "0"]],
     "truncation minors share a common factor"),
    ([-1, -1], [0, 0], [["X", "0"], ["Y", "0"]], "truncation minors share a common factor"),
    ([-3, -2, 0], [-1, 0, 0], [["X^2", "Y", "0"], ["Y^3", "Z^2", "1"], ["Z^3", "X^2", "0"]],
     "integral slope ratio with possible subsheaf embeddings is undecided beyond pairs"),
])
def test_minor_gcd_verdicts(source, target, rows, reason):
    P = Presentation.from_text(source, target, rows)
    assert is_injective(P) == reason.startswith("integral")
    assert minor_gcd_criterion(P) == StabilityVerdict("inconclusive", reason)


def test_truncation_minors_match_the_laplace_reference():
    # one summand: the truncation has no columns, its one minor is 1
    one = Presentation.from_text([-3], [0], [["X^3 + Y^3 + Z^3"]])
    assert minor_gcd_criterion(one).reason == "a truncation minor has degree zero"
    for P in [one, generate(0, "X_3", seed=1), generate(1, "X_0", seed=2), minor_cliff(6)]:
        n = len(P.source)
        minors, _ = _restriction_minors(P)
        for i in range(n):
            ref = laplace_det([P.matrix[r][1:] for r in range(n) if r != i])
            assert (minors[i] - ref).is_zero()


@pytest.mark.parametrize("n,reason", [
    (9, "slope ratio is not an integer"),
    (10, "no room for a slope-matching subsheaf"),
])
def test_minor_gcd_takes_one_minors_pass(monkeypatch, n, reason):
    # a count, not a clock: one pass over the linear truncation forms fewer
    # than n * 2^(n - 1) products, where cofactor expansions of its n minors
    # form 623,520 at n = 9
    products = []

    def counted(f, g):
        products.append(1)
        return form_mul(f, g)
    monkeypatch.setattr(forms, "form_mul", counted)
    assert minor_gcd_criterion(minor_cliff(n)) == StabilityVerdict("stable", reason)
    assert len(products) <= n * 2 ** (n - 1)


# -- pair criterion -----------------------------------------------------------

def test_pair_strict_gap_stable():
    # O(-4)+O(-2) -> O(-1)+O(1) with coprime second column
    P = Presentation.from_text(
        [-4, -2], [-1, 1],
        [["X^3 + Y^3", "X"], ["X^5 + Z^5", "Y^3 + Z^3"]])
    assert two_by_two_criterion(P).kind == "stable"


def test_pair_x5_shape_stable():
    P = generate(1, "X_5", seed=4)
    assert two_by_two_criterion(P).kind == "stable"


def test_pair_special_form_properly_semistable():
    P = Presentation.from_text([-2, -2], [-1, -1], [["0", "X"], ["Y", "Z"]])
    verdict = two_by_two_criterion(P)
    assert verdict.kind == "properly_semistable"
    assert (verdict.witness.sub_source, verdict.witness.sub_target) == (-2, -1)


def test_pair_divisible_slot_properly_semistable():
    # equal gaps, d1 < d2, and the quadratic slot divisible by the linear one
    P = Presentation.from_text(
        [-3, -2], [0, 1],
        [["X^2*Y", "X*Y"], ["X^3*Z + Y^4", "Z^3 + X^2*Y"]])
    # gcd(X*Y, Z^3 + X^2*Y) = 1 and X*Y divides X^2*Y
    verdict = two_by_two_criterion(P)
    assert verdict.kind == "properly_semistable"


def test_pair_precondition_violation_inconclusive():
    P = Presentation.from_text(
        [-3, -3], [-1, 1],
        [["X^2", "Y^2"], ["X^4 + Y^4", "Z^4"]])
    verdict = two_by_two_criterion(P)
    assert verdict.kind == "inconclusive"
    assert "gap ordering" in verdict.reason


@pytest.mark.parametrize("source,target,rows,reason", [
    ([-1], [0], [["X"]], "needs exactly two summands on each side"),
    ([-2, -1], [-1, 0], [["X", "0"], ["Y^2", "Z"]], "twist ordering d2 < e1 fails"),
    # not injective (det P is zero), so outside the contract: a zero column
    # shares every factor
    ([-3, -2], [-1, -1], [["X^2", "0"], ["Y^2", "0"]], "second-column entries share a factor"),
    ([-3, -2], [0, 0], [["X^3", "X^2 + X*Y"], ["Y^3 + Z^3", "X*Y + Y^2"]],
     "second-column entries share a factor"),
])
def test_pair_gates(source, target, rows, reason):
    P = Presentation.from_text(source, target, rows)
    assert two_by_two_criterion(P) == StabilityVerdict("inconclusive", reason)


def test_pair_agrees_with_minor_gcd_on_shared_domain():
    rng = random.Random(44)
    hits = 0
    for _ in range(30):
        d = sorted((rng.randint(-4, -2), rng.randint(-4, -2)))
        e = sorted((rng.randint(-1, 1), rng.randint(-1, 1)))
        if not (d[1] < e[0] and e[0] - d[0] >= e[1] - d[1]):
            continue
        rows = [[random_form(e[i] - d[j], rng) for j in range(2)] for i in range(2)]
        try:
            P = Presentation(tuple(d), tuple(e), [[f for f in row] for row in rows])
        except PresentationError:
            continue
        v1 = two_by_two_criterion(P)
        v2 = minor_gcd_criterion(P)
        if v1.kind == "inconclusive" or v2.kind == "inconclusive":
            continue
        assert v1.kind == v2.kind
        hits += 1
    assert hits >= 5


# the reasons of minor_gcd_criterion's own gates
_MINOR_GCD_GATES = {
    "twist gap inequality (first summand) fails", "a truncation minor has degree zero",
    "truncation minors share a common factor",
}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-5, 0), min_size=4, max_size=4),
       st.integers(0, 2**32 - 1), st.sampled_from((1, 9)))
def test_minor_gcd_on_pairs_is_its_own_gates_or_the_pair_criterion(twists, seed, bound):
    # past its gates, minor-gcd hands a pair to two-by-two, whose gates then
    # all hold: it is never inconclusive there
    d, e = sorted(twists[:2]), sorted(twists[2:])
    rng = random.Random(seed)
    P = Presentation(tuple(d), tuple(e),
                     [[forms.random_form(ei - dj, rng, bound) if ei >= dj else Form.zero(0)
                       for dj in d] for ei in e])
    assume(is_injective(P))
    verdict = minor_gcd_criterion(P)
    if verdict.kind == "inconclusive":
        assert verdict.reason in _MINOR_GCD_GATES
    elif verdict.reason == "slope ratio is not an integer":
        assert two_by_two_criterion(P).kind == "stable"
    else:
        assert verdict == two_by_two_criterion(P)


# Reasons that only a map with det P = 0 could reach.
_OUT_OF_CONTRACT = {
    "twist quadratic inequality fails", "componentwise twist inequality fails",
    "all truncation minors vanish", "second column vanishes",
}
# Every (criterion, reason) that the injective draws below reach.
_REACHED_ON_INJECTIVE = {
    (minor_gcd_criterion, reason) for reason in (
        "twist gap inequality (first summand) fails", "a truncation minor has degree zero",
        "truncation minors share a common factor", "slope ratio is not an integer",
        "no special form", "slope-matching subsheaf found",
        "no room for a slope-matching subsheaf",
        "integral slope ratio with possible subsheaf embeddings is undecided beyond pairs")
} | {
    (two_by_two_criterion, reason) for reason in (
        "needs exactly two summands on each side", "twist ordering d2 < e1 fails",
        "twist gap ordering e1-d1 >= e2-d2 fails", "second-column entries share a factor",
        "strict twist gap", "no special form", "slope-matching subsheaf found")
}


def test_square_criteria_on_injective_maps_reach_only_their_kept_verdicts():
    # every caller passes an injective map, and on those each twist gate
    # past the first, and each gate on vanishing forms, is never reached
    rng = random.Random(134)
    injective, reached = 0, set()
    for _ in range(1500):
        n = rng.randint(1, 4)
        d = sorted(rng.randint(-4, 0) for _ in range(n))
        e = sorted(rng.randint(-2, 1) for _ in range(n))
        bound = rng.choice((1, 9))
        P = Presentation(tuple(d), tuple(e),
                         [[forms.random_form(ei - dj, rng, bound) if ei >= dj else Form.zero(0)
                           for dj in d] for ei in e])
        if not is_injective(P):
            continue
        injective += 1
        for criterion in (minor_gcd_criterion, two_by_two_criterion):
            reason = criterion(P).reason
            assert reason not in _OUT_OF_CONTRACT
            reached.add((criterion, reason))
    assert injective == 1220
    assert reached == _REACHED_ON_INJECTIVE


class _OverBudget(Exception):
    pass


@pytest.mark.xfail(strict=True, raises=_OverBudget,
                   reason="ROADMAP item 16: form_gcd answers a pair with a common factor "
                          "by its Macaulay matrix")
def test_pair_with_a_shared_linear_factor_within_a_matrix_budget(monkeypatch):
    # the second column shares X + 2Y + 3Z, so no line certifies it coprime;
    # the Macaulay matrix of its degree-20 entries is 820 x 210 cells, and
    # form_gcd took minutes to finish it
    rng = random.Random(1)
    line = parse_form("X + 2*Y + 3*Z")
    P = Presentation((-21, -20), (0, 0),
                     [[forms.random_form(21, rng, 9), line * forms.random_form(19, rng, 9)]
                      for _ in range(2)])
    assert is_injective(P)
    mult_map = forms.mult_map

    def capped(f, s):
        if space_dim(s + f.degree) * space_dim(s) > 50_000:
            raise _OverBudget("mult_map(f, %d) of a degree-%d form" % (s, f.degree))
        return mult_map(f, s)
    monkeypatch.setattr(forms, "mult_map", capped)
    assert two_by_two_criterion(P) == StabilityVerdict(
        "inconclusive", "second-column entries share a factor")


# The wedge quadrics of [[f11, f12], [f21, f22]] in (u, v) vanish where
# u*(f11, f21) + v*(f12, f22) has dependent entries.
@pytest.mark.parametrize("rows,kind", [
    ([["X", "Y"], ["Y", "X"]], "properly_semistable"),     # u^2 - v^2: rational roots
    ([["X", "Y"], ["2*Y", "X"]], "properly_semistable"),   # 2u^2 - v^2: irrational roots
    ([["X", "Y"], ["Y", "Z"]], "stable"),                  # u^2, u*v, v^2: no root
])
def test_pair_special_form_wedge_quadrics(rows, kind):
    P = Presentation.from_text([0, 0], [1, 1], rows)
    assert two_by_two_criterion(P).kind == kind


# The slot of [[f11, f12], [f21, f22]] (equal twist gaps) can be cleared iff
# the wedge quadrics of u*(f11, f21) + v*(f12, f22), one per pair of
# monomials, have a common root (u, v) over the closure.
@pytest.mark.parametrize("rows,special", [
    # X∧Y, X∧Z, Y∧Z: 2u^2 - 2uv, uv - u^2, (u - v)^2, the common rational root u = v
    ([["X - Y", "Y"], ["2*X - Z", "Z"]], True),
    # 3uv, u^2, uv: a common root only at (u, v) = (0, 1)
    ([["X", "Y"], ["Z", "3*Y"]], True),
    # u^2 - 2v^2 twice and 0: a common root, but not a rational one
    ([["X", "Y + Z"], ["Y + Z", "2*X"]], True),
    # u^2, uv, v^2: no common root
    ([["X", "Y"], ["Y", "Z"]], False),
    # 0, 0 and (2u^2 - v^2)/9: zero quadrics are skipped
    ([["1/3*X", "1/3*Y"], ["2/3*Y", "1/3*X"]], True),
    # all three quadrics vanish, so every (u, v) is a root
    ([["X", "Y"], ["2*X", "2*Y"]], True),
    # quadric entries, fifteen wedge quadrics: the common root u = v, and none
    ([["X^2 - Y^2", "Y^2"], ["2*X^2 - Z^2", "Z^2"]], True),
    ([["X^2", "Y^2"], ["Y^2", "Z^2"]], False),
])
def test_pair_special_form_common_roots(rows, special):
    gap = max(parse_form(f).degree for row in rows for f in row)
    P = Presentation.from_text([-gap, -gap], [0, 0], rows)
    assert _pair_special_form(P) is special


# -- pencil block criterion -----------------------------------------------------

@pytest.mark.parametrize("rows,failure", [
    ([["Y^2", "X", "Y"], ["Z^2", "Z", "X"]], None),
    ([["Y^2", "X", "Y"], ["Z^2", "2*X", "2*Y"]], "linear block determinant vanishes"),
    ([["0", "X", "Y"], ["0", "Z", "X"]], "a mixed minor vanishes"),
    # q1 = l11*l22 - l12*l21, q2 = 0: both mixed minors lie in det * (linear forms)
    ([["X^2 - Y*Z", "X", "Y"], ["0", "Z", "X"]],
     "mixed minors dependent modulo the pencil determinant"),
])
def test_pencil_block_failure_reasons(rows, failure):
    block = Presentation.from_text([-3, -2, -2], [-1, -1], rows).matrix
    assert pencil_block_failure(block) == failure


def test_pencil_block_generic_true():
    for seed in range(3):
        P = generate(2, "X_4", seed=seed)
        assert pencil_block_criterion(P).kind == "stable"


def test_pencil_block_degenerate_determinant():
    P = Presentation.from_text(
        [-3, -2, -2], [-1, -1, 1],
        [["X^2", "X", "Y"], ["Y^2", "X", "Y"], ["X^4", "Z^3", "X^3"]])
    verdict = pencil_block_criterion(P)
    assert verdict.kind == "inconclusive"
    assert "determinant" in verdict.reason


def test_pencil_block_zero_quadrics():
    P = Presentation.from_text(
        [-3, -2, -2], [-1, -1, 1],
        [["0", "X", "Y"], ["0", "Y", "Z"], ["X^4", "Z^3", "X^3"]])
    assert pencil_block_criterion(P).kind == "inconclusive"


def test_pencil_block_wrong_shape_errors():
    with pytest.raises(PresentationError):
        pencil_block_criterion(generate(3, "X_7", seed=0))


# -- cohomology bounds -----------------------------------------------------------

def test_bounds_named_forbidden_cases():
    cases = [
        (BoundsQuery(6, 1, h0_Fm1=0, h1_F=3, h1_F1=0), "forbidden_chi1_a"),
        (BoundsQuery(6, 1, h0_Fm1=1, h1_F=1), "forbidden_chi1_b"),
        (BoundsQuery(6, 1, h0_Fm1=2, h1_F1=0), "forbidden_chi1_c"),
        (BoundsQuery(6, 2, h0_Fm1=1, h1_F=3, h1_F1=0), "forbidden_chi2_a"),
        (BoundsQuery(6, 2, h0_Fm1=0, h1_F=2, h1_F1=0), "forbidden_chi2_b"),
        (BoundsQuery(6, 3, h0_Fm1=0, h1_F=2, h1_F1=0), "forbidden_chi3_a"),
        (BoundsQuery(6, 0, h0_Fm1=0, h1_F=3, h1_F1=0), "forbidden_chi0_a"),
    ]
    for query, rule in cases:
        result = bounds_check(query)
        assert not result.allowed and result.rule == rule


@pytest.mark.parametrize("field", ["h0_Fm1", "h1_F", "h1_F1"])
def test_bounds_query_refuses_a_negative_count(field):
    with pytest.raises(ValueError, match=field):
        BoundsQuery(6, 1, **{field: -1})
    assert getattr(BoundsQuery(6, 1, **{field: 0}), field) == 0


def test_bounds_growth_rule():
    result = bounds_check(BoundsQuery(6, 3, h0_Fm1=2, h1_F=3, h1_F1=0))
    assert not result.allowed and result.rule == "h1_growth_bound"


def test_bounds_section_rule():
    # h0(F) = h1(F) + chi = 1 is not above 2 h0(F(-1)) = 2; no named case
    # applies, and h1(F) = 0 leaves the growth bound out
    result = bounds_check(BoundsQuery(6, 1, h0_Fm1=1, h1_F=0))
    assert not result.allowed and result.rule == "h0_section_bound"


def test_bounds_allowed_examples():
    assert bounds_check(BoundsQuery(6, 3, h0_Fm1=0, h1_F=0, h1_F1=0)).allowed
    assert bounds_check(BoundsQuery(6, 1, h0_Fm1=1, h1_F=3, h1_F1=1)).allowed
    assert bounds_check(BoundsQuery(6, 2)).allowed
