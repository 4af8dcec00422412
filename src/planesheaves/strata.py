"""The strata registry for multiplicity-6 moduli (chi = 0, 1, 2, 3).

Each registry row (data/strata_registry.json) records a stratum: its
cohomological conditions, the twist shape of the presentations realizing it,
its expected codimension inside the 37-dimensional moduli space and its
dual row.  The side conditions used as generator filters live here, in one
table keyed by the row's (chi, id): a tuple of clauses in the paper's terms
(a block is a semistable Kronecker module, two forms are independent, two
entries are coprime, one entry does not divide another), checked in order.
A row without an entry has none.  Classification authority is the
cohomology profile; side conditions only filter generated instances.  Every
clause is decided exactly, each Kronecker block by
`kronecker.is_semistable`; only the orbit-form marker stays `unknown`, which
the generator accepts like `pass`.

The classifier decides exactly that its input map is injective and raises
otherwise.  At chi 1 it refutes a sheaf that is not simple, by dim End(F);
at chi 0, 2 and 3 it assumes that the sheaf is semistable: a
non-semistable injective presentation whose profile happens to sit in the
registry is classified silently.  Its label carries the profile that picked
the row.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property
from importlib import resources
from math import lcm

from .forms import (Form, coefficient_matrix, divides, form_gcd, linearly_independent,
                    monomials, random_form, space_dim)
from .kronecker import KroneckerModule, is_semistable
from .linalg import CERTIFICATE_PRIME, QMatrix, gf2_rank, mod_rank
from .presentation import (CohomologyProfile, InconsistentPresentationError, Presentation,
                           derive_seed, dual, hilbert, is_injective, minimal_presentation,
                           profile, twist)
from .stability import CRITERIA, BoundsQuery, bounds_check, pencil_block_failure

MODULI_DIM = 37   # r^2 + 1 for multiplicity 6


class StrataError(ValueError):
    pass


class ClassifyError(StrataError):
    pass


class GenerationError(StrataError):
    pass


class NotSemistableError(StrataError):
    """The presentation matches a row, but its sheaf is proved not semistable."""


@dataclass(frozen=True)
class StratumRow:
    chi: int
    id: str
    codim: int
    source: tuple
    target: tuple
    conditions: dict
    dual_id: str | None

    def matches(self, prof: CohomologyProfile) -> bool:
        return all(getattr(prof, k) == v for k, v in self.conditions.items())

    @cached_property
    def zero_cells(self) -> tuple:
        """Cells (i, j) of degree 0, target[i] == source[j]: a nonzero
        constant there would split off a summand O(e) -> O(e), so a minimal
        presentation has a zero there."""
        return tuple((i, j) for i, e in enumerate(self.target)
                     for j, d in enumerate(self.source) if e == d)


@dataclass(frozen=True)
class StratumLabel:
    """The row `classify` found, with the profile of the chi-normalized
    presentation that picked it."""
    chi: int
    id: str
    codim: int
    profile: CohomologyProfile


def _load_registry():
    """Each row straight from its JSON keys, so a key that is not a field of
    StratumRow fails here."""
    with resources.files("planesheaves.data").joinpath("strata_registry.json").open() as fh:
        raw = json.load(fh)
    return tuple(StratumRow(**dict(row, source=tuple(row["source"]), target=tuple(row["target"])))
                 for row in raw["rows"])


REGISTRY = _load_registry()
_ROWS = {(r.chi, r.id): r for r in REGISTRY}


def rows_for_chi(chi: int):
    return tuple(r for r in REGISTRY if r.chi == chi)


def get_row(chi: int, stratum_id: str) -> StratumRow:
    try:
        return _ROWS[chi, stratum_id]
    except KeyError:
        raise StrataError("no registry row (chi=%d, %s)" % (chi, stratum_id)) from None


# ---------------------------------------------------------------------------
# chi normalization
# ---------------------------------------------------------------------------

def normalize_chi(r: int, chi: int):
    """Canonical chi in {0,1,2,3} plus the twist/dualize recipe reaching it."""
    if r != 6:
        raise StrataError("only multiplicity 6 is in scope")
    recipe = []
    residue = chi % 6
    if residue > 3:
        recipe.append({"op": "dualize"})
        chi = -chi
        residue = chi % 6
    k = (residue - chi) // 6
    if k:
        recipe.append({"op": "twist", "k": k})
    return residue, recipe


def apply_recipe(P: Presentation, recipe) -> Presentation:
    """The steps of a `normalize_chi` recipe, each a twist or a dualization."""
    for step in recipe:
        P = twist(P, step["k"]) if step["op"] == "twist" else dual(P)
    return P


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(P: Presentation) -> StratumLabel:
    """Label a validated presentation by its cohomology profile.

    The profile is that of P moved to chi in {0, 1, 2, 3} by the recipe of
    `normalize_chi`, and the label carries it.  Injectivity is decided
    exactly (`is_injective`): a map that is not injective raises
    InconsistentPresentationError.  Profiles outside the registry raise
    ClassifyError.

    At chi 1 the label needs End(F) = 1: a semistable sheaf of chi 1 and
    multiplicity 6 is stable, since no subsheaf can have slope 1/6 exactly,
    and a stable sheaf is simple (Huybrechts and Lehn, Cor. 1.2.8).  So
    dim End(F) = dim K - hom > 1 (`generic_stabilizer_dim`, whose
    certificates prove End(F) = 1 on the injective map) raises
    NotSemistableError.  K is the system of `minimal_presentation(P)`, the
    same sheaf with its unit pairs cancelled, so a unit summand
    O(t) -> O(t) adds nothing to it.  At the other chi semistability is
    assumed, not checked."""
    hd = hilbert(P)
    chi_bar, recipe = normalize_chi(hd.r, hd.chi)
    if not is_injective(P):
        raise InconsistentPresentationError(
            "the presentation map is not injective: its determinant is the zero form")
    Q = apply_recipe(P, recipe)
    prof = profile(Q)
    matches = [row for row in rows_for_chi(chi_bar) if row.matches(prof)]
    if len(matches) != 1:
        raise ClassifyError(
            "profile not in table: chi=%d profile=%s" % (chi_bar, prof.as_tuple()))
    row = matches[0]
    if chi_bar == 1:
        solutions, hom = _stabilizer_solutions(minimal_presentation(P), injective=True)
        if solutions - hom > 1:
            raise NotSemistableError(
                "not semistable: dim End(F) = %d, but a semistable sheaf of chi 1 is "
                "stable, hence simple" % (solutions - hom))
    return StratumLabel(chi_bar, row.id, row.codim, prof)


# ---------------------------------------------------------------------------
# side conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SideResult:
    status: str            # "pass" | "fail" | "unknown"
    reason: str = ""


_PASS = SideResult("pass")
_ORBIT_UNKNOWN = SideResult("unknown", "orbit-form membership undecided")


def _block(P, rows, cols):
    return [[P.matrix[i][j] for j in cols] for i in rows]


# The clauses of the side conditions, named as the paper names them: each
# factory takes cells (i, j) of the matrix and returns an exact predicate on
# the presentation.

def semistable(rows, cols):
    """The block is a semistable Kronecker module: `is_semistable` proves
    either verdict, by a certificate or a destabilizer."""
    return lambda P: is_semistable(KroneckerModule(_block(P, rows, cols))).kind == "semistable"


def independent(*cells):
    """The entries are linearly independent, so none is zero."""
    return lambda P: linearly_independent([P.matrix[i][j] for i, j in cells])


def span_at_least_2(*cells):
    return lambda P: coefficient_matrix(P.matrix[i][j] for i, j in cells).rank() >= 2


def coprime(a, b):
    """Both entries are nonzero and their gcd is a constant."""
    def holds(P):
        f, g = (P.matrix[i][j] for i, j in (a, b))
        return not f.is_zero() and not g.is_zero() and form_gcd(f, g).degree == 0
    return holds


def not_dividing(a, b):
    """Entry a is nonzero and does not divide entry b."""
    def holds(P):
        f, g = (P.matrix[i][j] for i, j in (a, b))
        return not f.is_zero() and not divides(f, g)
    return holds


def nonzero(i, j):
    return lambda P: not P.matrix[i][j].is_zero()


def pencil_block(rows, cols):
    return lambda P: pencil_block_failure(_block(P, rows, cols)) is None


# The side condition of each row, by (chi, id): its clauses in the order they
# are checked.  _ORBIT_UNKNOWN marks membership in an orbit of normal forms,
# which no clause decides.  chi 3 X_0 and X_7 have no entry and pass.
_SIDE_CONDITIONS = {
    (1, "X_0"): (semistable(range(4), range(5)),),
    (1, "X_1"): (_ORBIT_UNKNOWN,),
    (1, "X_2"): (independent((2, 3), (3, 3)), pencil_block((0, 1), (0, 1, 2))),
    (1, "X_3"): (independent((0, 0), (0, 1)), semistable((1, 2, 3), (2, 3))),
    (1, "X_4"): (coprime((0, 0), (0, 1)),),
    (1, "X_5"): (not_dividing((0, 1), (1, 1)),),
    (2, "X_0"): (_ORBIT_UNKNOWN,),
    (2, "X_1"): (semistable((0, 1, 2), (0, 1, 2, 3)), independent((3, 4), (4, 4))),
    (2, "X_2"): (_ORBIT_UNKNOWN,),
    (2, "X_3"): (not_dividing((0, 1), (0, 0)), semistable((1, 2, 3), (2, 3))),
    (2, "X_4"): (_ORBIT_UNKNOWN,),
    (2, "X_5"): (independent((0, 0), (0, 1)), not_dividing((1, 2), (2, 2))),
    (2, "X_6"): (independent((0, 1), (1, 1)),),
    (3, "X_1"): (span_at_least_2((0, 0), (0, 1), (0, 2)),
                 span_at_least_2((1, 3), (2, 3), (3, 3)), _ORBIT_UNKNOWN),
    (3, "X_2"): (semistable((0, 1), (0, 1, 2)), semistable((2, 3, 4), (3, 4))),
    (3, "X_3"): (semistable(range(4), (1, 2, 3)),),
    (3, "X_3D"): (semistable((0, 1, 2), range(4)),),
    (3, "X_4"): (nonzero(0, 1),),
    (3, "X_5"): (not_dividing((0, 1), (0, 0)), not_dividing((1, 2), (2, 2))),
    (3, "X_6"): (independent((0, 0), (0, 1)), independent((1, 2), (2, 2))),
    (0, "X_0"): (semistable(range(6), range(6)),),
    (0, "X_1"): (semistable((0, 1, 2), (1, 2, 3)),),
    (0, "X_2"): (coprime((0, 1), (1, 1)),),
    (0, "X_3"): (semistable((0, 1, 2), (1, 2)),),
    (0, "X_3D"): (semistable((0, 1), (0, 1, 2)),),
    (0, "X_4"): (nonzero(0, 1),),
}


def side_condition(P: Presentation, row: StratumRow) -> SideResult:
    """The row's clauses in order: the first that fails gives `fail`,
    reaching the orbit marker gives `unknown`, and otherwise the row passes.
    A nonzero forced zero cell fails first."""
    if P.source != row.source or P.target != row.target:
        raise StrataError("presentation shape does not match row (chi=%d, %s)"
                          % (row.chi, row.id))
    if not all(P.matrix[i][j].is_zero() for i, j in row.zero_cells):
        return SideResult("fail", "forced zero cell is nonzero")
    for clause in _SIDE_CONDITIONS.get((row.chi, row.id), ()):
        if clause is _ORBIT_UNKNOWN:
            return clause
        if not clause(P):
            return SideResult("fail")
    return _PASS


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

# Random candidates generate draws before it gives up on a row.
MAX_ATTEMPTS = 1000


def generate(chi: int, stratum_id: str, seed: int) -> Presentation:
    """Rejection sampling: random integer matrices of the row's shape with its
    forced zero pattern, accepted when the exact side condition does not fail
    and `is_injective` proves the map injective.  Nothing else varies: the
    zero cells cover the constant block C of `h0_omega`, so the profile of an
    injective draw is twist arithmetic, the row's own.  Draws skip validation:
    the twists are sorted and every cell has its degree."""
    row = get_row(chi, stratum_id)
    zero = set(row.zero_cells)
    rng = random.Random(derive_seed("generate", chi, stratum_id, seed))
    for _ in range(MAX_ATTEMPTS):
        matrix = []
        for i, e in enumerate(row.target):
            out = []
            for j, d in enumerate(row.source):
                deg = e - d
                if deg < 0 or (i, j) in zero:
                    out.append(Form.zero(0))
                else:
                    out.append(random_form(deg, rng, 9))
            matrix.append(out)
        P = Presentation(row.source, row.target, matrix, _checked=True)
        if side_condition(P, row).status != "fail" and is_injective(P):
            return P
    raise GenerationError(
        "no instance of (chi=%d, %s) in %d attempts (seed %d)"
        % (chi, stratum_id, MAX_ATTEMPTS, seed))


# ---------------------------------------------------------------------------
# dimension audit
# ---------------------------------------------------------------------------

@dataclass
class DimAudit:
    chi: int
    id: str
    codim: int
    dimW: int
    dimG: int
    dimX: int
    check: bool
    forced_zero_dims: int
    stabilizer_dim: int
    dimX_corrected: int
    check_corrected: bool

    def to_json(self):
        out = asdict(self)
        out["stratum"] = out.pop("id")
        return out


def _stabilizer_layout(P: Presentation):
    """The map (gA, gB) -> gB . phi - phi . gA laid out for one row per
    unknown: (ncols, terms, blocks).

    The unknowns are the monomials m of the blocks gA[a][b]: O(d_b) -> O(d_a)
    and gB[a][b]: O(e_b) -> O(e_a) of nonnegative degree.  gB[a][b] = m puts
    m * phi[b][j] into cell (a, j) and gA[a][b] = m puts -phi[i][a] * m into
    cell (i, b).  A reached cell of degree t gets the (t + 1)^2 columns of
    its exponent grid, X^a*Y^b*Z^c at b(t + 1) + c, so multiplying by
    m = (., b_m, c_m) shifts the columns of an entry's terms by
    b_m(t + 1) + c_m; columns that no monomial reaches stay zero, which
    changes no rank.  Each block is (the basis of its monomials, its sign,
    and the (column offset, grid width, i, j) of each cell that it reaches
    through phi[i][j]); terms[i][j] lists the (b, c, coefficient) of the
    nonzero terms of phi[i][j].

    The system laid out is that of L . phi, L the lcm of the denominators of
    the coefficients of phi: a nonzero scalar, so the solution space is the
    same, and every coefficient is an int."""
    d, e = P.source, P.target
    terms = [[[(b, c, x) for (_, b, c), x in zip(monomials(f.degree), f.coeffs) if x]
              for f in row] for row in P.matrix]
    # by type, not by L > 1: a Fraction of denominator 1 must become an int too
    if not all({int}.issuperset(map(type, f.coeffs)) for row in P.matrix for f in row):
        L = lcm(*[x.denominator for row in terms for ts in row for _, _, x in ts])
        terms = [[[(b, c, x.numerator * (L // x.denominator)) for b, c, x in ts] for ts in row]
                 for row in terms]
    offset, ncols = {}, 0
    for i in range(len(e)):
        for j in range(len(d)):
            if (any(terms[k][j] for k in range(len(e)) if e[k] <= e[i])
                    or any(terms[i][k] for k in range(len(d)) if d[k] >= d[j])):
                offset[i, j] = ncols
                ncols += (e[i] - d[j] + 1) ** 2
    blocks = []
    for sign, t in ((-1, d), (1, e)):
        for b in range(len(t)):
            for a in range(len(t)):
                if t[a] >= t[b]:
                    blocks.append((monomials(t[a] - t[b]), sign,
                                   [(offset[a, j], e[a] - d[j] + 1, b, j)
                                    for j in range(len(d)) if terms[b][j]] if sign > 0
                                   else [(offset[i, b], e[i] - d[b] + 1, i, a)
                                         for i in range(len(e)) if terms[i][a]]))
    return ncols, terms, blocks


def _stabilizer_masks(terms, blocks):
    """The laid-out rows modulo 2, one int per unknown whose bit j is its
    entry j mod 2: each reached cell ORs in the mask of the entry's odd terms
    on the cell's grid, shifted by the unknown's monomial."""
    odd = {}
    masks = []
    for basis, _, reached in blocks:
        cells = []
        for o, w, i, j in reached:
            mask = odd.get((i, j, w))
            if mask is None:
                mask = odd[i, j, w] = sum(1 << (b * w + c) for b, c, x in terms[i][j] if x & 1)
            if mask:
                cells.append((o, w, mask))
        for _, b, c in basis:
            x = 0
            for o, w, mask in cells:
                x |= mask << (o + b * w + c)
            masks.append(x)
    return masks


def _stabilizer_rows(ncols, terms, blocks):
    """The laid-out rows, one list of ints per unknown."""
    rows = []
    for basis, sign, reached in blocks:
        cells = [(o, w, [(b * w + c, sign * x) for b, c, x in terms[i][j]])
                 for o, w, i, j in reached]
        for _, b, c in basis:
            row = [0] * ncols
            for o, w, ts in cells:
                o += b * w + c
                for n, x in ts:
                    row[o + n] = x
            rows.append(row)
    return rows


def _stabilizer_solutions(P: Presentation, injective: bool):
    """(dim K, hom): K the solution space of gB . phi = phi . gA, and
    hom = dim Hom(B, A) = the sum of space_dim(d_j - e_i).  `injective` says
    that phi is known to be injective, which makes the certificates of
    `generic_stabilizer_dim` apply: a modular rank of nvars - 1 - hom proves
    dim K = hom + 1.  Otherwise the exact rank decides."""
    ncols, terms, blocks = _stabilizer_layout(P)
    nvars = sum(len(basis) for basis, _, _ in blocks)
    hom = sum(space_dim(dj - ei) for ei in P.target for dj in P.source)
    bound = nvars - 1 - hom
    if injective and gf2_rank(_stabilizer_masks(terms, blocks)) == bound:
        return hom + 1, hom
    rows = _stabilizer_rows(ncols, terms, blocks)
    if injective and mod_rank(rows, CERTIFICATE_PRIME) == bound:
        return hom + 1, hom
    return nvars - QMatrix(nvars, ncols, rows).rank(), hom


def generic_stabilizer_dim(P: Presentation) -> int:
    """Dimension of the stabilizer of P in the symmetry group, computed exactly
    as the solution space of gB . phi = phi . gA minus the global scalar.

    The unknowns are the blocks gA[a][b]: O(d_b) -> O(d_a) and
    gB[a][b]: O(e_b) -> O(e_a) of nonnegative degree; the certificates and
    the exact rank take the same system, one row per unknown
    (`_stabilizer_layout`).

    Theorem: if phi is injective with cokernel F, the solution space K has
    dimension dim End(F) + hom, hom = dim Hom(B, A) = sum of
    space_dim(d_j - e_i).  Every endomorphism of F lifts to a pair (gA, gB),
    since Ext^1(B, A) = 0 on P^2 (H^1(O(t)) = 0 for every t); the pairs that
    induce zero on F are exactly (h phi, phi h) for h in Hom(B, A), and
    h -> (h phi, phi h) is injective because phi is.  So the stabilizer has
    dimension hom + dim End(F) - 1 >= hom, with equality iff F is simple.

    Certificates (`_stabilizer_solutions`, shared with `classify`): the rank
    of the system modulo a prime is at most its rank over Q (a minor that
    is nonzero mod p is nonzero over Q; mod 2, a minor that is odd), which
    by the theorem is at most nvars - 1 - hom.  So when `is_injective`
    proves phi injective and a modular rank reaches nvars - 1 - hom, the
    stabilizer is exactly hom.  The rows are those of L . phi, L a scalar,
    all ints.  The rank over GF(2) is tried first, on one int per row
    written from the odd coefficients (`_stabilizer_masks`, `gf2_rank`);
    only when it falls short are the int rows built, for the rank modulo
    CERTIFICATE_PRIME, which `mod_rank` takes as they are.  When that falls
    short too (phi not injective, F not simple, both primes unlucky, or each
    divides L, which zeroes the entries it does not divide) the exact rank
    decides."""
    if not P.source and not P.target:
        return 0
    injective = len(P.source) == len(P.target) and is_injective(P)
    return _stabilizer_solutions(P, injective)[0] - 1


def dim_audit(row: StratumRow, seed: int = 0) -> DimAudit:
    """dimW and dimG from the twist lists; the corrected stratum dimension
    additionally subtracts forced zero cells and adds the generic stabilizer,
    both computed exactly."""
    d, e = row.source, row.target
    dimW = sum(space_dim(ei - dj) for ei in e for dj in d)
    dimG = (sum(space_dim(b - a) for a in d for b in d)
            + sum(space_dim(b - a) for a in e for b in e) - 1)
    dimX = dimW - dimG
    z = sum(space_dim(e[i] - d[j]) for i, j in row.zero_cells)
    P = generate(row.chi, row.id, seed=derive_seed("audit", row.chi, row.id, seed))
    stab = generic_stabilizer_dim(P)
    corrected = dimW - z - dimG + stab
    return DimAudit(
        chi=row.chi, id=row.id, codim=row.codim,
        dimW=dimW, dimG=dimG, dimX=dimX,
        check=(dimX == MODULI_DIM - row.codim),
        forced_zero_dims=z,
        stabilizer_dim=stab,
        dimX_corrected=corrected,
        check_corrected=(corrected == MODULI_DIM - row.codim),
    )


# ---------------------------------------------------------------------------
# per-row verification
# ---------------------------------------------------------------------------

# (criterion named as in stability.CRITERIA, expected verdict kind)
_STABILITY_SPOT_CHECKS = {
    (1, "X_4"): ("two-by-two", "inconclusive"),
    (1, "X_5"): ("two-by-two", "stable"),
    (2, "X_2"): ("minor-gcd", "stable"),
    (2, "X_4"): ("pencil-block", "stable"),
    (3, "X_4"): ("two-by-two", "stable"),
    (0, "X_2"): ("two-by-two", "stable"),
    (0, "X_3"): ("minor-gcd", "stable"),
    (0, "X_4"): ("two-by-two", "stable"),
}


@dataclass
class RowReport:
    chi: int
    id: str
    attempted: int
    accepted: int
    hilbert_matches: int
    profile_matches: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.accepted == self.attempted
                and self.hilbert_matches == self.attempted
                and self.profile_matches == self.attempted
                and not self.failures)

    def to_json(self):
        out = asdict(self)
        out["stratum"] = out.pop("id")
        out["passed"] = self.passed
        return out


def verify_row(chi: int, stratum_id: str, samples: int, seed: int) -> RowReport:
    """Generate instances and check on each one its Hilbert data, profile,
    bounds and stability spot check.  Serre duality needs no check: both sides
    are twist arithmetic, equal as h0(O(k)) + h0(O(-3-k)) = chi(O(k))."""
    row = get_row(chi, stratum_id)
    report = RowReport(chi=chi, id=stratum_id, attempted=samples, accepted=0,
                       hilbert_matches=0, profile_matches=0)
    spot = _STABILITY_SPOT_CHECKS.get((chi, stratum_id))
    for k in range(samples):
        sample_seed = derive_seed("verify", chi, stratum_id, seed, k)
        try:
            P = generate(chi, stratum_id, seed=sample_seed)
        except GenerationError as exc:
            report.failures.append({"sample": k, "seed": sample_seed,
                                    "check": "generate", "detail": str(exc)})
            continue
        report.accepted += 1
        hd = hilbert(P)
        prof = profile(P)
        if (hd.r, hd.chi) == (6, chi):
            report.hilbert_matches += 1
        else:
            report.failures.append({"sample": k, "seed": sample_seed,
                                    "check": "hilbert", "detail": str((hd.r, hd.chi))})
        if row.matches(prof):
            report.profile_matches += 1
        else:
            report.failures.append({"sample": k, "seed": sample_seed,
                                    "check": "profile", "detail": str(prof.as_tuple())})
        bounds = bounds_check(BoundsQuery(6, chi, h0_Fm1=prof.h0_Fm1,
                                          h1_F=prof.h1_F, h1_F1=prof.h1_F1))
        if not bounds.allowed:
            report.failures.append({"sample": k, "seed": sample_seed,
                                    "check": "bounds", "detail": bounds.rule})
        if spot is not None:
            criterion, expected = spot
            verdict = CRITERIA[criterion](P)
            if verdict.kind != expected:
                report.failures.append({"sample": k, "seed": sample_seed,
                                        "check": "stability_" + criterion.replace("-", "_"),
                                        "detail": verdict.kind + ": " + verdict.reason})
    return report
