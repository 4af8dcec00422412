"""The three benchmark workloads, built from a seed.

A builder takes the freshly imported package modules and a seeded
``random.Random`` and returns one round: a list of ``Item``s.  The run loop in
``run.py`` repeats whole rounds.  Every item calls into the program through a
module attribute looked up at call time, so the traced run sees the wrapped
functions, and every item carries an expected value that its observation must
equal.  The expected values are written here from the paper's tables and from
constructions whose answer is known (colinear points, planted destabilizers),
not read back from the program's own checks where that can be avoided.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

MODULES = ("linalg", "forms", "presentation", "kronecker", "stability",
           "strata", "points", "cli")


@dataclass
class Item:
    """One closed-loop request.

    ``call`` is timed.  ``observe`` runs untimed on its result and returns
    ``(actual, canonical_text)``; the item fails unless ``actual == expect``.
    The canonical text feeds the output fingerprint.
    """
    label: str
    call: Callable[[], Any]
    observe: Callable[[Any], tuple]
    expect: Any


# ---------------------------------------------------------------------------
# points_claims
# ---------------------------------------------------------------------------

# Betti shapes (generator degrees, syzygy degrees) of the named claims.
CLAIM_SHAPES = {
    "len8_general": ((3, 3, 4), (5, 5)),
    "len5_general": ((2, 3, 3), (4, 4)),
    "len7_no_conic": ((3, 3, 3), (4, 5)),
    "len9_unique_cubic": ((3, 4, 4, 4), (5, 5, 5)),
    "len1": ((1, 1), (2,)),
    "len2": ((1, 2), (3,)),
    "len3_general": ((2, 2, 2), (3, 3)),
    "len3_colinear": ((1, 3), (4,)),
}

BOX = 9


def _affine_points(rng, n):
    """n distinct points with integer coordinates in the box and z = 1."""
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-BOX, BOX), rng.randint(-BOX, BOX), 1))
    return sorted(pts)


def _colinear_points(rng, n):
    """n distinct points on one random rational line."""
    while True:
        dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
        if (dx, dy) != (0, 0):
            break
    x0, y0 = rng.randint(-BOX, BOX), rng.randint(-BOX, BOX)
    steps = sorted(rng.sample(range(-6, 7), n))
    return [(x0 + k * dx, y0 + k * dy, 1) for k in steps]


def _claim_config(m, rng, claim_id, tries=500):
    claim = m.points.CLAIMS[claim_id]
    if claim_id == "len3_colinear":
        return m.points.PointConfig(_colinear_points(rng, 3))
    for _ in range(tries):
        cfg = m.points.PointConfig(_affine_points(rng, claim.size))
        if all(pred(cfg) for _, pred in claim.predicates):
            return cfg
    raise RuntimeError("no configuration satisfies the predicates of %s" % claim_id)


def _shape_of(betti):
    return (tuple(betti.generators), tuple(betti.syzygies))


DRAWS_PER_SHAPE = 2


def build_points_claims(m, rng, tiny=False):
    """Two configurations for every named claim, then two colinear
    configurations of each size 1 to 6, whose resolution (1, n), (n + 1) is
    known without computing it."""
    claim_ids = ["len1"] if tiny else list(CLAIM_SHAPES)
    sizes = [2] if tiny else list(range(1, 7))
    draws = 1 if tiny else DRAWS_PER_SHAPE
    items = []
    for cid in claim_ids:
        for k in range(draws):
            cfg = _claim_config(m, rng, cid)

            def call(cid=cid, cfg=cfg):
                return m.points.verify_point_claim(cid, cfg)

            def observe(res, cid=cid):
                found = _shape_of(res.found)
                return ((res.matched, found),
                        json.dumps({"claim": cid, "found": res.found.to_json()}, sort_keys=True))

            items.append(Item("claim:%s:%d" % (cid, k), call, observe, (True, CLAIM_SHAPES[cid])))
    for n in sizes:
        for k in range(draws):
            cfg = m.points.PointConfig(_colinear_points(rng, n))

            def call(cfg=cfg):
                return m.points.minimal_resolution(cfg)

            def observe(shape, n=n):
                return _shape_of(shape), json.dumps({"colinear": n, "found": shape.to_json()},
                                                    sort_keys=True)

            items.append(Item("colinear:%d:%d" % (n, k), call, observe, ((1, n), (n + 1,))))
    return items


# ---------------------------------------------------------------------------
# strata_tables
# ---------------------------------------------------------------------------

VERIFY_SEEDS_PER_ROW = 3
TINY_ROWS = ((3, "X_7"), (3, "X_4"))


def build_strata_tables(m, rng, tiny=False):
    """For each of the 28 rows: verify_row with one sample at several seeds,
    then one dimension audit."""
    rows = [m.strata.get_row(*key) for key in TINY_ROWS] if tiny else list(m.strata.REGISTRY)
    per_row = 1 if tiny else VERIFY_SEEDS_PER_ROW
    items = []
    for row in rows:
        tag = "chi%d:%s" % (row.chi, row.id)
        for _ in range(per_row):
            seed = rng.randrange(1 << 30)

            def call(row=row, seed=seed):
                return m.strata.verify_row(row.chi, row.id, samples=1, seed=seed)

            def observe(rep):
                return rep.passed, json.dumps(rep.to_json(), sort_keys=True)

            items.append(Item("verify:%s:%d" % (tag, seed), call, observe, True))
        seed = rng.randrange(1 << 30)

        def call(row=row, seed=seed):
            return m.strata.dim_audit(row, seed)

        def observe(audit):
            return audit.check_corrected, json.dumps(audit.to_json(), sort_keys=True)

        items.append(Item("audit:%s:%d" % (tag, seed), call, observe, True))
    return items


# ---------------------------------------------------------------------------
# cli_calls
# ---------------------------------------------------------------------------

# Stability verdicts the registry rows must produce, by CLI criterion name.
STABILITY_SPOT_CHECKS = {
    (1, "X_4"): ("two-by-two", "inconclusive"),
    (1, "X_5"): ("two-by-two", "stable"),
    (2, "X_2"): ("minor-gcd", "stable"),
    (2, "X_4"): ("pencil-block", "stable"),
    (3, "X_4"): ("two-by-two", "stable"),
    (0, "X_2"): ("two-by-two", "stable"),
    (0, "X_3"): ("minor-gcd", "stable"),
    (0, "X_4"): ("two-by-two", "stable"),
}

# (p, q, p', q'): a zero q' x p' corner in a q x p module of linear forms is a
# destabilizer whenever p'/p + q'/q > 1 (the shapes of acceptance criterion 7).
PLANTED_SHAPES = ((4, 3, 2, 2), (3, 3, 2, 2), (2, 3, 1, 3), (4, 4, 3, 2), (5, 4, 3, 3),
                  (3, 4, 2, 3), (4, 3, 3, 1), (2, 2, 1, 2), (5, 5, 4, 2), (6, 6, 4, 3))
PENCILS_PER_SHAPE = 8
TINY_CLI_ROWS = ((3, "X_7"), (1, "X_5"))


def run_cli(m, argv):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = m.cli.main(argv)
        except SystemExit as exc:      # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _canon(res):
    code, out, _ = res
    return "%s\n%s" % (code, out)


def _observe_fields(*keys):
    """Observation of a CLI call: its exit code and the named fields of its
    JSON output (lists as tuples)."""
    def observe(res):
        try:
            js = json.loads(res[1])
        except ValueError:
            js = {}
        values = tuple(tuple(v) if isinstance(v, list) else v for v in map(js.get, keys))
        return (res[0],) + values, _canon(res)
    return observe


def _random_linear(m, rng):
    return m.forms.Form(1, [Fraction(rng.randint(-9, 9)) for _ in range(3)])


def _kron_input(K):
    return json.dumps(K.to_presentation().to_json(), sort_keys=True)


def _destabilizer(m, w):
    Q = m.linalg.QMatrix
    return m.kronecker.Destabilizer(
        w["p_prime"], w["q_prime"],
        Q(len(w["source_basis"]), w["p_prime"],
          [[Fraction(x) for x in row] for row in w["source_basis"]]),
        Q(len(w["target_basis"]), len(w["target_basis"][0]) if w["target_basis"] else 0,
          [[Fraction(x) for x in row] for row in w["target_basis"]]))


def build_cli_calls(m, rng, tiny=False):
    """classify/hilbert/dual on a generated instance of every row and on its
    dual, stability on the spot-check rows, kron-check on random pencils and
    on planted-unstable blocks."""
    keys = TINY_CLI_ROWS if tiny else [(r.chi, r.id) for r in m.strata.REGISTRY]
    items = []

    def add(label, argv, observe, expect):
        items.append(Item(label, lambda argv=argv: run_cli(m, argv), observe, expect))

    for chi, sid in keys:
        row = m.strata.get_row(chi, sid)
        P = m.strata.generate(chi, sid, seed=rng.randrange(1 << 30))
        # the dual reflects the twists through -3 and negates chi; classify
        # normalizes chi back and lands on the row's dual stratum
        reflected = (tuple(sorted(-3 - e for e in row.target)),
                     tuple(sorted(-3 - d for d in row.source)))
        cases = (("", P, chi, sid, reflected),
                 (":dual", m.presentation.dual(P), -chi, row.dual_id or sid,
                  (row.source, row.target)))
        for suffix, pres, hchi, stratum, dual_twists in cases:
            text = json.dumps(pres.to_json(), sort_keys=True)
            tag = "chi%d:%s%s" % (chi, sid, suffix)
            add("classify:" + tag, ["classify", "--input", text],
                _observe_fields("chi", "stratum"), (0, chi, stratum))
            add("hilbert:" + tag, ["hilbert", "--input", text],
                _observe_fields("r", "chi"), (0, 6, hchi))
            add("dual:" + tag, ["dual", "--input", text],
                _observe_fields("source", "target"), (0,) + dual_twists)
        if (chi, sid) in STABILITY_SPOT_CHECKS:
            criterion, verdict = STABILITY_SPOT_CHECKS[(chi, sid)]
            add("stability:chi%d:%s" % (chi, sid),
                ["stability", "--criterion", criterion,
                 "--input", json.dumps(P.to_json(), sort_keys=True)],
                _observe_fields("kind"), (0, verdict))

    KM = m.kronecker.KroneckerModule
    shapes = [(2, 3)] if tiny else [(2, 3), (3, 2)] * PENCILS_PER_SHAPE
    for k, (p, q) in enumerate(shapes):
        K = KM([[_random_linear(m, rng) for _ in range(p)] for _ in range(q)])
        expected = "semistable" if m.kronecker.minors_semistable(K) else "unstable"
        add("kron-pencil:%dx%d:%d" % (q, p, k), ["kron-check", "--input", _kron_input(K)],
            _observe_fields("kind"), (0, expected))

    for p, q, pp, qq in ((2, 2, 1, 2),) if tiny else PLANTED_SHAPES:
        K = KM([[m.forms.Form.zero(1) if (i < qq and j < pp) else _random_linear(m, rng)
                 for j in range(p)] for i in range(q)])

        def obs_planted(res, K=K):
            (code, kind, witness), text = _observe_fields("kind", "witness")(res)
            ok = witness is not None and m.kronecker.verify_destabilizer(
                K, _destabilizer(m, witness))
            return (code, kind, ok), text

        add("kron-planted:%dx%d:%d,%d" % (q, p, qq, pp),
            ["kron-check", "--input", _kron_input(K)], obs_planted, (0, "unstable", True))
    return items


BUILDERS = {
    "points_claims": build_points_claims,
    "strata_tables": build_strata_tables,
    "cli_calls": build_cli_calls,
}
