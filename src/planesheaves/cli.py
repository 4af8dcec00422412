"""Command-line front end: JSON in, JSON (or markdown) out.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 classification miss, 4 precondition failure.  A subcommand raises;
`main` maps the error to its code through `_EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .forms import FormError, ParseError, parse_form
from .kronecker import KroneckerError, KroneckerModule, is_semistable
from .points import (CLAIMS, PointConfig, PointError, flag_pair_presentation,
                     minimal_resolution, verify_point_claim)
from .presentation import Presentation, PresentationError, dual, hilbert, is_injective
from .stability import CRITERIA, BoundsQuery, bounds_check
from .strata import (ClassifyError, GenerationError, MODULI_DIM, REGISTRY,
                     StrataError, classify, dim_audit, generate, normalize_chi,
                     verify_row)

DEFAULT_SEED = 123456789

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CLASSIFY = 3
EXIT_PRECONDITION = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# The exit code of each error a subcommand raises, besides CliError, which
# carries its own.  The first match wins, so a subclass comes before its base.
# ValueError is not here: every class below subclasses it, and so would an
# internal bug, which must crash instead.
_EXIT_CODES = (
    (GenerationError, EXIT_VERIFY),
    (ClassifyError, EXIT_CLASSIFY),
    ((PresentationError, StrataError, KroneckerError, PointError), EXIT_PRECONDITION),
)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text, out_dir, name, show=True):
    """Print text (unless not `show`) and, given --out-dir, save the same
    bytes there as `name`."""
    if show:
        sys.stdout.write(text)
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        Path(out_dir, name).write_text(text)


def _emit(obj, out_dir, name):
    _write(_json_text(obj), out_dir, name)


def _read_input(arg):
    if arg is None:
        raise CliError(EXIT_PARSE, "missing --input")
    if arg == "-":
        return sys.stdin.read()
    text = arg.strip()
    if text.startswith("{"):
        return text
    try:
        return Path(arg).read_text()
    except OSError as exc:
        raise CliError(EXIT_PARSE, "cannot read input: %s" % exc)


def _load_presentation(arg) -> Presentation:
    try:
        return Presentation.from_json(json.loads(_read_input(arg)))
    except (json.JSONDecodeError, ParseError, PresentationError, FormError) as exc:
        raise CliError(EXIT_PARSE, "bad presentation input: %s" % exc)


def _load_points(arg) -> PointConfig:
    try:
        return PointConfig.from_json(json.loads(_read_input(arg)))
    except (json.JSONDecodeError, ParseError, PointError, ValueError) as exc:
        raise CliError(EXIT_PARSE, "bad point input: %s" % exc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    P = _load_presentation(args.input)
    hd = hilbert(P)
    label = classify(P)
    _emit({
        "chi": label.chi,
        "stratum": label.id,
        "codim": label.codim,
        "profile": list(label.profile.as_tuple()),
        "hilbert": {"r": hd.r, "chi": hd.chi},
        "normalization": normalize_chi(hd.r, hd.chi)[1],
    }, args.out_dir, "classify.json")
    return EXIT_OK


def cmd_hilbert(args):
    P = _load_presentation(args.input)
    hd = hilbert(P)
    if not is_injective(P):
        raise CliError(EXIT_PRECONDITION, "the presentation map is not injective")
    _emit({"r": hd.r, "chi": hd.chi, "polynomial": hd.as_text()},
          args.out_dir, "hilbert.json")
    return EXIT_OK


def cmd_dual(args):
    P = _load_presentation(args.input)
    _emit(dual(P).to_json(), args.out_dir, "dual.json")
    return EXIT_OK


def cmd_gen(args):
    P = generate(args.chi, args.stratum, seed=args.seed)
    _emit(P.to_json(), args.out_dir, "gen.json")
    return EXIT_OK


def cmd_kron_check(args):
    P = _load_presentation(args.input)
    K = KroneckerModule.from_presentation(P)
    verdict = is_semistable(K, seed=args.seed)
    out = {"kind": verdict.kind}
    if verdict.witness is not None:
        out["witness"] = verdict.witness.to_json()
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate.to_json()
    _emit(out, args.out_dir, "kron-check.json")
    return EXIT_OK


def cmd_stability(args):
    P = _load_presentation(args.input)
    hilbert(P)
    if not is_injective(P):
        raise CliError(EXIT_PRECONDITION, "the presentation map is not injective")
    if args.criterion == "auto":
        for name in ("two-by-two", "minor-gcd"):
            verdict = CRITERIA[name](P)
            if verdict.kind != "inconclusive":
                break
    else:
        verdict = CRITERIA[args.criterion](P)
    _emit(verdict.to_json(), args.out_dir, "stability.json")
    return EXIT_OK


def cmd_bounds(args):
    try:
        query = BoundsQuery(r=6, chi=args.chi, h0_Fm1=args.h0_fm1,
                            h1_F=args.h1_f, h1_F1=args.h1_f1)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    _emit(bounds_check(query).to_json(), args.out_dir, "bounds.json")
    return EXIT_OK


def cmd_dims(args):
    rows = [r for r in REGISTRY if args.chi is None or r.chi == args.chi]
    audits = [dim_audit(r) for r in rows]
    payload = {"moduli_dimension": MODULI_DIM, "rows": [a.to_json() for a in audits]}
    if args.format == "markdown":
        _write(_dims_markdown(audits), args.out_dir, "dims.md")
    else:
        _emit(payload, args.out_dir, "dims.json")
    return EXIT_OK if all(a.check_corrected for a in audits) else EXIT_VERIFY


def _dims_markdown(audits) -> str:
    lines = ["| chi | stratum | dimW | dimG | dimW-dimG | zeros | stab | corrected | 37-codim | ok |",
             "|-----|---------|------|------|-----------|-------|------|-----------|----------|----|"]
    for a in audits:
        lines.append("| %d | %s | %d | %d | %d | %d | %d | %d | %d | %s |" % (
            a.chi, a.id, a.dimW, a.dimG, a.dimX, a.forced_zero_dims,
            a.stabilizer_dim, a.dimX_corrected, MODULI_DIM - a.codim,
            "yes" if a.check_corrected else "NO"))
    return "\n".join(lines) + "\n"


def cmd_points(args):
    cfg = _load_points(args.input)
    if args.points_cmd == "resolve":
        _emit(minimal_resolution(cfg).to_json(), args.out_dir, "resolve.json")
        return EXIT_OK
    if args.claim not in CLAIMS:
        raise CliError(EXIT_PARSE, "unknown claim %r (choose from %s)"
                       % (args.claim, ", ".join(sorted(CLAIMS))))
    result = verify_point_claim(args.claim, cfg)
    _emit(result.to_json(), args.out_dir, "claim.json")
    return EXIT_OK if result.matched else EXIT_VERIFY


def cmd_flag_pair(args):
    try:
        data = json.loads(_read_input(args.input))
        cfg = PointConfig.from_json(data)
        sextic = parse_form(data["sextic"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, "bad flag-pair input: %s" % exc)
    P = flag_pair_presentation(cfg, sextic)
    label = classify(P)
    _emit({"presentation": P.to_json(),
           "chi": label.chi, "stratum": label.id,
           "profile": list(label.profile.as_tuple())}, args.out_dir, "flag-pair.json")
    return EXIT_OK


def cmd_verify_tables(args):
    rows = [r for r in REGISTRY if args.chi is None or r.chi == args.chi]
    reports = []
    audits = []
    for row in rows:
        audits.append(dim_audit(row))
        if args.samples > 0:
            reports.append(verify_row(row.chi, row.id, args.samples, args.seed))
    ok = all(a.check_corrected for a in audits) and all(rep.passed for rep in reports)
    payload = {"passed": ok,
               "reports": [r.to_json() for r in reports],
               "audits": [a.to_json() for a in audits]}
    # both files are saved whichever format is printed
    _write(_tables_markdown(rows, reports, audits), args.out_dir, "verify_tables.md",
           show=args.format == "markdown")
    _write(_json_text(payload), args.out_dir, "verify_tables.json", show=args.format == "json")
    return EXIT_OK if ok else EXIT_VERIFY


def _shape_text(twists) -> str:
    parts = []
    i = 0
    twists = list(twists)
    while i < len(twists):
        j = i
        while j < len(twists) and twists[j] == twists[i]:
            j += 1
        count = j - i
        body = "O(%d)" % twists[i] if twists[i] else "O"
        parts.append(("%d" % count) + body if count > 1 else body)
        i = j
    return " + ".join(parts)


def _tables_markdown(rows, reports, audits) -> str:
    by_key = {(rep.chi, rep.id): rep for rep in reports}
    audit_by_key = {(a.chi, a.id): a for a in audits}
    out = []
    for chi in (1, 2, 3, 0):
        chi_rows = [r for r in rows if r.chi == chi]
        if not chi_rows:
            continue
        out.append("## chi = %d\n" % chi)
        cond_keys = ("h0_Fm1", "h1_F", "h0_omega") if chi else ("h0_Fm1", "h1_F", "h1_F1")
        header = {"h0_Fm1": "h0(F(-1))", "h1_F": "h1(F)",
                  "h0_omega": "h0(F⊗Om(1))", "h1_F1": "h1(F(1))"}
        out.append("| stratum | " + " | ".join(header[k] for k in cond_keys)
                   + " | resolution | codim | samples | status |")
        out.append("|" + "---|" * (len(cond_keys) + 5))
        for r in chi_rows:
            conds = [str(r.conditions.get(k, "")) for k in cond_keys]
            shape = "%s -> %s" % (_shape_text(r.source), _shape_text(r.target))
            rep = by_key.get((r.chi, r.id))
            audit = audit_by_key.get((r.chi, r.id))
            codim_ok = audit is not None and audit.check_corrected
            if rep is None:
                samples = "-"
                status = "ok" if codim_ok else "FAIL"
            else:
                samples = "%d/%d" % (rep.profile_matches, rep.attempted)
                status = "ok" if (rep.passed and codim_ok) else "FAIL"
            out.append("| %s | %s | %s | %d | %s | %s |" % (
                r.id, " | ".join(conds), shape, r.codim, samples, status))
        out.append("")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------

def _count(text) -> int:
    """A nonnegative integer argument; argparse turns the error into exit 2."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("must be a nonnegative integer: %r" % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planesheaves",
        description="Exact engine for one-dimensional plane sheaves presented "
                    "by matrices of homogeneous forms.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    registry_chis = sorted({row.chi for row in REGISTRY})

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("classify", help="stratum label and cohomology profile")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_classify)

    p = add_parser("hilbert", help="multiplicity and Euler characteristic")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_hilbert)

    p = add_parser("dual", help="transpose presentation with reflected twists")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_dual)

    p = add_parser("gen", help="generate a seeded instance of a stratum")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--stratum", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_gen)

    p = add_parser("kron-check", help="Kronecker semistability verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_kron_check)

    p = add_parser("stability", help="stability criteria verdicts")
    p.add_argument("--input", required=True)
    p.add_argument("--criterion", default="auto",
                   choices=["auto", *CRITERIA])
    p.set_defaults(func=cmd_stability)

    p = add_parser("bounds", help="excluded cohomology vector check")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--h0-fm1", type=int, default=None)
    p.add_argument("--h1-f", type=int, default=None)
    p.add_argument("--h1-f1", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = add_parser("dims", help="dimension audit of the strata registry")
    p.add_argument("--chi", type=int, default=None, choices=registry_chis)
    p.add_argument("--format", default="json", choices=["json", "markdown"])
    p.set_defaults(func=cmd_dims)

    p = add_parser("points", help="point-configuration resolutions and claims")
    p.add_argument("points_cmd", choices=["resolve", "claim"])
    p.add_argument("--input", required=True)
    p.add_argument("--claim", default=None)
    p.set_defaults(func=cmd_points)

    p = add_parser("flag-pair", help="two points on a sextic as a presentation")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_flag_pair)

    p = add_parser("verify-tables", help="regenerate and check the registry")
    p.add_argument("--chi", type=int, default=None, choices=registry_chis)
    p.add_argument("--samples", type=_count, default=25)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", default="json", choices=["json", "markdown"])
    p.set_defaults(func=cmd_verify_tables)

    return parser


# The parser main builds on its first call and reuses afterwards; argparse
# keeps no state between parse_args calls.  Not built at import, so importing
# the package stays cheap.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = exc.code if isinstance(exc, CliError) else next(
            (code for classes, code in _EXIT_CODES if isinstance(exc, classes)), None)
        if code is None:
            raise
        sys.stderr.write("error: %s\n" % exc)
        return code


if __name__ == "__main__":
    sys.exit(main())
