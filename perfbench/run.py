"""End-to-end benchmark of planesheaves, stdlib only, one process, no threads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload points_claims --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``points_claims``, ``strata_tables`` and
``cli_calls``.  Each is a closed loop with one client: the next item starts
only when the last one has returned.  A run repeats whole rounds of the
workload's item list until ``--seconds`` have passed, so every run measures
the same mix.  Every item's output is checked; a failed check or an exception
counts as a failed item and is never dropped.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh import of the
package, registry load and input generation; the median of SETUP_REPEATS
set-ups), ``items_per_ref``, ``item_p50_ref`` and ``peak_rss_mb``.  Item
times are gated in reference units: each item's time is divided by the time
of a fixed reference kernel (``reference_kernel``) measured every REF_EVERY_S
seconds, which cancels the speed drift of a shared host.  ``items_per_ref``
is successful items per reference unit of time spent inside items;
``item_p50_ref`` is the median item time in reference units.  The same
figures in seconds (``items_per_s``, ``item_p50_ms``), the tail percentiles
and the failed ratio are printed as information: p90 only when a run has at
least 100 items, p99 only with at least 1000.

``--trace 1`` runs one round without the tracer, then installs span
wrappers (``tracer.py``) and repeats traced rounds.  It reports per-layer
calls and self time per round, and ``trace.overhead_ratio``: traced round
time over untraced round time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``perfbench/out/<workload>-seed<n>-trace<t>.json`` (environment, metrics,
fingerprint, failures) and, when traced, the spans as
``perfbench/out/<workload>-seed<n>.spans.json.gz``.

The output fingerprint is a sha256 over the canonical outputs of the first
round.  ``fingerprints.json`` records it for seed 1; a mismatch is reported
but does not fail the run, so that a deliberate change of behaviour stays
possible.

The harness has its own smoke test: ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from workloads import BUILDERS, MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"
SETUP_REPEATS = 7
REF_EVERY_S = 0.5
PACKAGE = "planesheaves"


def load_package():
    """Import the package from scratch (the module objects of any earlier
    import are dropped), so each set-up pays the full import cost."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError("imported %s from %s, not from %s" % (PACKAGE, pkg.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module(PACKAGE + "." + m) for m in MODULES})


def set_up(workload, seed, tiny, repeats):
    """Run the set-up ``repeats`` times; return the last modules and items and
    every set-up time.  The count is fixed because each fresh import leaves
    garbage behind that raises the peak RSS."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        mods = load_package()
        items = BUILDERS[workload](mods, random.Random(seed), tiny)
        times.append(perf_counter() - t0)
    return mods, items, times


@dataclass
class Tally:
    durations: list = field(default_factory=list)
    ref_units: list = field(default_factory=list)    # durations / reference time
    ref_samples: list = field(default_factory=list)
    ref_at: float = float("-inf")
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    first_round: list = None       # canonical outputs of round 0
    rounds: int = 0
    round_times: list = field(default_factory=list)


def reference_kernel():
    """Seconds taken by a fixed pure-Python job that shares nothing with the
    program: Gauss-Jordan elimination of three 14 x 14 integer matrices over
    Fraction, the arithmetic the program spends most of its time in.  The
    host of a shared VM speeds up and slows down by tens of percent within
    minutes; item times divided by this reference cancel most of that drift."""
    rng = random.Random(7)
    n = 14
    t0 = perf_counter()
    for _ in range(3):
        m = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for i in range(n):
                if i != c and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return perf_counter() - t0


@contextmanager
def untraced(tracer):
    """Pause span recording while the benchmark checks an output."""
    if tracer is None:
        yield
        return
    tracer.recording = False
    try:
        yield
    finally:
        tracer.recording = True


def check(item, result, tally, index, tracer):
    """Canonical text of the item's output; records a failure when the
    observation differs from the expected value or from the first round."""
    try:
        with untraced(tracer):
            actual, text = item.observe(result)
    except Exception:
        tally.failures.append({"item": item.label, "error": traceback.format_exc()})
        tally.failed += 1
        return "error"
    problem = None
    if actual != item.expect:
        problem = "expected %r, got %r" % (item.expect, actual)
    elif tally.first_round is not None and tally.first_round[index] != text:
        problem = "output differs from the first round"
    if problem:
        tally.failed += 1
        tally.failures.append({"item": item.label, "error": problem})
    return text


def run_round(items, tally, tracer=None, reference=False):
    """One pass over the items.  With ``reference``, the reference kernel is
    timed before an item whenever REF_EVERY_S have passed since the last time."""
    canon = []
    round_start = perf_counter()
    for index, item in enumerate(items):
        if reference and perf_counter() - tally.ref_at >= REF_EVERY_S:
            tally.ref_samples.append(reference_kernel())
            tally.ref_at = perf_counter()
        tally.attempted += 1
        t0 = perf_counter()
        try:
            result = item.call()
            raised = False
        except Exception:
            raised = True
            tally.failed += 1
            tally.failures.append({"item": item.label, "error": traceback.format_exc()})
        duration = perf_counter() - t0
        tally.durations.append(duration)
        if reference:
            tally.ref_units.append(duration / tally.ref_samples[-1])
        canon.append("error" if raised else check(item, result, tally, index, tracer))
    if tally.first_round is None:
        tally.first_round = canon
    tally.rounds += 1
    tally.round_times.append(perf_counter() - round_start)


def run_rounds(items, seconds, tally, tracer=None, start=None, reference=False):
    """Whole rounds until ``seconds`` have passed since ``start``; at least one."""
    start = perf_counter() if start is None else start
    while True:
        run_round(items, tally, tracer, reference)
        if perf_counter() - start >= seconds:
            return


def fingerprint(canon):
    h = hashlib.sha256()
    for text in canon:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
        # information only, never gated (ROADMAP: line count next to time)
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / PACKAGE).rglob("*.py"))),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally, setup_times):
    """The gated metrics.  Item times enter only in reference units, which
    hold still while the raw times of the same code drift by a fifth."""
    ok = tally.attempted - tally.failed
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "items_per_ref": metric(ok / sum(tally.ref_units), "1/ref"),
        "item_p50_ref": metric(statistics.median(tally.ref_units), "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def informational(tally, timed=True):
    """Metrics that cannot be gated: the failed ratio (zero when all is well)
    and, for a timed run, the reference time and the tails that need a
    minimum sample count."""
    n = len(tally.durations)
    info = {"items": metric(n, "count"),
            "failed_ratio": metric(tally.failed / tally.attempted, "ratio")}
    if not timed:
        return info
    info["items_per_s"] = metric((n - tally.failed) / sum(tally.durations), "1/s")
    info["item_p50_ms"] = metric(statistics.median(tally.durations) * 1e3, "ms")
    if n >= 100:
        info["item_p90_ms"] = metric(statistics.quantiles(tally.durations, n=10)[-1] * 1e3, "ms")
    if n >= 1000:
        info["item_p99_ms"] = metric(statistics.quantiles(tally.durations, n=100)[-1] * 1e3, "ms")
    info["reference_ms"] = metric(statistics.median(tally.ref_samples) * 1e3, "ms")
    return info


def per_layer(tracer, tally, baseline_round_s):
    from tracer import LAYER_SPANS

    by_name, attempts = tracer.summary()
    rounds = tally.rounds - 1          # round 0 ran untraced
    out = {}
    for key, names in LAYER_SPANS.items():
        calls = sum(by_name.get(n, (0, 0.0))[0] for n in names)
        self_s = sum(by_name.get(n, (0, 0.0))[1] for n in names)
        out[key + ".calls"] = metric(calls / rounds, "count")
        out[key + ".self_s"] = metric(self_s / rounds, "s")
    for mod in MODULES:
        out[mod + ".self_s"] = metric(
            sum(s for n, (_, s) in by_name.items() if n.startswith(mod + ".")) / rounds, "s")
    out["linalg.cells"] = metric(tracer.cells / rounds, "count")
    kron_calls = by_name["kronecker.is_semistable"][0]
    out["kronecker.definite_ratio"] = metric(
        tracer.definite / kron_calls if kron_calls else 0.0, "ratio")
    gen_calls = by_name["strata.generate"][0]
    out["strata.generate.attempts"] = metric(attempts / rounds, "count")
    out["strata.generate.accept_ratio"] = metric(gen_calls / attempts if attempts else 0.0,
                                                 "ratio")
    traced_round_s = statistics.mean(tally.round_times[1:])
    out["trace.overhead_ratio"] = metric(traced_round_s / baseline_round_s, "ratio")
    return out, by_name


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, tiny=False):
    """Run one benchmark; ``tiny`` shrinks every workload for the smoke test."""
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write("perfbench: no %s package under %s; run from a source checkout\n"
                         % (PACKAGE, SRC))
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    env = environment(args.seed)
    print("perfbench %s seed=%d seconds=%d trace=%d%s"
          % (args.workload, args.seed, args.seconds, args.trace, " (tiny)" if tiny else ""))
    print("env " + json.dumps(env, sort_keys=True))

    mods, items, setup_times = set_up(args.workload, args.seed, tiny,
                                      1 if args.trace or tiny else SETUP_REPEATS)
    tally = Tally()
    tracer = None
    if args.trace:
        from tracer import install

        start = perf_counter()
        run_round(items, tally)
        baseline = tally.round_times[0]
        tracer = install([getattr(mods, m) for m in MODULES])
        tracer.recording = True
        run_rounds(items, args.seconds, tally, tracer, start)
        tracer.recording = False
        metrics, by_name = per_layer(tracer, tally, baseline)
        print_metrics("per-layer metrics (per traced round, %d traced rounds of %d items):"
                      % (tally.rounds - 1, len(items)), metrics)
        top = sorted(by_name.items(), key=lambda kv: -kv[1][1])[:12]
        print("largest self time (all traced rounds):")
        for name, (calls, self_s) in top:
            print("  %-48s %10.4f s %10d calls" % (name, self_s, calls))
    else:
        run_rounds(items, args.seconds, tally, reference=True)
        metrics = end_to_end(tally, setup_times)
        print_metrics("end-to-end metrics (%d rounds of %d items, %d set-ups):"
                      % (tally.rounds, len(items), len(setup_times)), metrics)
    info = informational(tally, timed=not args.trace)
    print_metrics("information only:", info)

    digest = fingerprint(tally.first_round)
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    if tiny:
        status = "tiny run, not compared"
    elif args.seed != recorded.get("seed"):
        status = "no recorded fingerprint for seed %d" % args.seed
    elif recorded.get("sha256", {}).get(args.workload) == digest:
        status = "matches fingerprints.json"
    else:
        status = "MISMATCH with fingerprints.json (reported, not gated)"
    print("fingerprint sha256=%s (%s)" % (digest, status))
    for f in tally.failures[:5]:
        sys.stderr.write("FAILED %s: %s\n" % (f["item"], f["error"]))

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed) + ("-tiny" if tiny else "")
    (OUT / ("%s-trace%d.json" % (stem, args.trace))).write_text(json.dumps({
        "workload": args.workload, "env": env, "metrics": metrics, "info": info,
        "setup_times_s": setup_times, "rounds": tally.rounds, "items_per_round": len(items),
        "fingerprint": digest, "fingerprint_status": status,
        "failures": tally.failures}, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT / ("%s.spans.json.gz" % stem))

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
