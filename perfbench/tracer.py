"""Span recorder for the traced run, built entirely outside the program.

``install`` wraps every public function of the eight ``planesheaves`` modules
and every public method of the classes they define.  A wrapped function is
replaced by identity wherever the package holds a reference to it: in each
``planesheaves.*`` module namespace (including re-exports), in class
dictionaries, and in the values of module-level dicts such as the two
``_CRITERIA`` maps.  Each call records a span ``(name, start, end, parent)``
in memory; ``write`` saves them when the run ends.

Only plain Python functions are wrapped: ``lru_cache`` wrappers, properties
and dunder methods are left alone.  The recorder is installed only in the
traced process; the timed runs never import this module.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from itertools import islice
from time import perf_counter

PACKAGE = "planesheaves"

# Per-layer metric -> span names it aggregates.  IncrementalSpan.insert does
# its elimination in IncrementalSpan.reduce, so both count as span insertion.
LAYER_SPANS = {
    "linalg.span_insert": ("linalg.IncrementalSpan.insert", "linalg.IncrementalSpan.reduce"),
    "linalg.rank": ("linalg.QMatrix.rank",),
    "linalg.kernel_basis": ("linalg.QMatrix.kernel_basis",),
    "linalg.solve": ("linalg.QMatrix.solve",),
    "forms.mult_map": ("forms.mult_map",),
    "forms.form_gcd": ("forms.form_gcd",),
    "forms.parse_form": ("forms.parse_form",),
    "presentation.profile": ("presentation.profile",),
    "presentation.h0_omega": ("presentation.h0_omega",),
    "presentation.is_injective": ("presentation.is_injective",),
    "kronecker.is_semistable": ("kronecker.is_semistable",),
    "kronecker.coefficient_slices": ("kronecker.KroneckerModule.coefficient_slices",),
    "stability.minor_gcd": ("stability.minor_gcd_criterion",),
    "stability.two_by_two": ("stability.two_by_two_criterion",),
    "stability.pencil_block": ("stability.pencil_block_criterion",),
    "strata.generate": ("strata.generate",),
    "strata.classify": ("strata.classify",),
    "strata.generic_stabilizer_dim": ("strata.generic_stabilizer_dim",),
    "strata.dim_audit": ("strata.dim_audit",),
    "points.minimal_resolution": ("points.minimal_resolution",),
    "points.ideal_slice": ("points.ideal_slice",),
    "points.predicates": ("points.colinear_triple_exists", "points.colinear_subset_exists",
                          "points.contained_in_curve_of_degree",
                          "points.subset_on_curve_exists"),
    "cli.main": ("cli.main",),
}

# QMatrix methods that run a full elimination; linalg.cells adds rows x cols
# of the matrix each one eliminates (solve adds its right-hand side column).
_ELIMINATIONS = {"linalg.QMatrix." + m: extra for m, extra in
                 (("rank", 0), ("rref", 0), ("kernel_basis", 0), ("det", 0),
                  ("rank_mod_p", 0), ("solve", 1))}


class Tracer:
    def __init__(self):
        self.names = []          # span name per id
        # one entry per span, kept in typed arrays so that a run of a million
        # spans stays within a few tens of megabytes
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")      # index of the enclosing span, or -1
        self.stack = []
        self.recording = False
        self.cells = 0
        self.definite = 0        # is_semistable verdicts that are not "probably"

    def name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name):
        nid = self.name_id(name)
        count_cells = name in _ELIMINATIONS
        extra_col = _ELIMINATIONS.get(name, 0)
        span_reduce = name == "linalg.IncrementalSpan.reduce"
        verdict = name == "kronecker.is_semistable"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if count_cells:
                self.cells += args[0].rows * (args[0].cols + extra_col)
            elif span_reduce:
                self.cells += len(args[0].rows) * args[0].length
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                self.stack.pop()
            if verdict and result.kind != "probably_semistable":
                self.definite += 1
            return result

        return traced

    def summary(self):
        """Calls and self time per span name, plus is_injective calls made
        directly under generate."""
        n = len(self.names)
        calls = [0] * n
        child = array("d", bytes(8 * len(self.span_name)))
        attempts = 0
        inject = self.names.index("presentation.is_injective")
        gen = self.names.index("strata.generate")
        for nid, start, end, parent in zip(self.span_name, self.span_start, self.span_end,
                                           self.span_parent):
            calls[nid] += 1
            if parent >= 0:
                child[parent] += end - start
                if nid == inject and self.span_name[parent] == gen:
                    attempts += 1
        self_time = [0.0] * n
        for nid, start, end, c in zip(self.span_name, self.span_start, self.span_end, child):
            self_time[nid] += (end - start) - c
        by_name = {name: (calls[i], self_time[i]) for i, name in enumerate(self.names)}
        return by_name, attempts

    def write(self, path):
        """All spans as gzipped JSON: names plus [name id, start, end, parent]."""
        spans = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"names": %s, "spans": [' % json.dumps(self.names))
            sep = ""
            while True:
                chunk = ", ".join("[%d, %r, %r, %d]" % span for span in islice(spans, 10000))
                if not chunk:
                    break
                fh.write(sep + chunk)
                sep = ", "
            fh.write("]}\n")


def _public_functions(mod):
    """(span name, function) for every public function and public method
    defined in the module."""
    layer = mod.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(mod).items():
        if attr.startswith("_"):
            continue
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
            yield "%s.%s" % (layer, attr), obj
        elif isinstance(obj, type) and obj.__module__ == mod.__name__:
            for mattr, member in vars(obj).items():
                if mattr.startswith("_"):
                    continue
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if isinstance(fn, types.FunctionType):
                    yield "%s.%s.%s" % (layer, obj.__name__, mattr), fn


def _rewrap(member, replacement):
    if isinstance(member, classmethod):
        return classmethod(replacement)
    if isinstance(member, staticmethod):
        return staticmethod(replacement)
    return replacement


def install(modules):
    """Wrap the public functions of the given modules; return the Tracer."""
    tracer = Tracer()
    wrappers = {}            # id of the original function -> its wrapper
    for mod in modules:
        for name, fn in _public_functions(mod):
            wrappers[id(fn)] = tracer.wrap(fn, name)

    def swap(obj):
        return wrappers.get(id(obj)) if isinstance(obj, types.FunctionType) else None

    package_modules = [m for n, m in sys.modules.items()
                       if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod in package_modules:
        for attr, obj in list(vars(mod).items()):
            new = swap(obj)
            if new is not None:
                setattr(mod, attr, new)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = swap(value)
                    if new is not None:
                        obj[key] = new
            elif isinstance(obj, type) and obj.__module__.startswith(PACKAGE):
                for mattr, member in list(vars(obj).items()):
                    fn = (member.__func__ if isinstance(member, (classmethod, staticmethod))
                          else member)
                    new = swap(fn)
                    if new is not None:
                        setattr(obj, mattr, _rewrap(member, new))
    return tracer
