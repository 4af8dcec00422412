"""Shared random builders for the test suite (all seeded, all exact)."""

from planesheaves import forms
from planesheaves.points import PointConfig


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
