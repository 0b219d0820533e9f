"""The energy spot checks one point at a time: the oracle that
``cli._sampled_energy_bounds`` must match on every seed, with the same
points checked and the same violations, in the same order."""

import math

import numpy as np

from cp2tori import cli
from cp2tori.errors import Cp2ToriError
from cp2tori.family import (AlphaTriple, Branch, ModuliPoint, derive_constants,
                            lemma3_box)


def sampled_energy_bounds_loop(seed, samples):
    """(checked, violations) of ``samples`` spot checks: each candidate is
    drawn, derived with ``derive_constants`` and checked on its own, its
    energies from ``cli.energy_mironov`` (looked up at each call, so a
    replaced one is the one used)."""
    rng = np.random.default_rng(seed)
    triples = [(2, 1, -1), (3, 1, -1), (3, 2, -1), (1, 0, -1), (2, 0, -1)]
    violations = []
    checked = 0
    while checked < samples:
        alpha = AlphaTriple(*triples[rng.integers(len(triples))])
        lo, hi = lemma3_box(alpha)
        a2v, a1v = np.sort(rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 2))
        if a1v - a2v < 1e-3 * (hi - lo):
            continue
        branch = Branch.MINUS if rng.integers(2) else Branch.PLUS
        try:
            d = derive_constants(alpha, ModuliPoint(float(a1v), float(a2v), branch))
        except Cp2ToriError:
            continue
        fv = cli.energy_mironov(d)
        checked += 1
        root = math.sqrt(d.a1 + d.a3)
        ok = (fv.area > math.pi ** 2 * (d.a1 + d.a2) / root
              and fv.willmore > 2 * math.pi ** 2 * (d.slope_x ** 2 + d.slope_y ** 2) / root
              and fv.energy > math.pi ** 2 * (d.a1 + d.a2 + (d.slope_x ** 2 + d.slope_y ** 2) / 4) / root
              and fv.ratio > 1.0)
        if not ok:
            violations.append((alpha.weights, float(a1v), float(a2v), branch.value))
    return checked, violations
