"""Workload inputs, drawn from the benchmark seed without the program.

Only numpy and the standard library are imported here, because the timed
worker uses this module during set-up: an oracle import (scipy.special,
mpmath) would count in ``setup_s`` and ``peak_rss_mb``.

The feasibility test is the paper's, written out independently: with
Q(t) = -(t + a1 a2)(t + a1 a3)(t + a2 a3) for the weights, a moduli point
(a1, a2) is feasible when Q(a1) >= 0, Q(a2) >= 0, P <= 0 and
P^2 - (a1 - a2)^2 R^2 >= 0, and its c2 root is
(a1 sqrt(Q(a2)) -+ a2 sqrt(Q(a1))) / (a1 - a2).
"""

from __future__ import annotations

import math

import numpy as np

# The acceptance sweep: five weight triples, a 30 x 30 grid, both branches.
SWEEP_TRIPLES = ((2, 1, -1), (3, 1, -1), (3, 2, -1), (1, 0, -1), (2, 0, -1))
SWEEP_GRID = 30
SWEEP_MARGIN = 0.02
BRANCHES = ("minus", "plus")
# the certificates ``verify`` issues at its defaults
CERT_TARGETS = ("B1", "B2", "B2-diagonal-strip", "B2-diagonal-strip-corner",
                "scalar-1", "scalar-2")

# Immersion points: one triple with alpha2 > 0 and one with alpha2 = 0,
# each on both branches.  Only triples whose difference weights are
# coprime have a periodicity answer.
IMMERSION_TRIPLES_POS = ((2, 1, -1), (3, 2, -1))
IMMERSION_TRIPLES_ZERO = ((1, 0, -1), (2, 0, -1))
RESIDUAL_GRID = (512, 512)
EXPORT_GRID = (16, 256)  # few x values, many rows: the per-row loops dominate


def grid_points(alpha, n=SWEEP_GRID, margin=SWEEP_MARGIN):
    """(a1, a2) with a1 > a2 on an n x n grid inside the box
    [-alpha2 alpha3, -alpha1 alpha3], trimmed by ``margin`` of its width."""
    w1, w2, w3 = alpha
    lo, hi = float(-w2 * w3), float(-w1 * w3)
    pad = (hi - lo) * margin
    vals = np.linspace(lo + pad, hi - pad, n)
    return [(float(a1), float(a2)) for a1 in vals for a2 in vals if a2 < a1 - pad]


def c2_root(alpha, a1, a2, branch):
    """The c2 root on ``branch``, or None where (a1, a2, branch) is not a
    feasible, non-degenerate point."""
    w1, w2, w3 = alpha
    b = -(w1 + w2 + w3)
    c = w1 * w2 + w1 * w3 + w2 * w3
    c1 = -w1 * w2 * w3

    def q(t):
        return -(t + w1 * w2) * (t + w1 * w3) * (t + w2 * w3)

    P = (a1**3 * a2**2 + a1**2 * a2**3 + (a1**2 * a2 + a1 * a2**2) * b * c1
         + (a1**2 + a2**2) * c1**2 + 2 * a1**2 * a2**2 * c)
    R = (a1 + a2) * c1**2 - a1**2 * a2**2 + a1 * a2 * b * c1
    qa1, qa2 = q(a1), q(a2)
    if qa1 < 0 or qa2 < 0 or P > 0 or P * P - (a1 - a2) ** 2 * R * R < 0:
        return None
    s1, s2 = a1 * math.sqrt(qa2), a2 * math.sqrt(qa1)
    c2 = (abs(s1 - s2) if branch == "minus" else s1 + s2) / (a1 - a2)
    if c2 <= 1e-12 * max(1.0, a1 * a1):
        return None
    return c2


def sweep_keys(triples=SWEEP_TRIPLES, n=SWEEP_GRID):
    """Every (alpha, a1, a2, branch) the sweep must produce a row for."""
    return [(alpha, a1, a2, br) for alpha in triples
            for a1, a2 in grid_points(alpha, n) for br in BRANCHES
            if c2_root(alpha, a1, a2, br) is not None]


def sweep_inputs(seed):
    """The sweep's triples in an order drawn from the seed."""
    rng = np.random.default_rng(seed)
    return [SWEEP_TRIPLES[i] for i in rng.permutation(len(SWEEP_TRIPLES))]


def certify_inputs(seed):
    """The seed of verify's 200 energy spot checks."""
    return int(np.random.default_rng(seed).integers(1, 2**31))


def replay_order(seed, n):
    """The order in which the n certificates are replayed."""
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


def immersion_inputs(seed):
    """Four moduli points: an alpha2 > 0 and an alpha2 = 0 triple, each
    on both branches, at feasible grid points drawn from the seed."""
    rng = np.random.default_rng(seed)
    points = []
    for choices in (IMMERSION_TRIPLES_POS, IMMERSION_TRIPLES_ZERO):
        alpha = choices[rng.integers(len(choices))]
        for br in BRANCHES:
            cands = [(a1, a2) for a1, a2 in grid_points(alpha)
                     if c2_root(alpha, a1, a2, br) is not None]
            a1, a2 = cands[rng.integers(len(cands))]
            points.append({"alpha": list(alpha), "a1": a1, "a2": a2, "branch": br})
    return points
