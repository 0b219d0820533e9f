"""Area, Willmore and energy functionals for the three torus families.

The energy is E = A + W/8.  For the two-parameter family both terms
have closed forms.  A integrates the conformal factor
a1 - (a1 - a2) sn^2(x sqrt(a1+a3), k) over one period T = 2K/sqrt(a1+a3);
with int_0^2K sn^2 du = 2 (K - E)/k^2 (DLMF 22.16) that is
2 (a1 K - (a1 - a2) D) / sqrt(a1 + a3), D = (K - E)/k^2 from the AGM
(DLMF 19.8).  The textbook form 2 ((a1 + a3) E - a3 K) / sqrt(a1 + a3)
is the same number, but where a3 >> a1 it subtracts two a3-sized terms
and loses digits; the D form, rewritten through (a1 + a3) k^2 = a1 - a2,
subtracts nothing larger than a1 K.  W is 2 pi N T (a^2 + b^2) in the
Lagrangian-angle slopes.  Everything scales linearly in the period count
N, so the energy ratio is evaluated at N = 1 (where E/E_Cl > 1 is
hardest).  The functionals read K and D from the DerivedConstants, which
holds one point or a whole grid of them as numpy arrays; :func:`scan_columns`
passes each triple's grid through these same functions at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .family import (AlphaTriple, Branch, DerivedConstants, derive_grid,
                     lemma3_box)


def clifford_energy() -> float:
    """Energy of the Clifford torus, 4 pi^2 / (3 sqrt(3))."""
    return 4.0 * math.pi ** 2 / (3.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class HomogeneousParams:
    """Radii of a homogeneous torus; must sit on the unit sphere."""

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        r = (self.r1, self.r2, self.r3)
        if not all(map(math.isfinite, r)):
            raise ValueError(f"homogeneous radii must be finite, got {r!r}")
        if min(r) <= 0:
            raise ValueError("homogeneous radii must be positive")
        n = self.r1**2 + self.r2**2 + self.r3**2
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"r1^2+r2^2+r3^2 = {n!r} != 1")


def homogeneous_energy(params: HomogeneousParams) -> float:
    """pi^2 (1-r1^2)(1-r2^2)(1-r3^2) / (2 r1 r2 r3); minimized exactly at
    the symmetric point r_i = 1/sqrt(3), where it equals clifford_energy()."""
    r1, r2, r3 = params.r1, params.r2, params.r3
    return (math.pi ** 2 * (1 - r1 * r1) * (1 - r2 * r2) * (1 - r3 * r3)
            / (2.0 * r1 * r2 * r3))


@dataclass(frozen=True)
class FunctionalValues:
    area: float
    willmore: float
    energy: float
    ratio: float  # energy / clifford_energy()


def period_integral(d: DerivedConstants) -> float:
    """Integral of the conformal factor over one period, in closed form:
    2 (a1 K - (a1 - a2) D) / sqrt(a1 + a3) with D = (K - E)/k^2."""
    return 2.0 * (d.a1 * d.K - (d.a1 - d.a2) * d.D) / d.sqrt_a1_a3


def area_mironov(d: DerivedConstants, n_periods: int = 1) -> float:
    """A = 2 pi N * integral_0^T (2 e^v) dx."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    return 2.0 * math.pi * n_periods * period_integral(d)


def willmore_mironov(d: DerivedConstants, n_periods: int = 1) -> float:
    """W = 2 pi N T (a^2 + b^2), the closed form."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    a, b = d.slope_x, d.slope_y
    return 2.0 * math.pi * n_periods * d.period * (a * a + b * b)


def energy_mironov(d: DerivedConstants, n_periods: int = 1) -> FunctionalValues:
    """E = A + W/8 and its ratio to E_Cl."""
    A, W = area_mironov(d, n_periods), willmore_mironov(d, n_periods)
    E = A + W / 8.0
    return FunctionalValues(area=A, willmore=W, energy=E, ratio=E / clifford_energy())


# ----------------------------------------------------------------------
# Parameter sweeps
# ----------------------------------------------------------------------

SCAN_COLUMNS = ("alpha1", "alpha2", "alpha3", "a1", "a2", "branch",
                "c2", "a3", "a", "T", "A", "W", "E", "ratio")


def feasible_grid(alpha: AlphaTriple, n: int, margin: float = 0.02):
    """Interior (a1, a2) grid points of the feasibility box with a1 > a2,
    as an a1 array and an a2 array ordered by a1, then a2: the points
    a2 < a1 - sep of an n x n grid, built from the kept triangle alone.

    ``margin``, in [0, 1/2), trims the box boundary (degenerate loci) as
    a fraction of the box width; sep is the same fraction.
    """
    if not 0 <= margin < 0.5:
        raise ValueError(f"margin must be in [0, 1/2), got {margin!r}")
    lo, hi = lemma3_box(alpha)
    if hi <= lo:
        return np.empty(0), np.empty(0)
    sep = (hi - lo) * margin
    vals = np.linspace(lo + sep, hi - sep, n)
    # vals rises, so the a2 < a1 - sep of each a1 are the first counts[i]
    # entries of vals
    counts = np.searchsorted(vals, vals - sep)
    starts = np.cumsum(counts) - counts  # index in the output of each run
    j = np.arange(counts.sum()) - np.repeat(starts, counts)
    return np.repeat(vals, counts), vals[j]


def scan_columns(alpha: AlphaTriple, n: int, branches: Sequence[Branch],
                 n_periods: int, margin: float) -> tuple:
    """The scan of one triple as the columns a1, a2, branch, c2, a3, a, T,
    A, W, E, ratio of :data:`SCAN_COLUMNS` (every column but the weights),
    each formula applied to the whole grid at once.  The rows are the tori
    that :func:`derive_grid` keeps of the grid of :func:`feasible_grid`,
    each point repeated once per branch: a1, then a2, then the branches
    in the given order.  A triple not in strict normal form is refused."""
    if not alpha.is_normalized:
        raise ValueError(f"{alpha.weights} is not in normal form "
                         "alpha1 > alpha2 >= 0 > alpha3")
    a1, a2 = feasible_grid(alpha, n, margin)
    names = np.array([b.value for b in branches])
    d, _ = derive_grid(alpha, np.repeat(a1, names.size), np.repeat(a2, names.size),
                       np.tile(names, a1.size))
    fv = energy_mironov(d, n_periods)
    return (d.a1, d.a2, d.branch, d.c2, d.a3, d.slope_x, d.period, fv.area,
            fv.willmore, fv.energy, fv.ratio)
