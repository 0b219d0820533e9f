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
holds one point or a whole grid of them as numpy arrays; :func:`energy_scan`
passes each triple's grid through these same functions at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from .family import (AlphaTriple, Branch, DerivedConstants, _c2_pair,
                     _c2_vanishes, _derived, _p_discriminant, _require_ordered,
                     _roots_real, lemma3_box, q_cubic)


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


def _grid_arrays(alpha: AlphaTriple, n: int, margin: float):
    """The (a1, a2) arrays of :func:`feasible_grid`, in its order."""
    lo, hi = lemma3_box(alpha)
    if hi <= lo:
        return np.empty(0), np.empty(0)
    pad = (hi - lo) * margin
    vals = np.linspace(lo + pad, hi - pad, n)
    sep = (hi - lo) * margin
    a1, a2 = np.meshgrid(vals, vals, indexing="ij")
    keep = a2 < a1 - sep
    return a1[keep], a2[keep]


def feasible_grid(alpha: AlphaTriple, n: int, margin: float = 0.02) -> List[tuple]:
    """Interior (a1, a2) grid points of the feasibility box with a1 > a2,
    ordered by a1, then a2.

    ``margin`` trims the box boundary (degenerate loci) as a fraction of
    the box width.
    """
    a1, a2 = _grid_arrays(alpha, n, margin)
    return list(zip(a1.tolist(), a2.tolist()))


def _scan_triple(alpha: AlphaTriple, n: int, branches: Sequence[Branch],
                 n_periods: int, margin: float) -> List[dict]:
    """The scan rows of one triple, each formula applied to the whole grid
    at once: a1, then a2, then the branches in the given order."""
    a1, a2 = _grid_arrays(alpha, n, margin)
    ordered = (a1 > a2) & (a2 > 0)
    if not ordered.all():
        i = np.argmin(ordered)
        _require_ordered(float(a1[i]), float(a2[i]))  # raises, naming the point
    P, disc = _p_discriminant(alpha, a1, a2)
    Qa1, Qa2 = q_cubic(a1, alpha), q_cubic(a2, alpha)
    real = _roots_real(Qa1, Qa2, P, disc)
    a1, a2 = a1[real], a2[real]
    roots = dict(zip((Branch.MINUS, Branch.PLUS), _c2_pair(a1, a2, Qa1[real], Qa2[real])))
    # one column per branch, so the rows come out point by point
    c2 = np.empty((a1.size, len(branches)))
    for j, b in enumerate(branches):
        c2[:, j] = roots[b]
    a1, a2 = (np.broadcast_to(v[:, None], c2.shape) for v in (a1, a2))
    keep = ~_c2_vanishes(c2, a1)
    branch = np.broadcast_to(np.array([b.value for b in branches]), c2.shape)[keep]
    d = _derived(alpha, a1[keep], a2[keep], branch, c2[keep])
    fv = energy_mironov(d, n_periods)
    columns = (d.a1, d.a2, d.branch, d.c2, d.a3, d.slope_x, d.period, fv.area,
               fv.willmore, fv.energy, fv.ratio)
    return [dict(zip(SCAN_COLUMNS, (*alpha.weights, *values)))
            for values in zip(*(c.tolist() for c in columns))]


def energy_scan(alphas: Iterable[AlphaTriple], n: int = 20,
                branches: Sequence[Branch] = (Branch.MINUS, Branch.PLUS),
                n_periods: int = 1, margin: float = 0.02) -> List[dict]:
    """One CSV-ready row per feasible grid point and branch, with the
    values :func:`energy_mironov` gives there; a point where c2 is not
    real or vanishes gives no torus and is skipped."""
    return [row for alpha in alphas
            for row in _scan_triple(alpha, n, branches, n_periods, margin)]
