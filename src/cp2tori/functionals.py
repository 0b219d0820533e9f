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
hardest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .elliptic import complete_kd
from .errors import Cp2ToriError
from .family import (AlphaTriple, Branch, DerivedConstants, ModuliPoint,
                     conformal_factor, derive_constants, lemma3_box)

_QUAD_TOL = 1e-11


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
        if min(self.r1, self.r2, self.r3) <= 0:
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
    K, D = complete_kd(d.modulus)
    return 2.0 * (d.a1 * K - (d.a1 - d.a2) * D) / d.sqrt_a1_a3


def area_mironov(d: DerivedConstants, n_periods: int = 1) -> float:
    """A = 2 pi N * integral_0^T (2 e^v) dx."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    return 2.0 * math.pi * n_periods * period_integral(d)


def willmore_mironov(d: DerivedConstants, n_periods: int = 1) -> float:
    """W = 2 pi N T (a^2 + b^2), the closed form."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    return (2.0 * math.pi * n_periods * d.period
            * (d.slope_x ** 2 + d.slope_y ** 2))


def willmore_quadrature(d: DerivedConstants, n_periods: int = 1,
                        tol: float = _QUAD_TOL) -> float:
    """W by quadrature of |H|^2 over the surface, with
    |H|^2 = (a^2 + b^2) / (2 e^v); cross-checks the closed form."""
    h2 = d.slope_x ** 2 + d.slope_y ** 2
    val, _ = quad(lambda x: (h2 / conformal_factor(x, d)) * conformal_factor(x, d),
                  0.0, d.period, epsabs=tol, epsrel=1e-12, limit=300)
    return 2.0 * math.pi * n_periods * val


def energy_mironov(d: DerivedConstants, n_periods: int = 1) -> FunctionalValues:
    A = area_mironov(d, n_periods)
    W = willmore_mironov(d, n_periods)
    E = A + W / 8.0
    return FunctionalValues(area=A, willmore=W, energy=E, ratio=E / clifford_energy())


def potential_energy_check(d: DerivedConstants, n_periods: int = 1) -> float:
    """Energy recomputed as half the integral of the associated
    Schroedinger potential 4 e^v + (a^2 + b^2)/4 over the lattice cell
    (the Laplacian term drops out for a linear Lagrangian angle).
    Agrees with area + willmore/8 analytically."""
    h2 = d.slope_x ** 2 + d.slope_y ** 2
    # 1/2 * 2pi * [ 2 * int cf dx + (h2/4) * N T ]
    return (math.pi * 2.0 * n_periods * period_integral(d)
            + math.pi * h2 * n_periods * d.period / 4.0)


# ----------------------------------------------------------------------
# Parameter sweeps
# ----------------------------------------------------------------------

SCAN_COLUMNS = ("alpha1", "alpha2", "alpha3", "a1", "a2", "branch",
                "c2", "a3", "a", "T", "A", "W", "E", "ratio")


def feasible_grid(alpha: AlphaTriple, n: int, margin: float = 0.02) -> List[tuple]:
    """Interior (a1, a2) grid points of the feasibility box with a1 > a2.

    ``margin`` trims the box boundary (degenerate loci) as a fraction of
    the box width.
    """
    lo, hi = lemma3_box(alpha)
    if hi <= lo:
        return []
    pad = (hi - lo) * margin
    vals = np.linspace(lo + pad, hi - pad, n)
    sep = (hi - lo) * margin
    return [(float(a1), float(a2)) for a1 in vals for a2 in vals if a2 < a1 - sep]


def _scan_tasks(alphas: Iterable[AlphaTriple], n: int,
                branches: Sequence[Branch], n_periods: int,
                margin: float) -> List[tuple]:
    """(weights, a1, a2, branch value, N) for every scan grid point."""
    return [(alpha.weights, a1, a2, branch.value, n_periods)
            for alpha in alphas for a1, a2 in feasible_grid(alpha, n, margin)
            for branch in branches]


def _scan_row(task: tuple) -> Optional[dict]:
    """The CSV-ready row of one scan task, or None where the point gives
    no torus (any Cp2ToriError).  Top level, so process pools can pickle
    it."""
    weights, a1, a2, branch_value, n_periods = task
    alpha = AlphaTriple(*weights)
    try:
        d = derive_constants(alpha, ModuliPoint(a1, a2, Branch(branch_value)))
    except Cp2ToriError:
        return None
    fv = energy_mironov(d, n_periods)
    return {"alpha1": alpha.alpha1, "alpha2": alpha.alpha2,
            "alpha3": alpha.alpha3, "a1": a1, "a2": a2,
            "branch": branch_value, "c2": d.c2, "a3": d.a3,
            "a": d.slope_x, "T": d.period, "A": fv.area, "W": fv.willmore,
            "E": fv.energy, "ratio": fv.ratio}


def energy_scan(alphas: Iterable[AlphaTriple], n: int = 20,
                branches: Sequence[Branch] = (Branch.MINUS, Branch.PLUS),
                n_periods: int = 1, margin: float = 0.02) -> List[dict]:
    """One row per feasible grid point and branch, CSV-ready."""
    tasks = _scan_tasks(alphas, n, branches, n_periods, margin)
    return [row for row in map(_scan_row, tasks) if row]
