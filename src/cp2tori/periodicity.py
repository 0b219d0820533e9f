"""Double-periodicity detection for the torus family.

The immersion closes up iff after one conformal period T there is a shear
tau making both normalized phase differences

    lam1 = (G1(T) - G3(T) + (alpha1 - alpha3) tau) / (2 pi)
    lam2 = (G2(T) - G3(T) + (alpha2 - alpha3) tau) / (2 pi)

rational; the lattice is then e1 = (0, 2 pi), e2 = N (T, tau) with N the
lcm of the reduced denominators.  Floating point can only certify
*approximate* rationality, so the fit reports the best bounded-denominator
approximation together with its residual and leaves the accept/reject
threshold to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

import numpy as np

from .family import DerivedConstants, g_phases, lift


def phase_differences(d: DerivedConstants) -> Tuple[float, float]:
    """(G1(T) - G3(T), G2(T) - G3(T)) over one period."""
    g = g_phases(d.period, d)
    return float(g[0] - g[2]), float(g[1] - g[2])


def tau_free_invariant(d: DerivedConstants, dg13: float, dg23: float) -> float:
    """mu = ((alpha2 - alpha3) dG13 - (alpha1 - alpha3) dG23) / (2 pi);
    the shear tau drops out, so mu must be rational for periodicity."""
    m1 = d.alpha.alpha1 - d.alpha.alpha3
    m2 = d.alpha.alpha2 - d.alpha.alpha3
    return (m2 * dg13 - m1 * dg23) / (2.0 * math.pi)


@dataclass(frozen=True)
class LatticeData:
    """Periodic-lattice record: phase differences, shear, the two rational
    winding ratios, the period multiple N and the lattice vectors."""

    dg13: float
    dg23: float
    tau: float
    lam1: Fraction
    lam2: Fraction
    n_period: int
    e1: Tuple[float, float]
    e2: Tuple[float, float]
    mu: float
    mu_fraction: Fraction
    approx_error: float

    def to_json_dict(self) -> dict:
        return {
            "status": "periodic",
            "dG13": self.dg13, "dG23": self.dg23, "tau": self.tau,
            "lambda1": [self.lam1.numerator, self.lam1.denominator],
            "lambda2": [self.lam2.numerator, self.lam2.denominator],
            "N": self.n_period,
            "e1": list(self.e1), "e2": list(self.e2),
            "mu": self.mu,
            "mu_fraction": [self.mu_fraction.numerator, self.mu_fraction.denominator],
            "approx_error": self.approx_error,
        }


@dataclass(frozen=True)
class NotPeriodic:
    """No rational approximation of mu within tolerance; carries the best
    candidate so callers can see how close it came."""

    mu: float
    best: Fraction
    error: float
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "status": "not_periodic",
            "mu": self.mu,
            "best_fraction": [self.best.numerator, self.best.denominator],
            "error": self.error, "tol": self.tol,
        }


def best_rational(mu: float, max_denominator: int = 10 ** 6) -> Tuple[Fraction, float]:
    """Best rational approximation with bounded denominator (continued
    fractions via the stdlib) and its absolute error."""
    best = Fraction(mu).limit_denominator(max_denominator)
    return best, abs(mu - float(best))


def rational_fit(d: DerivedConstants, max_denominator: int = 10 ** 6,
                 tol: float = 1e-9) -> Union[LatticeData, NotPeriodic]:
    """Fit the tau-free invariant mu by a bounded-denominator fraction and,
    on success, construct tau, both rational ratios and the lattice.

    lam1 is chosen as s/q with (alpha2 - alpha3) s = p (mod alpha1 - alpha3),
    which makes lam2 = ((alpha2-alpha3) lam1 - p/q)/(alpha1-alpha3) have
    denominator q as well (this uses the coprimality of the difference
    weights), so N | q.
    """
    if not 0.0 < tol < math.inf:  # a NaN tol would accept any fit
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not d.alpha.weights_coprime:
        raise ValueError(f"difference weights of {d.alpha.weights} are not coprime")
    m1 = d.alpha.alpha1 - d.alpha.alpha3
    m2 = d.alpha.alpha2 - d.alpha.alpha3
    dg13, dg23 = phase_differences(d)
    mu = tau_free_invariant(d, dg13, dg23)
    best, err = best_rational(mu, max_denominator)
    if err > tol:
        return NotPeriodic(mu=mu, best=best, error=err, tol=tol)
    p, q = best.numerator, best.denominator
    s = (p * pow(m2, -1, m1)) % m1 if m1 > 1 else 0
    lam1 = Fraction(s, q)
    lam2 = (m2 * lam1 - best) / m1
    tau = (2.0 * math.pi * float(lam1) - dg13) / m1
    n = math.lcm(lam1.denominator, lam2.denominator)
    return LatticeData(
        dg13=dg13, dg23=dg23, tau=tau, lam1=lam1, lam2=lam2, n_period=n,
        e1=(0.0, 2.0 * math.pi), e2=(n * d.period, n * tau),
        mu=mu, mu_fraction=best, approx_error=err)


def projective_distance(u: np.ndarray, w: np.ndarray):
    """1 - |<u, w>| for unit vectors along axis 0; vanishes iff they define
    the same projective point.  A float for single vectors."""
    dist = 1.0 - np.abs((np.conj(u) * w).sum(axis=0))
    return float(dist) if dist.ndim == 0 else dist


def closure_residual(d: DerivedConstants, lattice: LatticeData,
                     n_samples: int = 50, seed: int = 20240801) -> float:
    """Max projective distance between the lift at (x, y) and at
    (x + N T, y + N tau); small iff e2 really closes the immersion."""
    rng = np.random.default_rng(seed)
    n, T, tau = lattice.n_period, d.period, lattice.tau
    x, y = (np.array([T, 2.0 * math.pi]) * rng.random((n_samples, 2))).T
    u = lift(x, y, d)
    w = lift(x + n * T, y + n * tau, d)
    return float(projective_distance(u, w).max())
