import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from cp2tori.family import AlphaTriple, Branch, ModuliPoint, derive_constants, g_phases
from cp2tori.periodicity import (LatticeData, NotPeriodic, best_rational,
                                 closure_residual, phase_differences,
                                 projective_distance, rational_fit,
                                 tau_free_invariant)


def test_best_rational_synthetic():
    frac, err = best_rational(0.25)
    assert frac == Fraction(1, 4) and err == 0.0
    frac, err = best_rational(1.0 / 3.0)
    assert frac == Fraction(1, 3) and err < 1e-15
    frac, err = best_rational(0.333333, max_denominator=10 ** 5)
    # within 1e-5 the best bounded fraction is 1/3
    assert abs(float(frac) - 1.0 / 3.0) < 1e-5 or frac == Fraction(333333, 10 ** 6)


def test_best_rational_recovers_with_tolerance():
    frac, err = best_rational(0.333333)
    assert err <= 1e-5
    frac33 = Fraction(0.333333).limit_denominator(100)
    assert frac33 == Fraction(1, 3)


def test_phase_differences_consistency(sample_derived):
    d = sample_derived
    dg13, dg23 = phase_differences(d)
    g = g_phases(d.period, d)
    assert dg13 == pytest.approx(g[0] - g[2], abs=1e-12)
    assert dg23 == pytest.approx(g[1] - g[2], abs=1e-12)


def test_phase_differences_alpha2_zero(degenerate_derived):
    # with alpha2 = 0 the middle phase is the regular alpha -> 0 limit of
    # the integrand (nonzero); the differences stay consistent with it
    d = degenerate_derived
    dg13, dg23 = phase_differences(d)
    g = g_phases(d.period, d)
    assert g[1] != 0.0
    assert dg23 == pytest.approx(g[1] - g[2], abs=1e-12)


def test_phase_differences_refinement_oracle(sample_derived):
    d = sample_derived
    coarse = phase_differences(d, tol=1e-8)
    fine = phase_differences(d, tol=1e-13)
    assert coarse[0] == pytest.approx(fine[0], abs=1e-9)
    assert coarse[1] == pytest.approx(fine[1], abs=1e-9)


def test_rational_fit_reports_not_periodic(sample_derived):
    res = rational_fit(sample_derived, max_denominator=20, tol=1e-12)
    assert isinstance(res, NotPeriodic)
    assert res.error > res.tol
    assert res.to_json_dict()["status"] == "not_periodic"


def test_rational_fit_invariants(sample_derived):
    res = rational_fit(sample_derived, max_denominator=10 ** 6, tol=1e-4)
    assert isinstance(res, LatticeData)
    d = sample_derived
    m1 = d.alpha.alpha1 - d.alpha.alpha3
    m2 = d.alpha.alpha2 - d.alpha.alpha3
    # tau-elimination identity
    combo = m2 * res.lam1 - m1 * res.lam2
    assert combo == res.mu_fraction
    # lattice invariants
    assert res.e1 == (0.0, 2.0 * math.pi)
    assert res.e2 == (res.n_period * d.period, res.n_period * res.tau)
    assert res.n_period == math.lcm(res.lam1.denominator, res.lam2.denominator)
    # lam1 holds exactly by construction of tau; lam2 up to the residual
    lam1_check = (res.dg13 + m1 * res.tau) / (2 * math.pi)
    lam2_check = (res.dg23 + m2 * res.tau) / (2 * math.pi)
    assert lam1_check == pytest.approx(float(res.lam1), abs=1e-12)
    assert lam2_check == pytest.approx(float(res.lam2), abs=res.approx_error / m1 + 1e-12)


def _mu_of_a1(al, a1, a2, branch):
    d = derive_constants(al, ModuliPoint(a1, a2, branch))
    return tau_free_invariant(d, *phase_differences(d, tol=1e-12))


def _simplest_between(lo, hi):
    """Stern-Brocot walk for the smallest-denominator fraction in (lo, hi)."""
    llo, lhi = Fraction(0), Fraction(10 ** 9)
    a, b = Fraction(lo), Fraction(hi)
    # shift into positive territory for the walk
    shift = math.floor(lo)
    a -= shift
    b -= shift
    num_lo, den_lo, num_hi, den_hi = 0, 1, 1, 0
    for _ in range(10_000):
        mid = Fraction(num_lo + num_hi, den_lo + den_hi)
        if mid <= a:
            num_lo, den_lo = mid.numerator, mid.denominator
        elif mid >= b:
            num_hi, den_hi = mid.numerator, mid.denominator
        else:
            return mid + shift
    raise RuntimeError("no simple fraction found")


def test_engineered_periodic_point_closes():
    """Bisect the moduli to a rational invariant and check that the lattice
    vector e2 really closes the immersion projectively."""
    al = AlphaTriple(2, 1, -1)
    a2 = 1.2
    # window avoids the degenerate minus-root locus at a1 ~ 1.56897
    lo_a1, hi_a1 = 1.62, 1.95
    mu_lo = _mu_of_a1(al, lo_a1, a2, Branch.MINUS)
    mu_hi = _mu_of_a1(al, hi_a1, a2, Branch.MINUS)
    target = _simplest_between(min(mu_lo, mu_hi) + 1e-9, max(mu_lo, mu_hi) - 1e-9)
    a1_star = brentq(lambda v: _mu_of_a1(al, v, a2, Branch.MINUS) - float(target),
                     lo_a1, hi_a1, xtol=1e-14)
    d = derive_constants(al, ModuliPoint(a1_star, a2, Branch.MINUS))
    res = rational_fit(d, max_denominator=1000, tol=1e-9)
    assert isinstance(res, LatticeData), res
    assert res.mu_fraction == target
    assert res.approx_error <= 1e-9
    assert closure_residual(d, res, n_samples=25) <= 1e-7


@pytest.mark.filterwarnings("error")
def test_closure_at_a_large_period_multiple(sample_derived):
    """G_i(x + N T) = G_i(x) + N G_i(T): with N near 10^6 a quadrature from
    0 to x + N T loses the lattice (and warns); reducing x by the period
    closes it to rounding."""
    d = sample_derived
    res = rational_fit(d)
    assert isinstance(res, LatticeData) and res.n_period > 10 ** 5
    assert closure_residual(d, res, n_samples=5) <= 1e-9


def test_projective_distance_phase_invariance(rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    w = v * np.exp(1j * 0.7)
    assert projective_distance(v, w) <= 1e-12
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    u /= np.linalg.norm(u)
    assert projective_distance(v, u) > 1e-3
