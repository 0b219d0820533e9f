import math

import numpy as np
import pytest
from scipy.integrate import quad

from cp2tori.errors import Cp2ToriError
from cp2tori.family import (AlphaTriple, Branch, ModuliPoint, derive_constants,
                            lemma3_box)
from cp2tori.functionals import (HomogeneousParams, area_mironov,
                                 clifford_energy, energy_mironov, energy_scan,
                                 feasible_grid, homogeneous_energy,
                                 period_integral, willmore_mironov)
from conftest import CANONICAL_TRIPLES, angle_willmore, quad_period_integral

SQ3 = 1.0 / math.sqrt(3.0)


def test_clifford_value():
    assert clifford_energy() == 4.0 * math.pi ** 2 / (3.0 * math.sqrt(3.0))
    assert abs(clifford_energy() - 7.5976) < 1e-4


def test_homogeneous_equality_case():
    e = homogeneous_energy(HomogeneousParams(SQ3, SQ3, SQ3))
    assert e == pytest.approx(clifford_energy(), abs=1e-10)


def test_homogeneous_frozen_value():
    p = HomogeneousParams(1.0 / math.sqrt(2.0), 0.5, 0.5)
    expected = 9.0 * math.pi ** 2 / (8.0 * math.sqrt(2.0))
    assert homogeneous_energy(p) == pytest.approx(expected, rel=1e-14)
    assert abs(homogeneous_energy(p) - 7.852) < 1e-3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_homogeneous_params_reject_non_finite_radii(bad):
    # a NaN radius passed both the sign and the unit-sphere test
    with pytest.raises(ValueError, match="radii must be finite"):
        HomogeneousParams(0.5, 0.5, bad)
    with pytest.raises(ValueError, match="radii must be finite"):
        HomogeneousParams(bad, SQ3, SQ3)


def test_homogeneous_boundary_behavior():
    # a single radius collapsing to 0 blows the energy up ...
    vals = []
    for r3 in (0.1, 0.01, 0.001):
        rest = math.sqrt((1.0 - r3 * r3) / 2.0)
        vals.append(homogeneous_energy(HomogeneousParams(rest, rest, r3)))
    assert vals[0] < vals[1] < vals[2]
    assert vals[-1] > 100.0
    # ... while along the balanced path r1 -> 1, r2 = r3 the energy tends
    # to the finite limit pi^2 (still above the Clifford value)
    r1 = 1.0 - 1e-8
    rest = math.sqrt((1.0 - r1 * r1) / 2.0)
    e = homogeneous_energy(HomogeneousParams(r1, rest, rest))
    assert e == pytest.approx(math.pi ** 2, rel=1e-6)
    assert e > clifford_energy()


def test_homogeneous_validation():
    with pytest.raises(ValueError):
        HomogeneousParams(0.5, 0.5, 0.5)  # not on the sphere
    with pytest.raises(ValueError):
        HomogeneousParams(-SQ3, SQ3, SQ3)


def test_homogeneous_inequality_random(rng):
    ecl = clifford_energy()
    for _ in range(5000):
        v = np.abs(rng.normal(size=3))
        v /= np.linalg.norm(v)
        if np.min(v) < 1e-6:
            continue
        e = homogeneous_energy(HomogeneousParams(*v))
        assert e >= ecl * (1.0 - 1e-12)


def test_area_substitution_identity(sample_derived, sample_derived_plus):
    # one-period quadrature of the conformal factor equals the angular form
    # (a1/sqrt(a1+a3)) * int_0^pi (1 - ((a1-a2)/a1) sin^2 t)/sqrt(1-k^2 sin^2 t) dt
    for d in (sample_derived, sample_derived_plus):
        k2 = d.modulus.k2
        ratio = (d.a1 - d.a2) / d.a1
        angular, _ = quad(
            lambda t: (1.0 - ratio * math.sin(t) ** 2)
            / math.sqrt(1.0 - k2 * math.sin(t) ** 2),
            0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
        lhs = period_integral(d)
        assert lhs == pytest.approx(d.a1 / math.sqrt(d.a1 + d.a3) * angular, abs=1e-9)


def test_area_closed_form_matches_quadrature_on_sweep():
    # every point of the acceptance sweep: 5 triples, 30x30 grid, both branches
    worst, n = 0.0, 0
    for weights in CANONICAL_TRIPLES:
        al = AlphaTriple(*weights)
        for a1, a2 in feasible_grid(al, 30):
            for br in (Branch.MINUS, Branch.PLUS):
                d = derive_constants(al, ModuliPoint(a1, a2, br))
                ref = quad_period_integral(d)
                worst = max(worst, abs(period_integral(d) - ref) / ref)
                n += 1
    assert n == 4350
    assert worst <= 1e-12


def test_area_where_a3_dwarfs_a1():
    # a3 = 8.19e6 >> a1: the form (a1+a3)E - a3 K cancels 2.3e-10 of
    # relative accuracy here, more than the margin of the area bound
    import mpmath
    d = derive_constants(AlphaTriple(3, 2, -1),
                         ModuliPoint(2.5572684491734603, 2.5562529947352655,
                                     Branch.PLUS))
    assert d.a3 > 8e6
    with mpmath.workdps(40):
        a1, a2, a3 = (mpmath.mpf(v) for v in (d.a1, d.a2, d.a3))
        m = (a1 - a2) / (a1 + a3)
        ref = float(4 * mpmath.pi * ((a1 + a3) * mpmath.ellipe(m)
                                     - a3 * mpmath.ellipk(m)) / mpmath.sqrt(a1 + a3))
    A = area_mironov(d)
    assert A == pytest.approx(ref, rel=1e-14)
    assert A > math.pi ** 2 * (d.a1 + d.a2) / math.sqrt(d.a1 + d.a3)


def test_area_small_modulus_limit():
    # a1 -> a2: the integrand averages (a1+a2)/2 over the period
    al = AlphaTriple(2, 1, -1)
    d = derive_constants(al, ModuliPoint(1.5 + 1e-6, 1.5 - 1e-6, Branch.MINUS))
    expected = math.pi * (d.a1 + d.a2) / (2.0 * math.sqrt(d.a1 + d.a3))
    assert period_integral(d) == pytest.approx(expected, rel=1e-6)


def test_area_exceeds_lemma_bound(sample_derived):
    d = sample_derived
    A = area_mironov(d)
    assert A > math.pi ** 2 * (d.a1 + d.a2) / math.sqrt(d.a1 + d.a3)


def test_willmore_closed_form_vs_quadrature(sample_derived, sample_derived_plus):
    for d in (sample_derived, sample_derived_plus):
        w1 = willmore_mironov(d)
        w2 = angle_willmore(d)
        assert w1 == pytest.approx(w2, rel=1e-9)


def test_willmore_scales_linearly(sample_derived):
    assert willmore_mironov(sample_derived, 2) == pytest.approx(
        2.0 * willmore_mironov(sample_derived, 1), rel=1e-14)
    assert area_mironov(sample_derived, 2) == pytest.approx(
        2.0 * area_mironov(sample_derived, 1), rel=1e-12)


def test_energy_decomposition_and_potential(sample_derived):
    d = sample_derived
    fv = energy_mironov(d)
    assert fv.energy == fv.area + fv.willmore / 8.0  # exact by construction
    # half the integral of the potential 4 e^v + (a^2 + b^2)/4 over the
    # cell, by quadrature
    h2 = d.slope_x ** 2 + d.slope_y ** 2
    potential = math.pi * (2.0 * quad_period_integral(d) + h2 * d.period / 4.0)
    assert potential == pytest.approx(fv.energy, abs=1e-9)
    assert fv.ratio == fv.energy / clifford_energy()


def test_energy_ratio_exceeds_one_on_grid():
    al = AlphaTriple(2, 1, -1)
    rows = energy_scan([al], n=8)
    assert rows, "feasible grid should not be empty"
    assert all(r["ratio"] > 1.0 for r in rows)


def test_energy_scan_matches_the_per_point_path():
    # the acceptance sweep, evaluated as arrays, against energy_mironov at
    # each point: the same rows in the same order, the same values bit for
    # bit
    alphas = [AlphaTriple(*t) for t in CANONICAL_TRIPLES]
    rows = energy_scan(alphas, n=30)
    expected = []
    for al in alphas:
        for a1, a2 in feasible_grid(al, 30):
            for branch in (Branch.MINUS, Branch.PLUS):
                try:
                    d = derive_constants(al, ModuliPoint(a1, a2, branch))
                except Cp2ToriError:
                    continue
                fv = energy_mironov(d)
                expected.append(((*al.weights, a1, a2, branch.value),
                                 (d.c2, d.a3, d.slope_x, d.period, fv.area,
                                  fv.willmore, fv.energy, fv.ratio)))
    assert len(rows) == len(expected) == 4350
    keys = ("alpha1", "alpha2", "alpha3", "a1", "a2", "branch")
    values = ("c2", "a3", "a", "T", "A", "W", "E", "ratio")
    assert [tuple(r[c] for c in keys) for r in rows] == [k for k, _ in expected]
    for row, (_, ref) in zip(rows, expected):
        got = tuple(row[c] for c in values)
        assert all(type(v) is float for v in got)
        assert got == ref, (row, ref)


def test_a_moduli_point_runs_the_agm_once(monkeypatch):
    # derive_constants keeps K and D from its one AGM run, and the
    # functionals and the phase integrals read them from there
    from cp2tori import family
    calls = []
    real = family.complete_kd

    def counted(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(family, "complete_kd", counted)
    d = derive_constants(AlphaTriple(2, 1, -1), ModuliPoint(1.8, 1.2))
    energy_mironov(d, 2)
    period_integral(d)
    family.g_phases(0.5 * d.period, d)
    assert len(calls) == 1
    assert (d.K, d.D) == real(d.modulus.k)
    assert d.sqrt_a1_a3 == math.sqrt(d.a1 + d.a3)


def test_energy_scan_keeps_its_error_paths():
    # a grid point with a2 = 0 (no margin on an alpha2 = 0 triple), fewer
    # than one period and an unordered triple raise; branches come out in
    # the order given
    with pytest.raises(ValueError, match="need a1 > a2 > 0, got a1=0.5, a2=0.0"):
        energy_scan([AlphaTriple(2, 0, -1)], n=5, margin=0.0)
    with pytest.raises(ValueError, match="n_periods"):
        energy_scan([AlphaTriple(2, 1, -1)], n=5, n_periods=0)
    with pytest.raises(ValueError, match="normal form"):
        energy_scan([AlphaTriple(1, 2, -1)], n=5)
    al = AlphaTriple(2, 1, -1)
    both = energy_scan([al], n=5, branches=(Branch.PLUS, Branch.MINUS))
    assert [r["branch"] for r in both[:2]] == ["plus", "minus"]
    assert energy_scan([al], n=5, branches=()) == []


def test_energy_scan_empty_for_unfeasible_triple():
    assert energy_scan([AlphaTriple(1, 1, -1)], n=8) == []


def test_feasible_grid_stays_inside_box():
    al = AlphaTriple(3, 1, -1)
    lo, hi = lemma3_box(al)
    pts = feasible_grid(al, 10)
    assert pts
    for a1, a2 in pts:
        assert lo < a2 < a1 < hi
