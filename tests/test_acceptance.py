"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -rA or -s to see them all).

Criterion 11 audits every displayed inequality of the energy-comparison
chains at every sweep point.  Three displays of the alpha2 = 0 minus-branch
chain inherit the paper's sign slip and are false where x + y < 4/3; the
criterion asserts that they fail nowhere else, that the sign-correct slope
bound holds where they fail, and that every other step holds everywhere.
Its line tallies the sign-slip failures.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from cp2tori.bounds import (SCALAR_QUADRATICS, b1_expr, b2_expr, b2_strip_corner_expr,
                            b2_strip_lower_expr, case_chain_check,
                            certify_lemma4, certify_lemma5,
                            degenerate_c2_bounds_check,
                            lemma5_strip_certificates, scalar_bound_checks)
from cp2tori.elliptic import _sn_cn, complete_kd
from cp2tori.family import (AlphaTriple, Branch, ModuliPoint, derive_constants,
                            feasibility_check, lemma3_box, quartic_coefficients,
                            solve_c2)
from cp2tori.functionals import (HomogeneousParams, clifford_energy,
                                 energy_mironov, homogeneous_energy,
                                 willmore_mironov)
from cp2tori.interval import CertStatus, replay_certificate
from cp2tori.periodicity import (LatticeData, best_rational, closure_residual,
                                 phase_differences, rational_fit,
                                 tau_free_invariant)
from cp2tori.immersion import geometry_residuals
from conftest import (CANONICAL_TRIPLES, SIGN_SLIP_STEPS, SLOPE_SLIP_STEP,
                      angle_willmore, carlson_f, grid_points,
                      quad_period_integral)

POSITIVE_TRIPLES = [(2, 1, -1), (3, 1, -1), (3, 2, -1)]
DEGENERATE_TRIPLES = [(1, 0, -1), (2, 0, -1)]


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def full_sweep():
    """30x30 interior grid per canonical triple, both branches."""
    out = {}
    for weights in CANONICAL_TRIPLES:
        al = AlphaTriple(*weights)
        for br in (Branch.MINUS, Branch.PLUS):
            pts = []
            for a1, a2 in grid_points(al, 30):
                d = derive_constants(al, ModuliPoint(a1, a2, br))
                pts.append((a1, a2, d, energy_mironov(d)))
            out[(weights, br)] = pts
    return out


def test_01_clifford_constant():
    t0 = time.perf_counter()
    ecl = clifford_energy()
    exact = 4.0 * math.pi ** 2 / (3.0 * math.sqrt(3.0))
    s = 1.0 / math.sqrt(3.0)
    eh = homogeneous_energy(HomogeneousParams(s, s, s))
    elapsed = time.perf_counter() - t0
    ok = abs(ecl - exact) <= 1e-12 and abs(eh - ecl) <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"E_Cl = {ecl:.12g}, symmetric homogeneous delta = "
                   f"{abs(eh - ecl):.2e}, {elapsed:.3f} s")


def test_02_homogeneous_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    ecl = clifford_energy()
    target = 1.0 / math.sqrt(3.0)
    min_ratio = math.inf
    near_one_far_from_center = 0
    for _ in range(100_000):
        v = np.abs(rng.normal(size=3))
        n = math.sqrt(v @ v)
        r1, r2, r3 = v / n
        if min(r1, r2, r3) <= 0.0:
            continue
        ratio = (math.pi ** 2 * (1 - r1 * r1) * (1 - r2 * r2) * (1 - r3 * r3)
                 / (2 * r1 * r2 * r3)) / ecl
        min_ratio = min(min_ratio, ratio)
        if ratio < 1.0 + 1e-6:
            if max(abs(r1 - target), abs(r2 - target), abs(r3 - target)) >= 1e-3:
                near_one_far_from_center += 1
    elapsed = time.perf_counter() - t0
    ok = (min_ratio >= 1.0 - 1e-9 and near_one_far_from_center == 0
          and elapsed < 10.0)
    _report(2, ok, f"min ratio = {min_ratio:.12f} over 1e5 simplex points, "
                   f"{near_one_far_from_center} near-minimal far points, "
                   f"{elapsed:.2f} s")


def test_03_elliptic_roundtrip():
    # sn(F(theta, k), k) = sin(theta) through the kernels g_phases runs:
    # F by Carlson's R_F, sn by Landen with K from the AGM run
    t0 = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 100):
        for k in np.linspace(0.0, 0.95, 10):
            s = _sn_cn(carlson_f(theta, k), k, complete_kd(k)[0])[0]
            worst = max(worst, abs(s - math.sin(theta)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(3, ok, f"max roundtrip residual {worst:.2e} on 100x10 grid, "
                   f"{elapsed:.3f} s")


def test_04_lemma3_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    triples = [AlphaTriple(*t) for t in CANONICAL_TRIPLES]
    disagreements = 0
    checked = 0
    while checked < 10_000:
        al = triples[rng.integers(len(triples))]
        lo, hi = lemma3_box(al)
        a2, a1 = np.sort(rng.uniform(max(lo - 1.0, 1e-3), hi + 1.0, 2))
        if a1 <= a2:
            continue
        checked += 1
        in_box = lo <= a2 and a1 <= hi
        if feasibility_check(al, float(a1), float(a2)).feasible != in_box:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 5.0
    _report(4, ok, f"{checked} random points, {disagreements} disagreements, "
                   f"{elapsed:.2f} s")


def test_05_quartic_consistency():
    rng = np.random.default_rng(20240801)
    triples = [AlphaTriple(*t) for t in CANONICAL_TRIPLES]
    worst_res, worst_match = 0.0, 0.0
    checked = 0
    while checked < 1000:
        al = triples[rng.integers(len(triples))]
        lo, hi = lemma3_box(al)
        pad = 0.01 * (hi - lo)
        a2, a1 = np.sort(rng.uniform(lo + pad, hi - pad, 2))
        if a1 - a2 < pad:
            continue
        checked += 1
        roots = solve_c2(al, ModuliPoint(float(a1), float(a2)))
        q4, q2, q0 = quartic_coefficients(al, float(a1), float(a2))
        for r in (roots.minus, roots.plus):
            res = q4 * r ** 4 + q2 * r ** 2 + q0
            worst_res = max(worst_res, abs(res) / max(abs(q4 * r ** 4), abs(q0), 1.0))
        numeric = sorted(r.real for r in np.roots([q4, 0.0, q2, 0.0, q0])
                         if abs(r.imag) < 1e-9 and r.real > 0)
        worst_match = max(worst_match,
                          abs(numeric[0] - roots.minus) / max(1.0, roots.minus),
                          abs(numeric[1] - roots.plus) / max(1.0, roots.plus))
    ok = worst_res <= 1e-9 and worst_match <= 1e-9
    _report(5, ok, f"1000 samples: worst quartic residual {worst_res:.2e}, "
                   f"worst companion-matrix mismatch {worst_match:.2e}")


def test_06_theorem1_numerical_witness():
    t0 = time.perf_counter()
    worst = 0.0
    reports = 0
    for weights in CANONICAL_TRIPLES:
        al = AlphaTriple(*weights)
        pts = grid_points(al, 4, margin=0.05)[:5]
        assert len(pts) == 5
        for a1, a2 in pts:
            for br in (Branch.MINUS, Branch.PLUS):
                d = derive_constants(al, ModuliPoint(a1, a2, br))
                rep = geometry_residuals(d, grid=(64, 64))
                worst = max(worst, rep.max_residual)
                reports += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and reports == 50 and elapsed < 120.0
    _report(6, ok, f"{reports} property reports on 64x64 grids, worst "
                   f"residual {worst:.2e}, {elapsed:.1f} s")


def test_07_functional_identities(full_sweep):
    worst_w, worst_pot, worst_a = 0.0, 0.0, 0.0
    n = 0
    for (_, _), pts in full_sweep.items():
        for a1, a2, d, fv in pts[::7]:  # identity checks on a subsample stride
            # the Willmore closed form against |grad beta|^2 of the frame
            w_angle = angle_willmore(d)
            if fv.willmore > 0:
                worst_w = max(worst_w, abs(fv.willmore - w_angle) / fv.willmore)
            # the energy as half the integral of the potential
            # 4 e^v + (a^2 + b^2)/4 over the cell, by quadrature
            cf_quad = quad_period_integral(d)
            h2 = d.slope_x ** 2 + d.slope_y ** 2
            pot = math.pi * (2.0 * cf_quad + h2 * d.period / 4.0)
            worst_pot = max(worst_pot, abs(pot - fv.energy))
            # the closed-form area against quadrature of the conformal factor
            a_quad = 2.0 * math.pi * cf_quad
            worst_a = max(worst_a, abs(fv.area - a_quad) / a_quad)
            n += 1
    ok = worst_w <= 1e-9 and worst_pot <= 1e-9 and worst_a <= 1e-12
    _report(7, ok, f"{n} sweep points: worst Willmore closed-vs-angle "
                   f"rel {worst_w:.2e}, worst potential identity {worst_pot:.2e}, "
                   f"worst area closed-vs-quadrature rel {worst_a:.2e}")


def test_08_paper_bounds_strict(full_sweep):
    violations = 0
    n = 0
    for (_, _), pts in full_sweep.items():
        for a1, a2, d, fv in pts:
            n += 1
            root = math.sqrt(d.a1 + d.a3)
            h2 = d.slope_x ** 2 + d.slope_y ** 2
            ok = (fv.area > math.pi ** 2 * (d.a1 + d.a2) / root
                  and fv.willmore > 2 * math.pi ** 2 * h2 / root
                  and fv.energy > math.pi ** 2 * (d.a1 + d.a2 + h2 / 4) / root
                  and fv.ratio > 1.0)
            violations += not ok
    _report(8, violations == 0,
            f"{n} sweep points (5 triples x 30x30 x both branches), "
            f"{violations} bound violations")


def test_09_certified_lemmas():
    cert4 = certify_lemma4()
    cert5 = certify_lemma5()
    strips = lemma5_strip_certificates()
    ok4 = (cert4.status is CertStatus.PROVED and cert4.boxes_examined <= 10 ** 7
           and cert4.elapsed_s < 300.0)
    ok5 = (cert5.status is CertStatus.PROVED and cert5.boxes_examined <= 10 ** 7
           and cert5.elapsed_s < 300.0)
    ok_strips = all(c.status is CertStatus.PROVED for c in strips)
    replayable = (replay_certificate(cert4, b1_expr)
                  and replay_certificate(cert5, b2_expr)
                  and replay_certificate(strips[0], b2_strip_lower_expr)
                  and replay_certificate(strips[1], b2_strip_corner_expr))
    ok = ok4 and ok5 and ok_strips and replayable
    _report(9, ok, f"B1>1: {cert4.status.value} ({cert4.boxes_examined} boxes, "
                   f"{cert4.elapsed_s:.2f} s); B2>0.9: {cert5.status.value} "
                   f"({cert5.boxes_examined} boxes, {cert5.elapsed_s:.2f} s); "
                   f"band charts proved: {ok_strips}; replayed: {replayable}")


def test_10_scalar_bounds():
    t0 = time.perf_counter()
    report = scalar_bound_checks()
    elapsed = time.perf_counter() - t0
    # beyond the certificates, each bound's quadratic 27 n^2 - 16 q has no
    # real root
    beyond = all(a > 0 and b * b < 4 * a * c for a, b, c in SCALAR_QUADRATICS.values())
    ok = report.all_proved and beyond and elapsed < 10.0
    thr = 4.0 / (3.0 * math.sqrt(3.0))
    _report(10, ok, f"both scalar bounds certified above {thr:.6f} on [0, 100], "
                    f"{elapsed:.2f} s; above it for every x by their quadratics: {beyond}")


def test_11_case_chain_audit(full_sweep):
    """Every displayed inequality of both chains, evaluated at every sweep
    point (5 triples x 30x30 x both branches).

    * alpha2 > 0 (case_chain_check): every step holds at every point.
    * alpha2 = 0 (degenerate_c2_bounds_check), both branches: every step
      holds at every point, except that the three SIGN_SLIP_STEPS may fail
      on the minus branch where beta = (x+y)/(2s) - 1 < 0, i.e. x + y < 4/3.
    * Wherever the slope display fails, its sign-correct reading holds: the
      negative bracket divided by the lower end of the c2 sandwich gives
      lhs >= sqrt(p) beta sqrt(2s).

    The criterion line tallies the sign-slip failures per step.
    """
    unexpected = Counter()
    slipped = Counter()
    wrong_direction = 0
    max_u = 0.0
    points = 0
    for weights in POSITIVE_TRIPLES:
        al = AlphaTriple(*weights)
        for br in (Branch.MINUS, Branch.PLUS):
            for a1, a2, d, fv in full_sweep[(weights, br)]:
                rep = case_chain_check(al, a1, a2, br)
                points += 1
                unexpected.update(step.name for step in rep.failing)
    for weights in DEGENERATE_TRIPLES:
        al = AlphaTriple(*weights)
        sp = math.sqrt(al.p)
        for br in (Branch.MINUS, Branch.PLUS):
            for a1, a2, d, fv in full_sweep[(weights, br)]:
                rep = degenerate_c2_bounds_check(al, a1, a2, br)
                points += 1
                x, y = a1 / al.p, a2 / al.p
                s = 2.0 - x - y
                beta = (x + y) / (2.0 * s) - 1.0
                for step in rep.failing:
                    if (step.name not in SIGN_SLIP_STEPS
                            or br is not Branch.MINUS or beta >= 0.0):
                        unexpected[step.name] += 1
                        continue
                    slipped[step.name] += 1
                    max_u = max(max_u, x + y)
                    if (step.name == SLOPE_SLIP_STEP
                            and step.lhs < sp * beta * math.sqrt(2.0 * s)):
                        wrong_direction += 1

    def tally(counts):
        return (", ".join(f"[{k!r}: {v}]" for k, v in sorted(counts.items()))
                or "none")

    detail = (f"{points} audited points; unexpected failing steps: "
              f"{tally(unexpected)}; sign-slip failures (minus branch, "
              f"beta < 0, max x+y {max_u:.3f}): {tally(slipped)}; "
              f"sign-correct slope bound fails at {wrong_direction} of "
              f"{slipped[SLOPE_SLIP_STEP]}")
    _report(11, not unexpected and wrong_direction == 0, detail)


def _mu_of_a1(al, a1, a2, branch):
    d = derive_constants(al, ModuliPoint(a1, a2, branch))
    return tau_free_invariant(d, *phase_differences(d))


def _simplest_between(lo, hi):
    shift = math.floor(lo)
    a, b = Fraction(lo) - shift, Fraction(hi) - shift
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


def test_12_periodicity_plumbing():
    # synthetic rational invariants are recovered exactly
    frac, err = best_rational(0.25)
    exact_ok = frac == Fraction(1, 4) and err == 0.0
    frac, err = best_rational(1.0 / 3.0)
    exact_ok &= frac == Fraction(1, 3) and err < 1e-15
    # an engineered periodic point closes the immersion
    al = AlphaTriple(2, 1, -1)
    a2 = 1.2
    lo_a1, hi_a1 = 1.62, 1.95  # window avoids the degenerate c2 locus
    mu_lo = _mu_of_a1(al, lo_a1, a2, Branch.MINUS)
    mu_hi = _mu_of_a1(al, hi_a1, a2, Branch.MINUS)
    target = _simplest_between(min(mu_lo, mu_hi) + 1e-9, max(mu_lo, mu_hi) - 1e-9)
    a1_star = brentq(lambda v: _mu_of_a1(al, v, a2, Branch.MINUS) - float(target),
                     lo_a1, hi_a1, xtol=1e-14)
    d = derive_constants(al, ModuliPoint(a1_star, a2, Branch.MINUS))
    fit = rational_fit(d, max_denominator=1000, tol=1e-9)
    periodic_ok = isinstance(fit, LatticeData) and fit.approx_error <= 1e-9
    closure = closure_residual(d, fit, n_samples=50) if periodic_ok else math.inf
    ok = exact_ok and periodic_ok and closure <= 1e-7
    _report(12, ok, f"synthetic fractions recovered exactly: {exact_ok}; "
                    f"engineered point mu = {target}, N = "
                    f"{fit.n_period if periodic_ok else '-'}, closure "
                    f"residual {closure:.2e}")
