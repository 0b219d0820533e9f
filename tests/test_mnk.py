import math

import numpy as np
import pytest

from cp2tori.mnk import MnkParams, curve_point, is_torus


def _transported_orientation(p, samples=10):
    """Oracle for is_torus: compare the orientation of a finite-difference
    tangent frame (e1, e2) at curve points u, against the gradient normal,
    with that of its image (sigma e1, sigma e2) at sigma u.  Raises if the
    sample frames are all degenerate or disagree."""
    sigma = np.array(p.involution_signs, dtype=float)

    def gradient(u):
        return 2.0 * np.array([p.m * u[0], p.n * u[1], p.k * u[2]])

    decisions = []
    for i in range(samples):
        t = 0.37 + 2.0 * math.pi * i / samples
        u = curve_point(p, t)
        h = 1e-6
        e1 = (curve_point(p, t + h) - curve_point(p, t - h)) / (2.0 * h)
        e2 = u  # radial, tangent because the quadric is homogeneous
        d1 = float(np.linalg.det(np.array([gradient(u), e1, e2])))
        if abs(d1) < 1e-12:
            continue
        d2 = float(np.linalg.det(np.array([gradient(sigma * u), sigma * e1, sigma * e2])))
        decisions.append(d1 * d2 > 0)
    if not decisions:
        raise RuntimeError("all sample frames degenerate")
    if len(set(decisions)) != 1:
        raise RuntimeError("orientation decision not sample-independent")
    return decisions[0]


def test_params_validation():
    MnkParams(2, 1, -1)
    for bad in [(1, 2, -1), (1, 0, -1), (1, 1, 1), (2, 1, 0)]:
        with pytest.raises(ValueError):
            MnkParams(*bad)


def test_curve_constraints_along_grid():
    for trip in [(2, 1, -1), (3, 2, -2), (5, 1, -3), (4, 4, -1)]:
        p = MnkParams(*trip)
        for t in np.linspace(0.0, 2.0 * math.pi, 64):
            u = curve_point(p, t)
            assert abs(u @ u - 1.0) <= 1e-12
            assert abs(p.m * u[0] ** 2 + p.n * u[1] ** 2 + p.k * u[2] ** 2) <= 1e-12


def test_curve_closes():
    p = MnkParams(3, 2, -2)
    assert np.allclose(curve_point(p, 0.0), curve_point(p, 2.0 * math.pi), atol=1e-12)


def test_symmetric_circle_case():
    p = MnkParams(1, 1, -1)
    for t in (0.0, 1.0, 2.5):
        u = curve_point(p, t)
        assert u[2] ** 2 == pytest.approx(0.5, abs=1e-12)
        assert u[0] ** 2 + u[1] ** 2 == pytest.approx(0.5, abs=1e-12)


def test_all_even_is_torus():
    assert is_torus(MnkParams(2, 2, -2))
    assert is_torus(MnkParams(4, 2, -2))


def test_is_torus_depends_only_on_parities():
    # exhaustive parity sweep with two representatives per parity class
    results = {}
    reps = {(0, 0, 0): [(2, 2, -2), (4, 2, -4)],
            (0, 0, 1): [(2, 2, -1), (4, 2, -3)],
            (0, 1, 0): [(4, 1, -2), (2, 1, -4)],
            (0, 1, 1): [(2, 1, -1), (4, 3, -3)],
            (1, 0, 0): [(3, 2, -2), (5, 4, -2)],
            (1, 0, 1): [(3, 2, -1), (5, 2, -3)],
            (1, 1, 0): [(3, 1, -2), (5, 3, -4)],
            (1, 1, 1): [(1, 1, -1), (3, 3, -5)]}
    for parity, triples in reps.items():
        vals = {is_torus(MnkParams(*t)) for t in triples}
        assert len(vals) == 1, f"parity {parity} not well-defined"
        results[parity] = vals.pop()
    # orientation is preserved exactly when the involution has det +1,
    # i.e. when m + n + k is even -- an empirical invariant checked here
    for (pm, pn, pk), val in results.items():
        assert val == ((pm + pn + pk) % 2 == 0)


def test_parity_rule_matches_frame_transport():
    cases = [(m, n, k) for m in range(1, 9) for n in range(1, m + 1)
             for k in range(-1, -9, -1)]
    assert len(cases) == 288
    for trip in cases:
        p = MnkParams(*trip)
        assert is_torus(p) == _transported_orientation(p), trip


def test_decision_sample_independent():
    # the oracle raises if its sample frames ever disagree; probing more
    # points exercises that consistency check
    for trip in [(6, 4, -2), (5, 3, -1)]:
        p = MnkParams(*trip)
        assert _transported_orientation(p, samples=25) == is_torus(p)
