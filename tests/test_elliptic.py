import math

import numpy as np
import pytest
from scipy.integrate import quad

from scipy.special import ellipe, ellipj, ellipk, elliprf, elliprj

from cp2tori.elliptic import (EllipticModulus, _carlson_rf, _carlson_rj, _sn_cn,
                              complete_kd)
from conftest import carlson_f


def sn(u, k):
    """sn(u, k) by the Landen kernel, with K from the AGM run."""
    return _sn_cn(u, k, complete_kd(k)[0])[0]


def oracle_f(theta, k):
    """Adaptive quadrature of the defining integral (independent of the
    AGM/Carlson/Landen implementation paths)."""
    val, _ = quad(lambda p: 1.0 / math.sqrt(1.0 - (k * math.sin(p)) ** 2),
                  0.0, theta, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def test_modulus_validation():
    EllipticModulus(0.0)
    EllipticModulus(0.999)
    with pytest.raises(ValueError):
        EllipticModulus(1.0)
    with pytest.raises(ValueError):
        EllipticModulus(-0.1)
    with pytest.raises(ValueError):
        EllipticModulus(float("nan"))


def test_complete_k_values():
    assert complete_kd(0.0)[0] == math.pi / 2
    # frozen from the defining-integral oracle
    assert complete_kd(0.8)[0] == pytest.approx(1.9953027776647292, abs=1e-12)
    assert abs(complete_kd(0.8)[0] - 1.9953) < 1e-4
    assert complete_kd(0.5)[0] == pytest.approx(1.685750354812596, abs=1e-12)
    k99 = complete_kd(0.99)[0]
    assert k99 > 3.0 and math.isfinite(k99)
    assert k99 == pytest.approx(oracle_f(math.pi / 2, 0.99), rel=1e-12)


def test_complete_kd_against_scipy():
    # scipy.special takes the parameter m = k^2
    for k in [0.0, 1e-5, *np.linspace(1e-3, 0.999, 400)]:
        K, D = complete_kd(k)
        m = k * k
        assert K == pytest.approx(ellipk(m), rel=2e-15)
        # E = K - k^2 D and K - E = k^2 D, to the rounding of K and E
        assert K - m * D == pytest.approx(ellipe(m), rel=2e-15)
        assert m * D == pytest.approx(ellipk(m) - ellipe(m), abs=2e-15 * K)


def test_complete_kd_small_modulus():
    assert complete_kd(0.0) == (math.pi / 2, math.pi / 4)
    # D = (pi/4)(1 + 3m/8 + 15m^2/64 + ...): (K - E)/k^2 from scipy would
    # lose half its digits here, the series does not
    for k in (1e-5, 1e-3):
        m = k * k
        series = 0.25 * math.pi * (1.0 + 3.0 * m / 8.0 + 15.0 * m * m / 64.0)
        assert complete_kd(k)[1] == pytest.approx(series, rel=1e-15)


def test_complete_kd_is_elementwise():
    # an array of moduli gives the scalar calls' K and D, bit for bit
    ks = [0.0, 1e-8, 0.5, 0.99, 1.0 - 1e-12]
    K, D = complete_kd(np.array(ks))
    assert K.shape == D.shape == (len(ks),)
    assert [(float(a), float(b)) for a, b in zip(K, D)] == [complete_kd(k) for k in ks]
    K2, D2 = complete_kd(np.array(ks).reshape(5, 1))
    assert K2.shape == (5, 1) and np.array_equal(K2.ravel(), K)
    assert complete_kd(np.empty(0))[0].shape == (0,)
    assert type(complete_kd(0.5)[0]) is float
    for bad in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="0 <= k < 1"):
            complete_kd(np.array([0.5, bad, 0.2]))
        with pytest.raises(ValueError, match="0 <= k < 1"):
            complete_kd(bad)


def test_complete_kd_against_mpmath():
    import mpmath
    with mpmath.workdps(40):
        for k in (0.01, 0.2, 0.5, 0.8, 0.95, 0.999):
            m = mpmath.mpf(k) ** 2
            ref = (mpmath.ellipk(m) - mpmath.ellipe(m)) / m
            assert complete_kd(k)[1] == pytest.approx(float(ref), rel=2e-15)


def test_complete_k_exceeds_pi_half():
    for k in (0.05, 0.3, 0.6, 0.9):
        assert complete_kd(k)[0] > math.pi / 2


def test_incomplete_f_against_quadrature(rng):
    # the R_F form is F on |theta| <= pi/2, the range g_phases reduces to
    for _ in range(200):
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        k = rng.uniform(0.0, 0.95)
        assert carlson_f(theta, k) == pytest.approx(oracle_f(theta, k), abs=1e-11)


def test_incomplete_f_monotone_grid():
    thetas = np.linspace(0.0, math.pi / 2, 201)
    for k in (0.0, 0.4, 0.8, 0.95):
        vals = [carlson_f(t, k) for t in thetas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sn_trivial():
    assert sn(0.73, 0.0) == math.sin(0.73)
    for k in (0.0, 0.3, 0.9):
        assert sn(0.0, k) == 0.0


def test_sn_at_quarter_period():
    K = complete_kd(0.6)[0]
    assert sn(K, 0.6) == pytest.approx(1.0, abs=1e-12)


def test_sn_roundtrip(rng):
    for _ in range(400):
        theta = rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9)
        k = rng.uniform(0.0, 0.95)
        s = sn(carlson_f(theta, k), k)
        assert abs(s - math.sin(theta)) <= 1e-10


def test_sn_bounded_and_periodic(rng):
    for _ in range(200):
        u = rng.uniform(-30.0, 30.0)
        k = rng.uniform(0.0, 0.95)
        s = sn(u, k)
        assert abs(s) <= 1.0 + 1e-15
        K2 = 2.0 * complete_kd(k)[0]
        assert abs(sn(u + K2, k) ** 2 - s * s) <= 1e-10


def test_sn_degenerate_modulus_agreement(rng):
    for _ in range(100):
        u = rng.uniform(-10.0, 10.0)
        assert abs(sn(u, 0.0) - math.sin(u)) <= 1e-12


def test_sn2_prime_matches_finite_differences(rng):
    # d(sn^2)/du = 2 sn cn dn, the form conformal_factor_prime uses
    h = 1e-6
    for _ in range(100):
        u = rng.uniform(-8.0, 8.0)
        k = rng.uniform(0.01, 0.95)
        fd = (sn(u + h, k) ** 2 - sn(u - h, k) ** 2) / (2.0 * h)
        s, c = _sn_cn(u, k, complete_kd(k)[0])
        assert 2.0 * s * c * math.sqrt(1.0 - (k * s) ** 2) == pytest.approx(fd, abs=5e-9)


def test_sn_cn_arrays_against_scipy(rng):
    u = rng.uniform(-30.0, 30.0, 500)
    for k in (0.0, 0.3, 0.9, 0.99):
        s, c = _sn_cn(u, k, complete_kd(k)[0])
        sr, cr, _, _ = ellipj(u, k * k)  # scipy takes m = k^2
        assert np.abs(s - sr).max() <= 2e-14 and np.abs(c - cr).max() <= 2e-14
        # elementwise: a scalar u gives the array's value
        assert all(sn(float(v), k) == sv for v, sv in zip(u[:20], s[:20]))
        assert isinstance(sn(float(u[0]), k), float)


def test_cn_keeps_relative_accuracy_near_its_zeros():
    # cn is carried as a product, not sqrt(1 - sn^2), which would lose
    # half its digits where u is near an odd multiple of K
    import mpmath
    k = 0.8
    K = complete_kd(k)[0]
    for u in (K - 1e-3, K - 1e-7, K + 1e-9, 3 * K + 1e-5):
        ref = float(mpmath.ellipfun("cn", mpmath.mpf(u), m=mpmath.mpf(k) ** 2))
        assert _sn_cn(u, k, K)[1] == pytest.approx(ref, rel=1e-8, abs=1e-15)


def test_carlson_rj_against_scipy_and_mpmath(rng):
    import mpmath
    x, y, p = rng.uniform(0.0, 3.0, (3, 2000))
    z = rng.uniform(0.01, 3.0, 2000)
    p = p * 30.0 + 1e-3
    x[:200] = 0.0  # the complete integrals Pi(n) take x = 0
    ref = elliprj(x, y, z, p)
    assert np.abs(_carlson_rj(x, y, z, p) / ref - 1.0).max() <= 5e-15
    for args in [(0.0, 0.36, 1.0, 0.2), (0.5, 0.9, 1.0, 3.7), (1e-9, 0.1, 1.0, 1.0)]:
        assert float(_carlson_rj(*args)) == pytest.approx(
            float(mpmath.elliprj(*args)), rel=5e-15)


def test_carlson_rf_against_scipy_and_mpmath(rng):
    import mpmath
    x, y = rng.uniform(0.0, 3.0, (2, 2000))
    z = rng.uniform(0.01, 3.0, 2000)
    x[:200] = 0.0  # cn = 0 at u = K gives g_phases R_F(0, 1 - k^2, 1)
    ref = elliprf(x, y, z)
    assert np.abs(_carlson_rf(x, y, z) / ref - 1.0).max() <= 5e-15
    for args in [(0.0, 0.36, 1.0), (0.5, 0.9, 1.0), (1e-9, 0.1, 1.0), (2.0, 3.0, 4.0)]:
        assert float(_carlson_rf(*args)) == pytest.approx(
            float(mpmath.elliprf(*args)), rel=5e-15)
