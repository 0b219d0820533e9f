"""Elliptic integrals of the first kind and the Jacobi sn function.

Conventions: the second argument is the *modulus* k, i.e. the integrand of
the incomplete integral is 1/sqrt(1 - k^2 sin^2(phi)), and it is the
modulus (not k^2) that the torus family passes around.

Algorithms: the complete integral uses the arithmetic-geometric mean (which
also gives D = (K - E)/k^2 without cancellation, see :func:`complete_kd`), the
incomplete integral the Carlson symmetric form R_F, and sn a descending
Landen transformation; each is validated in the test suite against direct
adaptive quadrature of the defining integral.  Relative accuracy is about
1e-13 for k <= 0.99; k >= 1 is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with 0 <= k < 1."""

    k: float

    def __post_init__(self):
        if not (0.0 <= self.k < 1.0) or math.isnan(self.k):
            raise ValueError(f"elliptic modulus must satisfy 0 <= k < 1, got {self.k}")

    @property
    def k2(self) -> float:
        return self.k * self.k


def _as_k(k) -> float:
    if isinstance(k, EllipticModulus):
        return k.k
    return EllipticModulus(float(k)).k


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson R_F(x, y, z) by the duplication theorem (x, y, z >= 0,
    at most one zero)."""
    A = (x + y + z) / 3.0
    Q = (3.0e-16) ** (-1.0 / 8.0) * max(abs(A - x), abs(A - y), abs(A - z))
    f = 1.0
    while Q >= abs(A) * f:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        f *= 4.0
    # A stays the mean of (x, y, z) through the iteration
    X = (A - x) / A
    Y = (A - y) / A
    Z = -(X + Y)
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    return (
        1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0
        - 5.0 * E2 ** 3 / 208.0 + 3.0 * E3 * E3 / 104.0 + E2 * E2 * E3 / 16.0
    ) / math.sqrt(A)


def complete_k(k) -> float:
    """Complete elliptic integral K(k) = F(pi/2, k), by AGM iteration."""
    kk = _as_k(k)
    if kk == 0.0:
        return 0.5 * math.pi
    a = 1.0
    b = math.sqrt((1.0 - kk) * (1.0 + kk))
    for _ in range(40):  # quadratic convergence; 8 steps suffice for k <= 1 - 1e-12
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def complete_kd(k) -> Tuple[float, float]:
    """K(k) and D(k) = (K(k) - E(k)) / k^2 from one AGM run.

    The run is the one :func:`complete_k` makes, so K has the same bits.
    D comes from K - E = K * sum_{n>=0} 2^(n-1) c_n^2 (DLMF 19.8.6) with
    c_0 = k and c_n = c_{n-1}^2 / (4 a_n), divided by k^2 term by term:
    D = K (1/2 + sum_{n>=1} 2^(n-1) (c_n/k)^2).  K and E are never
    subtracted, so D keeps full relative accuracy down to k = 0, where
    D = pi/4.
    """
    kk = _as_k(k)
    if kk == 0.0:
        return 0.5 * math.pi, 0.25 * math.pi
    a = 1.0
    b = math.sqrt((1.0 - kk) * (1.0 + kk))
    q = 1.0    # c_n / k
    w = 1.0    # 2^(n-1)
    s = 0.5
    for _ in range(40):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        q = kk * q * q / (4.0 * a)
        s += w * q * q
        w *= 2.0
    K = math.pi / (a + b)
    return K, K * s


def incomplete_f(theta: float, k) -> float:
    """Incomplete elliptic integral F(theta, k) of the first kind.

    Strictly increasing in theta, with F(theta + pi, k) = F(theta, k) + 2K(k).
    """
    kk = _as_k(k)
    if math.isnan(theta) or math.isinf(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if kk == 0.0:
        return theta
    # reduce to phi in [-pi/2, pi/2]: F(phi + n*pi) = F(phi) + 2nK
    n = math.floor(theta / math.pi + 0.5)
    phi = theta - n * math.pi
    base = 2.0 * n * complete_k(kk) if n else 0.0
    s = math.sin(phi)
    c = math.cos(phi)
    if abs(phi) >= 0.5 * math.pi:  # phi == +-pi/2 up to rounding
        sgn = 1.0 if phi > 0 else -1.0
        return base + sgn * complete_k(kk)
    return base + s * _carlson_rf(c * c, (1.0 - kk * s) * (1.0 + kk * s), 1.0)


def _landen_ladder(k: float):
    """Descending moduli k -> k1 -> ... until negligible."""
    ladder = []
    while k > 1e-13:
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        k = (1.0 - kp) / (1.0 + kp)
        ladder.append(k)
    return ladder


def jacobi_sn(u: float, k) -> float:
    """Jacobi sn(u, k): the inverse of incomplete_f, sn(F(theta,k),k) = sin(theta)."""
    kk = _as_k(k)
    if kk == 0.0:
        return math.sin(u)
    K = complete_k(kk)
    # sn has period 4K; reduce u into [-2K, 2K]
    m = math.floor(u / (4.0 * K) + 0.5)
    if m:
        u = u - 4.0 * K * m
    ladder = _landen_ladder(kk)
    v = u
    for ki in ladder:
        v /= 1.0 + ki
    s = math.sin(v)
    for ki in reversed(ladder):
        s = (1.0 + ki) * s / (1.0 + ki * s * s)
    return s


def sn2_prime(u: float, k) -> float:
    """Derivative of sn(u, k)^2 with respect to u.

    Equals 2 sn cn dn; the sign is fixed by where u sits in the 2K-period
    of sn^2 (increasing on [0, K), decreasing on [K, 2K)).
    """
    kk = _as_k(k)
    if kk == 0.0:
        return math.sin(2.0 * u)
    K = complete_k(kk)
    s = jacobi_sn(u, kk)
    s2 = s * s
    mag = 2.0 * math.sqrt(max(s2 * (1.0 - s2) * (1.0 - kk * kk * s2), 0.0))
    phase = math.fmod(u, 2.0 * K)
    if phase < 0.0:
        phase += 2.0 * K
    return mag if phase < K else -mag
