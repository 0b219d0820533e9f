"""Elliptic integrals, Carlson's symmetric forms and the Jacobi sn, cn
functions: the kernels of the torus family's closed forms.

Conventions: the second argument is the *modulus* k, i.e. the integrand of
the incomplete integral is 1/sqrt(1 - k^2 sin^2(phi)), and it is the
modulus (not k^2) that the torus family passes around.

Algorithms: K and D = (K - E)/k^2 come from one arithmetic-geometric mean
run (:func:`complete_kd`, which gives D without cancellation), the phase
integrals from Carlson's symmetric forms R_F and R_J by duplication, and
sn, cn from a descending Landen transformation.  :func:`complete_kd` takes
a float modulus, for which it returns floats without numpy, or an array of
moduli, which the energy scan needs; R_F, R_J, sn and cn work elementwise
on numpy arrays.  The test suite checks them against direct adaptive
quadrature of the defining integral, scipy.special and mpmath.  Relative
accuracy is about 1e-13 for k <= 0.99; k >= 1 is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with 0 <= k < 1: a float for one point, or a numpy array
    of moduli for a grid of points, every element checked."""

    k: float

    def __post_init__(self):
        k = self.k
        if isinstance(k, np.ndarray):
            valid = (k >= 0.0) & (k < 1.0)
            if valid.all():
                return
            k = float(k.flat[np.argmin(valid)])  # named in the error below
        if not 0.0 <= k < 1.0:  # false for NaN too
            raise ValueError(f"elliptic modulus must satisfy 0 <= k < 1, got {k}")


def _as_k(k):
    """k as a checked float, or as a checked float array for an array
    with at least one dimension."""
    if isinstance(k, EllipticModulus):
        return k.k
    if isinstance(k, np.ndarray) and k.ndim:
        return EllipticModulus(k.astype(float)).k
    return EllipticModulus(float(k)).k


# One formula serves a float (math) and an array (numpy) argument.

def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _where(run, new, old):
    """np.where for an array run; a float run that steps at all takes the
    new value."""
    return np.where(run, new, old) if isinstance(run, np.ndarray) else new


def _carlson_rf(x, y, z):
    """Carlson R_F(x, y, z) by the duplication theorem (x, y, z >= 0,
    at most one zero), elementwise over numpy arrays."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    A = (x + y + z) / 3.0
    Q = (3.0e-16) ** (-1.0 / 8.0) * np.maximum.reduce([abs(A - x), abs(A - y), abs(A - z)])
    f = 1.0
    while np.any(Q >= abs(A) * f):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
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
    ) / np.sqrt(A)


def _carlson_rj(x, y, z, p):
    """Carlson R_J(x, y, z, p) for x, y, z >= 0 (at most one zero) and
    p > 0, elementwise over numpy arrays (Carlson 1995, algorithm for R_J;
    DLMF 19.36.ii).  Each duplication step adds a term
    4^-m R_C(1, 1 + e_m) / d_m, with R_C(1, 1 + t) = arctan(sqrt t)/sqrt t
    (artanh for t < 0); |e_m| < 1, so the artanh branch stays finite."""
    x, y, z, p = (np.asarray(v, dtype=float) for v in (x, y, z, p))
    x0, y0, z0 = x, y, z
    A0 = (x + y + z + 2.0 * p) / 5.0
    delta = (p - x) * (p - y) * (p - z)
    Q = (0.25e-16) ** (-1.0 / 6.0) * np.maximum.reduce(
        [abs(A0 - x), abs(A0 - y), abs(A0 - z), abs(A0 - p)])
    A = A0
    total = np.zeros(np.broadcast(x, y, z, p).shape)
    f = 1.0  # 4^m
    while np.any(Q >= abs(A) * f):
        sx, sy, sz, sp = np.sqrt(x), np.sqrt(y), np.sqrt(z), np.sqrt(p)
        lam = sx * sy + sy * sz + sz * sx
        dm = (sp + sx) * (sp + sy) * (sp + sz)
        t = delta / (f ** 3 * dm * dm)
        r = np.sqrt(abs(t))
        with np.errstate(invalid="ignore", divide="ignore"):
            rc = np.where(t > 0, np.arctan(r) / r,
                          np.where(t < 0, np.arctanh(r) / r, 1.0))
        total = total + rc / (f * dm)
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        p = 0.25 * (p + lam)
        A = 0.25 * (A + lam)
        f *= 4.0
    # A_m - x_m = (A0 - x0) / 4^m, taken from the unreduced values
    X = (A0 - x0) / (f * A)
    Y = (A0 - y0) / (f * A)
    Z = (A0 - z0) / (f * A)
    P = -(X + Y + Z) / 2.0
    E2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    E3 = X * Y * Z + 2.0 * E2 * P + 4.0 * P ** 3
    E4 = (2.0 * X * Y * Z + E2 * P + 3.0 * P ** 3) * P
    E5 = X * Y * Z * P * P
    series = (1.0 - 3.0 * E2 / 14.0 + E3 / 6.0 + 9.0 * E2 * E2 / 88.0
              - 3.0 * E4 / 22.0 - 9.0 * E2 * E3 / 52.0 + 3.0 * E5 / 26.0)
    return series / (f * A * np.sqrt(A)) + 6.0 * total


def complete_kd(k):
    """K(k) and D(k) = (K(k) - E(k)) / k^2 from one AGM run.

    D comes from K - E = K * sum_{n>=0} 2^(n-1) c_n^2 (DLMF 19.8.6) with
    c_0 = k and c_n = c_{n-1}^2 / (4 a_n), divided by k^2 term by term:
    D = K (1/2 + sum_{n>=1} 2^(n-1) (c_n/k)^2).  K and E are never
    subtracted, so D keeps full relative accuracy down to k = 0, where
    D = pi/4.  A float for a scalar k (or an EllipticModulus holding one),
    without numpy; elementwise over an array of k, where an element stops
    its run at the step a float run would stop, so it equals the float
    call bit for bit.
    """
    k = _as_k(k)
    a = 1.0
    b = _sqrt((1.0 - k) * (1.0 + k))
    q = 1.0    # c_n / k
    w = 1.0    # 2^(n-1)
    s = 0.5
    for _ in range(40):  # quadratic convergence; 8 steps suffice for k <= 1 - 1e-12
        run = abs(a - b) > 4e-16 * a
        if not (run.any() if isinstance(run, np.ndarray) else run):
            break
        a, b = _where(run, 0.5 * (a + b), a), _where(run, _sqrt(a * b), b)
        q = _where(run, k * q * q / (4.0 * a), q)
        s = _where(run, s + w * q * q, s)
        w *= 2.0
    K = math.pi / (a + b)
    return K, K * s


def _sn_cn(u, k: float, K: float):
    """sn(u, k) and cn(u, k) elementwise by descending Landen (DLMF 22.7.1,
    22.7.2), with K = K(k) from the caller's AGM run.  cn is carried as a
    product from cos at the bottom of the ladder, not taken as
    sqrt(1 - sn^2), so it keeps its relative accuracy where it vanishes
    (u near an odd multiple of K)."""
    u = np.asarray(u, dtype=float)
    if k == 0.0:
        return np.sin(u), np.cos(u)
    # sn and cn have period 4K; reduce u into [-2K, 2K]
    u = u - 4.0 * K * np.floor(u / (4.0 * K) + 0.5)
    ladder, kl = [], k  # descending moduli k -> k1 -> ... until negligible
    while kl > 1e-13:
        kp = math.sqrt((1.0 - kl) * (1.0 + kl))
        kl = (1.0 - kp) / (1.0 + kp)
        ladder.append(kl)
    v = u
    for ki in ladder:
        v = v / (1.0 + ki)
    s, c = np.sin(v), np.cos(v)
    for ki in reversed(ladder):
        den = 1.0 + ki * s * s
        c = c * np.sqrt((1.0 - ki * s) * (1.0 + ki * s)) / den
        s = (1.0 + ki) * s / den
    return s, c

