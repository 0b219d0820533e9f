import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipj

from cp2tori.elliptic import _carlson_rf
from cp2tori.family import (AlphaTriple, Branch, ModuliPoint, conformal_factor,
                            derive_constants)
from cp2tori.functionals import feasible_grid
from cp2tori.immersion import _det_at, _unit_frame

# triples used throughout the sweeps (all normalized, coprime differences)
CANONICAL_TRIPLES = [(2, 1, -1), (3, 1, -1), (3, 2, -1), (1, 0, -1), (2, 0, -1)]

# Steps of the alpha2 = 0 minus-branch chain that inherit the paper's sign
# slip (README "Audit findings"): the slope display divides a bracket that
# is negative for x + y < 4/3 by the upper end of the c2 sandwich; the
# other two are its squared form and the Willmore bound derived from it.
SLOPE_SLIP_STEP = "((a1+a2) p xy/(2s) - a1 a2)/c2 >= sqrt(p) beta sqrt(s)"
SIGN_SLIP_STEPS = (
    SLOPE_SLIP_STEP,
    "2 pi^2 a^2/sqrt(a1+a3) >= 2 pi^2 sqrt(p) beta^2 s/sqrt(x+xy/s)",
    "W >= 2 pi^2 sqrt(p) beta^2 s/sqrt(x+xy/s)",
)


def grid_points(alpha, n, margin=0.02):
    """The points of functionals.feasible_grid as (a1, a2) float pairs,
    in its order."""
    return list(zip(*(c.tolist() for c in feasible_grid(alpha, n, margin))))


def carlson_f(theta, k):
    """F(theta, k) for |theta| <= pi/2 as sin(theta) R_F(cos^2 theta,
    1 - k^2 sin^2 theta, 1) (DLMF 19.25.5), by the R_F kernel that
    family.g_phases runs; elementwise over an array of theta."""
    s, c = np.sin(theta), np.cos(theta)
    return s * _carlson_rf(c * c, (1.0 - k * s) * (1.0 + k * s), 1.0)


def quad_period_integral(d):
    """Oracle for functionals.period_integral: adaptive quadrature of the
    conformal factor over one period, through scalar sn (the area path
    the closed form replaced)."""
    val, _ = quad(lambda x: conformal_factor(x, d), 0.0, d.period,
                  epsabs=1e-11, epsrel=1e-12, limit=300)
    return val


def quad_g_phases(x, d):
    """Oracle for family.g_phases at one x: adaptive quadrature of
    G_i' = (c2 - a cf/2)/(cf + alpha_j alpha_k) over the part of x within
    one period, plus q G_i(T) for the q whole periods (the quadrature
    path the closed form replaced), with sn from scipy.special.ellipj."""
    a1, a2, a3 = d.alpha.weights
    q, r = divmod(x, d.period)

    def integral(off, upper):
        def rate(z):
            sn = ellipj(z * d.sqrt_a1_a3, d.modulus.k * d.modulus.k)[0]
            cf = d.a1 - (d.a1 - d.a2) * sn * sn
            return (d.c2 - 0.5 * d.slope_x * cf) / (cf + off)
        val, _ = quad(rate, 0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=400)
        return val

    return np.array([integral(off, r) + (q * integral(off, d.period) if q else 0.0)
                     for off in (a2 * a3, a1 * a3, a1 * a2)])


def angle_willmore(d):
    """Oracle for the Willmore closed form 2 pi T (a^2 + b^2): W is the
    integral of |grad beta|^2 over the cell [0, T) x [0, 2 pi), with the
    Lagrangian angle beta = -arg det of the unitary frame measured on a
    grid by wrap-safe differences (nx, ny chosen so a step of beta stays
    below pi)."""
    nx = int(abs(d.slope_x) * d.period / math.pi) + 16
    ny = 2 * int(abs(d.slope_y)) + 8
    xs = np.linspace(0.0, d.period, nx, endpoint=False)
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    det = _det_at(d, _unit_frame(d, xs)[0][..., None], ys)
    beta_x = np.angle(det[:-1, :] * np.conj(det[1:, :])) / (xs[1] - xs[0])
    beta_y = np.angle(det[:, :-1] * np.conj(det[:, 1:])) / (ys[1] - ys[0])
    return d.period * 2.0 * math.pi * (np.mean(beta_x ** 2) + np.mean(beta_y ** 2))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(scope="session")
def sample_derived():
    """A feasible minus-branch point used by many tests."""
    return derive_constants(AlphaTriple(2, 1, -1), ModuliPoint(1.8, 1.2, Branch.MINUS))


@pytest.fixture(scope="session")
def sample_derived_plus():
    return derive_constants(AlphaTriple(2, 1, -1), ModuliPoint(1.8, 1.2, Branch.PLUS))


@pytest.fixture(scope="session")
def degenerate_derived():
    """A feasible point of the alpha2 = 0 family (minus branch)."""
    return derive_constants(AlphaTriple(1, 0, -1), ModuliPoint(0.9, 0.4, Branch.MINUS))
