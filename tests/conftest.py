import numpy as np
import pytest
from scipy.integrate import quad

from cp2tori.family import (AlphaTriple, Branch, ModuliPoint, conformal_factor,
                            derive_constants)

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


def quad_period_integral(d):
    """Oracle for functionals.period_integral: adaptive quadrature of the
    conformal factor over one period, through scalar sn (the area path
    the closed form replaced)."""
    val, _ = quad(lambda x: conformal_factor(x, d), 0.0, d.period,
                  epsabs=1e-11, epsrel=1e-12, limit=300)
    return val


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
