"""The two-parameter family of Hamiltonian-minimal Lagrangian tori.

Integer weights (alpha1, alpha2, alpha3) and real moduli a1 > a2 > 0
determine, when feasible, derived constants (the root c2 of a quartic,
a3, the Lagrangian-angle slopes, an elliptic modulus and a period) and
immersion data: a conformal factor 2 e^v, radial coefficients F_i and
phase integrals G_i whose combination

    psi(x, y) = (F_i(x) * exp(i (G_i(x) + alpha_i * y)))_i

is a unit horizontal lift of the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from .elliptic import EllipticModulus, complete_k, jacobi_sn, sn2_prime
from .errors import DegenerateParameters, InfeasibleParameters, SingularIntegrand

_QUAD_TOL = 1e-11


@dataclass(frozen=True)
class AlphaTriple:
    """Integer weight triple with its derived symmetric functions.

    b = -(alpha1+alpha2+alpha3) is also the y-slope of the Lagrangian
    angle; c1 = -alpha1*alpha2*alpha3 enters the phase integrands.
    The permissive constructor accepts any integers so that feasibility
    can be *evaluated* anywhere; :meth:`normalized` is the strict entry
    point used by the CLI.
    """

    alpha1: int
    alpha2: int
    alpha3: int

    def __post_init__(self):
        for v in (self.alpha1, self.alpha2, self.alpha3):
            if v != int(v):
                raise ValueError("weights must be integers")

    @property
    def weights(self) -> Tuple[int, int, int]:
        return (self.alpha1, self.alpha2, self.alpha3)

    @property
    def b(self) -> int:
        return -(self.alpha1 + self.alpha2 + self.alpha3)

    @property
    def c(self) -> int:
        a1, a2, a3 = self.weights
        return a1 * a2 + a1 * a3 + a2 * a3

    @property
    def c1(self) -> int:
        return -self.alpha1 * self.alpha2 * self.alpha3

    @property
    def p(self) -> int:
        """-alpha1*alpha3, the scale of the degenerate (alpha2=0) analysis."""
        return -self.alpha1 * self.alpha3

    @property
    def is_ordered(self) -> bool:
        """Loose normal form alpha1 >= alpha2 >= 0 >= alpha3."""
        return self.alpha1 >= self.alpha2 >= 0 >= self.alpha3

    @property
    def is_normalized(self) -> bool:
        """Strict normal form alpha1 > alpha2 >= 0 > alpha3."""
        return self.alpha1 > self.alpha2 >= 0 > self.alpha3

    @property
    def weights_coprime(self) -> bool:
        return math.gcd(self.alpha1 - self.alpha3, self.alpha2 - self.alpha3) == 1

    @classmethod
    def normalized(cls, weights: Iterable[int]) -> Tuple["AlphaTriple", dict]:
        """Reduce a triple by sign flip and permutation to the strict
        normal form; returns the triple and a record of the transform.

        Raises ValueError when no equivalent normal form exists (all
        weights of one sign, a repeated leading weight, a zero trailing
        weight) or when the difference weights are not coprime.
        """
        w = [int(v) for v in weights]
        if len(w) != 3:
            raise ValueError("expected three integer weights")
        flipped = False
        if sum(1 for v in w if v > 0) < sum(1 for v in w if v < 0) or (
            sum(v for v in w) < 0 and sum(1 for v in w if v > 0) == sum(1 for v in w if v < 0)
        ):
            w = [-v for v in w]
            flipped = True
        order = sorted(range(3), key=lambda i: -w[i])
        w_sorted = [w[i] for i in order]
        cand = cls(*w_sorted)
        if not cand.is_normalized:
            # a sign flip of the sorted triple may still work (e.g. two negatives)
            w2 = sorted((-v for v in w), reverse=True)
            cand2 = cls(*w2)
            if cand2.is_normalized:
                cand, flipped = cand2, not flipped
            else:
                raise ValueError(
                    f"weights {tuple(weights)} have no normal form "
                    "alpha1 > alpha2 >= 0 > alpha3")
        if not cand.weights_coprime:
            raise ValueError(
                f"difference weights of {cand.weights} are not coprime")
        return cand, {"flipped_sign": flipped, "sorted_descending": True}


class Branch(Enum):
    """Which positive root of the quartic is taken as c2."""

    MINUS = "minus"
    PLUS = "plus"


@dataclass(frozen=True)
class ModuliPoint:
    """Real moduli a1 > a2 > 0 plus the c2 root-branch choice."""

    a1: float
    a2: float
    branch: Branch = Branch.MINUS

    def __post_init__(self):
        if not (self.a1 > self.a2 > 0):
            raise ValueError(f"need a1 > a2 > 0, got a1={self.a1}, a2={self.a2}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the two feasibility inequalities with diagnostics."""

    feasible: bool
    p_value: float
    discriminant: float

    def __bool__(self) -> bool:
        return self.feasible


def feasibility_check(alpha: AlphaTriple, a1: float, a2: float) -> FeasibilityResult:
    """Evaluate P <= 0 and P^2 - (a1-a2)^2 R^2 >= 0 for the quartic in c2."""
    if not (a1 > a2 > 0):
        raise ValueError(f"need a1 > a2 > 0, got a1={a1}, a2={a2}")
    b, c, c1 = alpha.b, alpha.c, alpha.c1
    P = (a1**3 * a2**2 + a1**2 * a2**3
         + (a1**2 * a2 + a1 * a2**2) * b * c1
         + (a1**2 + a2**2) * c1**2
         + 2 * a1**2 * a2**2 * c)
    R = (a1 + a2) * c1**2 - a1**2 * a2**2 + a1 * a2 * b * c1
    disc = P * P - (a1 - a2) ** 2 * R * R
    return FeasibilityResult(bool(P <= 0) and bool(disc >= 0), float(P), float(disc))


def lemma3_box(alpha: AlphaTriple) -> Tuple[float, float]:
    """The interval [-alpha2*alpha3, -alpha1*alpha3] that must contain
    a2 <= a1 for feasibility (requires the loose normal form)."""
    if not alpha.is_ordered:
        raise ValueError(f"{alpha.weights} is not in normal form "
                         "alpha1 >= alpha2 >= 0 >= alpha3")
    return (float(-alpha.alpha2 * alpha.alpha3), float(-alpha.alpha1 * alpha.alpha3))


def q_cubic(x: float, alpha: AlphaTriple) -> float:
    """Q(x) = -(x + a1a2)(x + a1a3)(x + a2a3); nonnegative at a1, a2 is
    what makes the quartic roots real."""
    a1, a2, a3 = alpha.weights
    return -(x + a1 * a2) * (x + a1 * a3) * (x + a2 * a3)


@dataclass(frozen=True)
class C2Roots:
    minus: float
    plus: float

    def pick(self, branch: Branch) -> float:
        return self.minus if branch is Branch.MINUS else self.plus


def quartic_coefficients(alpha: AlphaTriple, a1: float, a2: float) -> Tuple[float, float, float]:
    """(q4, q2, q0) of the even quartic q4*x^4 + q2*x^2 + q0 solved by c2."""
    res = feasibility_check(alpha, a1, a2)
    R = (a1 + a2) * alpha.c1**2 - a1**2 * a2**2 + a1 * a2 * alpha.b * alpha.c1
    return ((a1 - a2) ** 2, 2.0 * res.p_value, R * R)


def solve_c2(alpha: AlphaTriple, point: ModuliPoint) -> C2Roots:
    """Both positive roots (a1 sqrt(Q(a2)) -+ a2 sqrt(Q(a1)))/(a1 - a2).

    c2 is fixed positive; flipping its sign flips the x-slope of the
    Lagrangian angle and changes nothing that enters the energy bounds
    (only the slope's square is used).
    """
    a1, a2 = point.a1, point.a2
    res = feasibility_check(alpha, a1, a2)
    Qa1 = q_cubic(a1, alpha)
    Qa2 = q_cubic(a2, alpha)
    if Qa1 < 0 or Qa2 < 0 or not res:
        lo, hi = (lemma3_box(alpha) if alpha.is_ordered else (float("nan"),) * 2)
        raise InfeasibleParameters(
            f"(a1, a2)=({a1}, {a2}) infeasible for alpha={alpha.weights}: "
            f"Q(a1)={Qa1:.6g}, Q(a2)={Qa2:.6g}, P={res.p_value:.6g}, "
            f"discriminant={res.discriminant:.6g}",
            p_value=res.p_value, discriminant=res.discriminant, box=(lo, hi))
    s1 = a1 * math.sqrt(Qa2)
    s2 = a2 * math.sqrt(Qa1)
    return C2Roots(minus=abs(s1 - s2) / (a1 - a2), plus=(s1 + s2) / (a1 - a2))


@dataclass(frozen=True)
class DerivedConstants:
    """Everything downstream of (alpha, a1, a2, branch)."""

    alpha: AlphaTriple
    a1: float
    a2: float
    branch: Branch
    c2: float
    a3: float
    slope_x: float  # x-slope of the Lagrangian angle, (b c1 + (a1+a2) a3 - a1 a2)/c2
    slope_y: float  # y-slope, equal to the integer b
    modulus: EllipticModulus
    period: float

    @property
    def sqrt_a1_a3(self) -> float:
        return math.sqrt(self.a1 + self.a3)


def derive_constants(alpha: AlphaTriple, point: ModuliPoint) -> DerivedConstants:
    roots = solve_c2(alpha, point)
    c2 = roots.pick(point.branch)
    a1, a2 = point.a1, point.a2
    if c2 <= 1e-12 * max(1.0, a1 * a1):
        raise DegenerateParameters(
            f"c2 ({point.branch.value} branch) vanishes at (a1, a2)=({a1}, {a2}); "
            "the angle slope a = (...)/c2 is undefined there")
    a3 = (alpha.c1**2 + c2**2) / (a1 * a2)
    slope_x = (alpha.b * alpha.c1 + a1 * a3 + a2 * a3 - a1 * a2) / c2
    # (a1-a2)/(a1+a3) is the *parameter* m = k^2 of the sn in the conformal
    # factor: only then does (d/dx 2e^v)^2 = 4(a1-2e^v)(2e^v-a2)(2e^v+a3)
    # hold, which is what makes the immersion conformal.
    modulus = EllipticModulus(math.sqrt((a1 - a2) / (a1 + a3)))
    period = 2.0 * complete_k(modulus) / math.sqrt(a1 + a3)
    return DerivedConstants(
        alpha=alpha, a1=a1, a2=a2, branch=point.branch, c2=c2, a3=a3,
        slope_x=slope_x, slope_y=float(alpha.b), modulus=modulus, period=period)


# ----------------------------------------------------------------------
# Immersion data
# ----------------------------------------------------------------------


def conformal_factor(x, d: DerivedConstants):
    """2 e^{v(x)} = a1 - (a1 - a2) sn^2(x sqrt(a1+a3), k); accepts scalars
    or numpy arrays, oscillates between a1 (at x=0) and a2 (at x=T/2)."""
    root = d.sqrt_a1_a3
    if np.ndim(x) == 0:
        s = jacobi_sn(float(x) * root, d.modulus)
        return d.a1 - (d.a1 - d.a2) * s * s
    xs = np.asarray(x, dtype=float)
    sn = np.array([jacobi_sn(v * root, d.modulus) for v in xs.ravel()])
    return (d.a1 - (d.a1 - d.a2) * sn * sn).reshape(xs.shape)


def conformal_factor_prime(x, d: DerivedConstants):
    """d/dx of the conformal factor (analytic, via d(sn^2)/du)."""
    root = d.sqrt_a1_a3
    if np.ndim(x) == 0:
        return -(d.a1 - d.a2) * root * sn2_prime(float(x) * root, d.modulus)
    xs = np.asarray(x, dtype=float)
    vals = np.array([sn2_prime(v * root, d.modulus) for v in xs.ravel()])
    return (-(d.a1 - d.a2) * root * vals).reshape(xs.shape)


def _f_denominators(alpha: AlphaTriple) -> np.ndarray:
    a = alpha.weights
    return np.array([
        (a[0] - a[1]) * (a[0] - a[2]),
        (a[1] - a[0]) * (a[1] - a[2]),
        (a[2] - a[0]) * (a[2] - a[1]),
    ], dtype=float)


def _f_offsets(alpha: AlphaTriple) -> np.ndarray:
    a = alpha.weights
    return np.array([a[1] * a[2], a[0] * a[2], a[0] * a[1]], dtype=float)


def f_from_conformal(cf, alpha: AlphaTriple) -> np.ndarray:
    """Radial coefficients F_i from a conformal-factor value (or array);
    returns shape (3,) or (3, n)."""
    den = _f_denominators(alpha)
    off = _f_offsets(alpha)
    cf_arr = np.asarray(cf, dtype=float)
    rad = (cf_arr[..., None] + off) / den
    tol = -1e-12 * max(1.0, float(np.max(np.abs(cf_arr))))
    if np.any(rad < tol):
        raise InfeasibleParameters(
            f"negative radicand in F_i at conformal factor {cf_arr!r}; "
            "moduli outside the feasible box")
    out = np.sqrt(np.clip(rad, 0.0, None))
    return np.moveaxis(out, -1, 0)


def f_coefficients(x: float, d: DerivedConstants) -> np.ndarray:
    """(F_1, F_2, F_3)(x); satisfies sum F^2 = 1, sum alpha F^2 = 0,
    sum alpha^2 F^2 = conformal factor."""
    return f_from_conformal(conformal_factor(x, d), d.alpha)


def phase_denominator_range(d: DerivedConstants, i: int) -> Tuple[float, float]:
    """Range of 2 e^v + alpha_j alpha_k over one period (monotone in e^v).

    Since c1 = -alpha_i alpha_j alpha_k, the weight alpha_i cancels out of
    the phase integrand denominator 2 alpha_i e^v - c1 = alpha_i (2 e^v +
    alpha_j alpha_k); this reduced form also covers alpha_i = 0 (where the
    raw quotient would be 0/0 but the family limit is regular).
    """
    off = _f_offsets(d.alpha)[i]
    return d.a2 + off, d.a1 + off


def _check_phase_denominator(d: DerivedConstants, i: int) -> None:
    lo, hi = phase_denominator_range(d, i)
    scale = d.a1 + abs(_f_offsets(d.alpha)[i]) + 1.0
    if lo <= 0.0 <= hi or min(abs(lo), abs(hi)) < 1e-8 * scale:
        raise SingularIntegrand(
            f"phase denominator 2 e^v + alpha_j alpha_k (i = {i + 1}) ranges "
            f"over [{lo:.3g}, {hi:.3g}]; too close to zero for quadrature")


def _phase_rate(cf, d: DerivedConstants, offset):
    """G_i' = (c2 - a cf / 2) / (cf + alpha_j alpha_k) at conformal-factor
    value(s) cf, for the offset(s) alpha_j alpha_k of the components."""
    return (d.c2 - 0.5 * d.slope_x * cf) / (cf + offset)


def g_integrand(x: float, d: DerivedConstants, i: int) -> float:
    return _phase_rate(conformal_factor(x, d), d, _f_offsets(d.alpha)[i])


def g_phase(x: float, d: DerivedConstants, i: int, tol: float = 1e-10) -> float:
    """G_i(x): the phase integral from 0 to x.  The integrand has period T,
    so x = qT + r gives G_i(r) + q G_i(T) with two adaptive quadratures
    over at most one period, however large x is."""
    if x == 0.0:
        return 0.0
    _check_phase_denominator(d, i)

    def integral(upper):
        val, _err = quad(g_integrand, 0.0, upper, args=(d, i),
                         epsabs=min(tol, _QUAD_TOL), epsrel=1e-12, limit=400)
        return val

    q, r = divmod(x, d.period)
    if q == 0.0:
        return integral(x)
    return (integral(r) if r else 0.0) + q * integral(d.period)


def g_phases(x: float, d: DerivedConstants, tol: float = 1e-10) -> np.ndarray:
    return np.array([g_phase(x, d, i, tol) for i in range(3)])


def g_phases_cumulative(xs: Sequence[float], d: DerivedConstants,
                        tol: float = 1e-10) -> np.ndarray:
    """G_i at an increasing grid of x values, shape (3, n); integrates
    piecewise so a whole grid costs one pass.  A grid that leaves the
    first period is taken point by point through g_phase, which reduces
    x by the period."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.diff(xs) < 0):
        raise ValueError("grid must be non-decreasing")
    if xs.size and xs[-1] > d.period:
        return np.array([g_phases(x, d, tol) for x in xs]).T
    out = np.zeros((3, xs.size))
    for i in range(3):
        _check_phase_denominator(d, i)
        acc = 0.0
        prev = 0.0
        for j, xj in enumerate(xs):
            if xj != prev:
                seg, _ = quad(g_integrand, prev, xj, args=(d, i),
                              epsabs=min(tol, _QUAD_TOL), epsrel=1e-12, limit=200)
                acc += seg
                prev = xj
            out[i, j] = acc
    return out


def lift(x: float, y: float, d: DerivedConstants,
         g_values: Optional[np.ndarray] = None) -> np.ndarray:
    """Unit horizontal lift psi(x, y) in C^3."""
    F = f_coefficients(x, d)
    G = g_phases(x, d) if g_values is None else np.asarray(g_values, dtype=float)
    alphas = np.array(d.alpha.weights, dtype=float)
    return F * np.exp(1j * (G + alphas * y))
