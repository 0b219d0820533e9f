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
from typing import Iterable, Tuple

import numpy as np

from .elliptic import (EllipticModulus, _carlson_rf, _carlson_rj, _sn_cn, _sqrt,
                       complete_kd, jacobi_sn)
from .errors import DegenerateParameters, InfeasibleParameters, SingularIntegrand


@dataclass(frozen=True)
class AlphaTriple:
    """Integer weight triple with its derived symmetric functions.

    b = -(alpha1+alpha2+alpha3) is also the y-slope of the Lagrangian
    angle; c1 = -alpha1*alpha2*alpha3 enters the phase integrands.
    The permissive constructor accepts any integers so that feasibility
    can be *evaluated* anywhere; :meth:`normalized` reduces a triple to
    the strict normal form, for callers that want one.
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
        _require_ordered(self.a1, self.a2)


def _require_ordered(a1: float, a2: float) -> None:
    if not (a1 > a2 > 0):
        raise ValueError(f"need a1 > a2 > 0, got a1={a1}, a2={a2}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the two feasibility inequalities with diagnostics."""

    feasible: bool
    p_value: float
    discriminant: float

    def __bool__(self) -> bool:
        return self.feasible


def _quartic_p_r(alpha: AlphaTriple, a1, a2):
    """P and R of the even quartic (a1-a2)^2 x^4 + 2P x^2 + R^2 in c2,
    elementwise; both NaN, which no feasibility test passes, where a float
    power overflows.  a1 > a2 > 0 is the caller's to check."""
    b, c, c1 = alpha.b, alpha.c, alpha.c1
    try:
        P = (a1**3 * a2**2 + a1**2 * a2**3
             + (a1**2 * a2 + a1 * a2**2) * b * c1
             + (a1**2 + a2**2) * c1**2
             + 2 * a1**2 * a2**2 * c)
        R = (a1 + a2) * c1**2 - a1**2 * a2**2 + a1 * a2 * b * c1
    except OverflowError:  # Python float ** raises where numpy gives inf
        return math.nan, math.nan
    return P, R


def _p_discriminant(alpha: AlphaTriple, a1, a2):
    """P and the discriminant P^2 - (a1-a2)^2 R^2, elementwise."""
    P, R = _quartic_p_r(alpha, a1, a2)
    return P, P * P - (a1 - a2) * (a1 - a2) * R * R


def feasibility_check(alpha: AlphaTriple, a1: float, a2: float) -> FeasibilityResult:
    """Evaluate P <= 0 and P^2 - (a1-a2)^2 R^2 >= 0 for the quartic in c2."""
    _require_ordered(a1, a2)
    P, disc = _p_discriminant(alpha, a1, a2)
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
    _require_ordered(a1, a2)
    P, R = _quartic_p_r(alpha, a1, a2)
    return ((a1 - a2) * (a1 - a2), 2.0 * float(P), R * R)


def solve_c2(alpha: AlphaTriple, point: ModuliPoint) -> C2Roots:
    """Both positive roots (a1 sqrt(Q(a2)) -+ a2 sqrt(Q(a1)))/(a1 - a2).

    c2 is fixed positive; flipping its sign flips the x-slope of the
    Lagrangian angle and changes nothing that enters the energy bounds
    (only the slope's square is used).
    """
    a1, a2 = point.a1, point.a2
    P, disc = _p_discriminant(alpha, a1, a2)
    Qa1 = q_cubic(a1, alpha)
    Qa2 = q_cubic(a2, alpha)
    if not _roots_real(Qa1, Qa2, P, disc):
        lo, hi = (lemma3_box(alpha) if alpha.is_ordered else (float("nan"),) * 2)
        raise InfeasibleParameters(
            f"(a1, a2)=({a1}, {a2}) infeasible for alpha={alpha.weights}: "
            f"Q(a1)={Qa1:.6g}, Q(a2)={Qa2:.6g}, P={P:.6g}, "
            f"discriminant={disc:.6g}",
            p_value=float(P), discriminant=float(disc), box=(lo, hi))
    return C2Roots(*_c2_pair(a1, a2, Qa1, Qa2))


# The formulas from the moduli to the derived constants, written once for
# one point (floats) and for a whole grid (arrays, elementwise).

def _roots_real(Qa1, Qa2, P, disc):
    """Where both c2 roots are real and positive: Q(a1), Q(a2) >= 0,
    P <= 0 and a nonnegative discriminant."""
    return (Qa1 >= 0) & (Qa2 >= 0) & (P <= 0) & (disc >= 0)


def _c2_pair(a1, a2, Qa1, Qa2):
    """The minus and plus roots (a1 sqrt(Q(a2)) -+ a2 sqrt(Q(a1)))/(a1 - a2)."""
    s1 = a1 * _sqrt(Qa2)
    s2 = a2 * _sqrt(Qa1)
    return abs(s1 - s2) / (a1 - a2), (s1 + s2) / (a1 - a2)


def _c2_vanishes(c2, a1):
    """c2 <= 1e-12 max(1, a1^2): the angle slope a = (...)/c2 is undefined."""
    return (c2 <= 1e-12) | (c2 <= 1e-12 * (a1 * a1))


@dataclass(frozen=True)
class DerivedConstants:
    """Everything downstream of (alpha, a1, a2, branch): floats for one
    point, or (for a grid of points) numpy arrays taken elementwise, with
    slope_y a float and branch an array of branch names."""

    alpha: AlphaTriple
    a1: float
    a2: float
    branch: Branch
    c2: float
    a3: float
    slope_x: float  # x-slope of the Lagrangian angle, (b c1 + (a1+a2) a3 - a1 a2)/c2
    slope_y: float  # y-slope, equal to the integer b
    modulus: EllipticModulus
    period: float  # T = 2K/sqrt(a1 + a3), the period of the conformal factor in x
    K: float  # K(k) and D(k) = (K - E)/k^2, from one AGM run
    D: float
    sqrt_a1_a3: float


def _derived(alpha: AlphaTriple, a1, a2, branch, c2) -> DerivedConstants:
    """The derived constants at the moduli (a1, a2) and root c2: of one
    point for floats, of a grid for arrays."""
    a3 = (alpha.c1**2 + c2 * c2) / (a1 * a2)
    slope_x = (alpha.b * alpha.c1 + a1 * a3 + a2 * a3 - a1 * a2) / c2
    # (a1-a2)/(a1+a3) is the *parameter* m = k^2 of the sn in the conformal
    # factor: only then does (d/dx 2e^v)^2 = 4(a1-2e^v)(2e^v-a2)(2e^v+a3)
    # hold, which is what makes the immersion conformal.
    modulus = EllipticModulus(_sqrt((a1 - a2) / (a1 + a3)))
    K, D = complete_kd(modulus)
    root = _sqrt(a1 + a3)
    return DerivedConstants(
        alpha=alpha, a1=a1, a2=a2, branch=branch, c2=c2, a3=a3, slope_x=slope_x,
        slope_y=float(alpha.b), modulus=modulus, period=2.0 * K / root, K=K, D=D,
        sqrt_a1_a3=root)


def derive_constants(alpha: AlphaTriple, point: ModuliPoint) -> DerivedConstants:
    roots = solve_c2(alpha, point)
    c2 = roots.pick(point.branch)
    a1, a2 = point.a1, point.a2
    if _c2_vanishes(c2, a1):
        raise DegenerateParameters(
            f"c2 ({point.branch.value} branch) vanishes at (a1, a2)=({a1}, {a2}); "
            "the angle slope a = (...)/c2 is undefined there")
    return _derived(alpha, a1, a2, point.branch, c2)


# ----------------------------------------------------------------------
# Immersion data
# ----------------------------------------------------------------------


def conformal_factor(x, d: DerivedConstants):
    """2 e^{v(x)} = a1 - (a1 - a2) sn^2(x sqrt(a1+a3), k); accepts scalars
    or numpy arrays, oscillates between a1 (at x=0) and a2 (at x=T/2)."""
    s = jacobi_sn(np.asarray(x, dtype=float) * d.sqrt_a1_a3, d.modulus)
    return d.a1 - (d.a1 - d.a2) * s * s


def conformal_factor_prime(x, d: DerivedConstants):
    """d/dx of the conformal factor, -(a1 - a2) sqrt(a1+a3) d(sn^2)/du
    with d(sn^2)/du = 2 sn cn dn; accepts scalars or numpy arrays."""
    k = d.modulus.k
    s, c = _sn_cn(np.asarray(x, dtype=float) * d.sqrt_a1_a3, k)
    dn = np.sqrt((1.0 - k * s) * (1.0 + k * s))
    out = -2.0 * (d.a1 - d.a2) * d.sqrt_a1_a3 * s * c * dn
    return float(out) if out.ndim == 0 else out


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
            f"over [{lo:.3g}, {hi:.3g}]; too close to zero for the phase integral")


def g_phases(x, d: DerivedConstants) -> np.ndarray:
    """The phase integrals G_i(x) = int_0^x G_i' in closed form, shape (3,)
    for a scalar x and (3,) + x.shape for an array, in any order.

    With o = alpha_j alpha_k, n = (a1 - a2)/(a1 + o) and u = x sqrt(a1+a3),
    G_i' = -a/2 + (c2 + a o/2) / ((a1 + o)(1 - n sn^2 u)), so

        G_i(x) = -a x/2 + (c2 + a o/2) / ((a1 + o) sqrt(a1+a3)) Pi(n; am u, k).

    1/(1 - n sn^2) has period 2K, so for u = 2Kq + r with |r| <= K,
    Pi(n; am u) = 2q Pi(n) + Pi(n; am r), and with s = sn r, c = cn r,
    dn^2 = 1 - k^2 s^2 (DLMF 19.25; Carlson 1995)

        Pi(n; am r) = s R_F(c^2, dn^2, 1) + (n/3) s^3 R_J(c^2, dn^2, 1, 1 - n s^2),
        Pi(n) = K + (n/3) R_J(0, 1 - k^2, 1, 1 - n).

    _check_phase_denominator keeps 1 - n s^2 > 0 on the whole path.
    """
    for i in range(3):
        _check_phase_denominator(d, i)
    x = np.asarray(x, dtype=float)
    k, K = d.modulus.k, d.K
    off = _f_offsets(d.alpha).reshape((3,) + (1,) * x.ndim)
    n = (d.a1 - d.a2) / (d.a1 + off)
    u = x * d.sqrt_a1_a3
    q = np.round(u / (2.0 * K))
    s, c = _sn_cn(u - 2.0 * K * q, k)
    s2, c2 = s * s, c * c
    dn2 = (1.0 - k * s) * (1.0 + k * s)
    pi_r = (s * _carlson_rf(c2, dn2, 1.0)
            + n / 3.0 * s * s2 * _carlson_rj(c2, dn2, 1.0, 1.0 - n * s2))
    pi_complete = K + n / 3.0 * _carlson_rj(0.0, (1.0 - k) * (1.0 + k), 1.0, 1.0 - n)
    coeff = (d.c2 + 0.5 * d.slope_x * off) / ((d.a1 + off) * d.sqrt_a1_a3)
    return -0.5 * d.slope_x * x + coeff * (2.0 * q * pi_complete + pi_r)


def lift(x, y, d: DerivedConstants) -> np.ndarray:
    """Unit horizontal lift psi(x, y) in C^3; x and y broadcast, and the
    result has shape (3,) + their broadcast shape."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    alphas = np.array(d.alpha.weights, dtype=float).reshape((3,) + (1,) * x.ndim)
    return f_coefficients(x, d) * np.exp(1j * (g_phases(x, d) + alphas * y))
