"""The two-parameter family of Hamiltonian-minimal Lagrangian tori.

Integer weights (alpha1, alpha2, alpha3) and real moduli a1 > a2 > 0
determine, when feasible, derived constants (the root c2 of a quartic,
a3, the Lagrangian-angle slopes, an elliptic modulus and a period) and
immersion data: a conformal factor 2 e^v, radial coefficients F_i and
phase integrals G_i whose combination

    psi(x, y) = (F_i(x) * exp(i (G_i(x) + alpha_i * y)))_i

is a unit horizontal lift of the surface; :func:`lift_data` is the one
place that writes them with their x-derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Tuple

import numpy as np

from .elliptic import (EllipticModulus, _carlson_rf, _carlson_rj, _sn_cn, _sqrt,
                       complete_kd)
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
        """The strict normal form of a triple and a record of the transform:
        the descending sort of the triple or of its negation, whichever is
        in that form.  Both are only when alpha2 = 0; then the one with
        alpha1 + alpha3 >= 0 wins, and a tie keeps the triple unflipped.
        Raises ValueError when neither is (all weights of one sign, a
        repeated leading weight, a zero trailing weight) or when the
        difference weights are not coprime."""
        w = list(weights)
        if len(w) != 3:
            raise ValueError("expected three integer weights")
        w = [int(v) for v in cls(*w).weights]  # the constructor's integer check
        forms = [(cls(*sorted((-v if flip else v for v in w), reverse=True)), flip)
                 for flip in (False, True)]
        forms = [f for f in forms if f[0].is_normalized]
        if not forms:
            raise ValueError(f"weights {tuple(w)} have no normal form "
                             "alpha1 > alpha2 >= 0 > alpha3")
        # max keeps the first of equal keys: the unflipped triple on a tie
        cand, flipped = max(forms, key=lambda f: f[0].alpha1 + f[0].alpha3 >= 0)
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
    """Outcome of the two feasibility inequalities Q(a1) >= 0 and
    Q(a2) >= 0, with the quartic's P and discriminant as diagnostics."""

    feasible: bool
    p_value: float
    discriminant: float

    def __bool__(self) -> bool:
        return self.feasible


def _quartic_p_r(alpha: AlphaTriple, a1, a2):
    """P and R of the even quartic (a1-a2)^2 x^4 + 2P x^2 + R^2 in c2,
    elementwise, in products alone, so that a point and a grid round
    alike; both NaN where either is not finite (moduli beyond the float
    range), which is what `feasibility` and InfeasibleParameters report
    there.  a1 > a2 > 0 is the caller's to check."""
    b, c, c1 = alpha.b, alpha.c, alpha.c1
    a1_2, a2_2 = a1 * a1, a2 * a2
    P = (a1_2 * a1 * a2_2 + a1_2 * (a2_2 * a2)
         + (a1_2 * a2 + a1 * a2_2) * b * c1
         + (a1_2 + a2_2) * (c1 * c1)
         + 2 * a1_2 * a2_2 * c)
    R = (a1 + a2) * (c1 * c1) - a1_2 * a2_2 + a1 * a2 * b * c1
    finite = np.isfinite(P) & np.isfinite(R)
    # [()] gives a scalar for a point and the array itself for a grid
    return np.where(finite, P, math.nan)[()], np.where(finite, R, math.nan)[()]


def _p_discriminant(alpha: AlphaTriple, a1, a2):
    """P and the discriminant P^2 - (a1-a2)^2 R^2, elementwise; the
    discriminant is written as 4 a1^2 a2^2 Q(a1) Q(a2) (see
    :func:`_roots_real`) with the exact sign of Q(a1) Q(a2), so that it is
    +0.0 on the box edges, where a Q vanishes, and negative only where
    :func:`_roots_real` is false; NaN where P is."""
    P, _ = _quartic_p_r(alpha, a1, a2)
    sign = _q_sign(a1, alpha) * _q_sign(a2, alpha)
    size = abs(4.0 * (a1 * a1) * (a2 * a2) * q_cubic(a1, alpha) * q_cubic(a2, alpha))
    disc = np.where(sign == 0.0, 0.0, np.copysign(size, sign))
    return P, np.where(np.isnan(P), math.nan, disc)[()]


def feasibility_check(alpha: AlphaTriple, a1: float, a2: float) -> FeasibilityResult:
    """Whether the quartic in c2 has real positive roots, decided exactly
    by Q(a1) >= 0 and Q(a2) >= 0 (see :func:`_roots_real`), with P and
    the discriminant (see :func:`_p_discriminant`) reported as numbers."""
    _require_ordered(a1, a2)
    P, disc = _p_discriminant(alpha, a1, a2)
    return FeasibilityResult(bool(_roots_real(alpha, a1, a2)), float(P), float(disc))


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
    Qa1 = q_cubic(a1, alpha)
    Qa2 = q_cubic(a2, alpha)
    if not _roots_real(alpha, a1, a2):
        P, disc = _p_discriminant(alpha, a1, a2)
        raise InfeasibleParameters(
            f"(a1, a2)=({a1}, {a2}) infeasible for alpha={alpha.weights}: "
            f"Q(a1)={Qa1:.6g}, Q(a2)={Qa2:.6g}, P={P:.6g}, "
            f"discriminant={disc:.6g}")
    return C2Roots(*_c2_pair(a1, a2, Qa1, Qa2))


# The formulas from the moduli to the derived constants, written once for
# one point (floats) and for a whole grid (arrays, elementwise).

def _roots_real(alpha: AlphaTriple, a1, a2):
    """Where both c2 roots are real and positive: Q(a1) >= 0 and
    Q(a2) >= 0.  By Vieta, P = -(a1^2 Q(a2) + a2^2 Q(a1)) and
    P^2 - (a1-a2)^2 R^2 = 4 a1^2 a2^2 Q(a1) Q(a2), so the quartic's tests
    P <= 0 and disc >= 0 follow; testing them in floats would let the
    rounding decide the box edges, where Q vanishes and disc = 0."""
    return (_q_sign(a1, alpha) >= 0) & (_q_sign(a2, alpha) >= 0)


def _q_sign(x, alpha: AlphaTriple):
    """The exact sign of Q(x) (-1, 0 or 1, a zero of either sign),
    elementwise: the sign of each linear factor x + alpha_i alpha_j is
    that of its float sum, while their float product may underflow to a
    zero of either sign."""
    a1, a2, a3 = alpha.weights
    return -(np.sign(x + a1 * a2) * np.sign(x + a1 * a3) * np.sign(x + a2 * a3))


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


def derive_grid(alpha: AlphaTriple, a1: np.ndarray, a2: np.ndarray,
                branch: np.ndarray) -> Tuple[DerivedConstants, np.ndarray]:
    """:func:`derive_constants` of the tori (a1, a2, branch), one per
    entry, ``branch`` an array of branch names: their rows as arrays, in
    the points' order, and the index of the point that each row came
    from.  A point whose c2 roots are not real, or whose c2 vanishes,
    gives no row.  A point that is not a1 > a2 > 0, or whose branch is
    not "minus" or "plus", raises ValueError naming it."""
    unordered = np.flatnonzero(~((a1 > a2) & (a2 > 0)))
    if unordered.size:
        i = unordered[0]
        _require_ordered(float(a1[i]), float(a2[i]))  # raises, naming the point
    minus = branch == Branch.MINUS.value
    unknown = np.flatnonzero(~minus & (branch != Branch.PLUS.value))
    if unknown.size:
        Branch(str(branch[unknown[0]]))  # raises, naming the branch
    real = np.flatnonzero(_roots_real(alpha, a1, a2))
    a1, a2 = a1[real], a2[real]
    c2 = np.where(minus[real],
                  *_c2_pair(a1, a2, q_cubic(a1, alpha), q_cubic(a2, alpha)))
    keep = ~_c2_vanishes(c2, a1)
    rows = real[keep]
    return _derived(alpha, a1[keep], a2[keep], branch[rows], c2[keep]), rows


# ----------------------------------------------------------------------
# Immersion data
# ----------------------------------------------------------------------


def _conformal(s, d: DerivedConstants):
    """2 e^v = a1 - (a1 - a2) s^2 from s = sn(x sqrt(a1+a3), k)."""
    return d.a1 - (d.a1 - d.a2) * s * s


def conformal_factor(x, d: DerivedConstants):
    """2 e^{v(x)} = a1 - (a1 - a2) sn^2(x sqrt(a1+a3), k); accepts scalars
    or numpy arrays, oscillates between a1 (at x=0) and a2 (at x=T/2)."""
    s = _sn_cn(np.asarray(x, dtype=float) * d.sqrt_a1_a3, d.modulus.k, d.K)[0]
    out = _conformal(s, d)
    return float(out) if out.ndim == 0 else out


def _f_offsets(alpha: AlphaTriple) -> np.ndarray:
    a = alpha.weights
    return np.array([a[1] * a[2], a[0] * a[2], a[0] * a[1]], dtype=float)


class LiftData(NamedTuple):
    """The lift's data along x (see :func:`lift_data`): cf and cf_prime
    shaped like x, the others (3,) + x.shape."""

    cf: np.ndarray
    cf_prime: np.ndarray
    F: np.ndarray
    F_prime: np.ndarray
    G: np.ndarray
    G_prime: np.ndarray


def lift_data(x, d: DerivedConstants) -> LiftData:
    """The lift psi = (F_i e^{i (G_i + alpha_i y)})_i along x (a scalar or
    an array, in any order): cf = 2 e^v, F_i, G_i (:func:`g_phases`) and
    their x-derivatives.  With o_i = alpha_j alpha_k and den_i = (alpha_i -
    alpha_j)(alpha_i - alpha_k), F_i^2 = (cf + o_i)/den_i (sum F^2 = 1,
    sum alpha F^2 = 0, sum alpha^2 F^2 = cf), F_i' = cf'/(2 den_i F_i) (0
    where F_i vanishes) and G_i' = (c2 - a cf/2)/(cf + o_i).  cf and cf'
    take sn, cn of x sqrt(a1+a3) itself, as conformal_factor does, not of
    the 2K-reduced argument of G_i, whose last bits differ.  Raises
    InfeasibleParameters where an F_i^2 is negative."""
    x = np.asarray(x, dtype=float)
    k = d.modulus.k
    s, c = _sn_cn(x * d.sqrt_a1_a3, k, d.K)
    cf = _conformal(s, d)
    # d/dx of cf: -(a1 - a2) sqrt(a1+a3) d(sn^2)/du, d(sn^2)/du = 2 sn cn dn
    cf_prime = (-2.0 * (d.a1 - d.a2) * d.sqrt_a1_a3 * s * c
                * np.sqrt((1.0 - k * s) * (1.0 + k * s)))
    a = d.alpha.weights
    column = (3,) + (1,) * x.ndim
    off = _f_offsets(d.alpha).reshape(column)
    den = np.array([(a[0] - a[1]) * (a[0] - a[2]), (a[1] - a[0]) * (a[1] - a[2]),
                    (a[2] - a[0]) * (a[2] - a[1])], dtype=float).reshape(column)
    rad = (cf + off) / den
    if np.any(rad < -1e-12 * max(1.0, float(np.max(np.abs(cf))))):
        raise InfeasibleParameters(
            f"negative radicand in F_i at conformal factor {cf!r}; "
            "moduli outside the feasible box")
    F = np.sqrt(np.clip(rad, 0.0, None))
    G = g_phases(x, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        F_prime = np.where(F > 1e-150, cf_prime / (2.0 * den * F), 0.0)
    return LiftData(cf, cf_prime, F, F_prime, G, (d.c2 - 0.5 * d.slope_x * cf) / (cf + off))


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

    The denominator 2 alpha_i e^v - c1 = alpha_i (2 e^v + o) of G_i' loses
    alpha_i (alpha_i = 0 included); 2 e^v + o spans [a2 + o, a1 + o], kept
    off zero (else SingularIntegrand) so that 1 - n s^2 > 0 on the path.
    """
    off = _f_offsets(d.alpha)
    lo, hi = d.a2 + off, d.a1 + off
    bad = ((lo <= 0.0) & (0.0 <= hi)
           | (np.minimum(abs(lo), abs(hi)) < 1e-8 * (d.a1 + abs(off) + 1.0)))
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularIntegrand(
            f"phase denominator 2 e^v + alpha_j alpha_k (i = {i + 1}) ranges "
            f"over [{lo[i]:.3g}, {hi[i]:.3g}]; too close to zero for the phase integral")
    x = np.asarray(x, dtype=float)
    k, K = d.modulus.k, d.K
    off = off.reshape((3,) + (1,) * x.ndim)
    n = (d.a1 - d.a2) / (d.a1 + off)
    u = x * d.sqrt_a1_a3
    q = np.round(u / (2.0 * K))
    s, c = _sn_cn(u - 2.0 * K * q, k, K)
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
    data = lift_data(x, d)
    return data.F * np.exp(1j * (data.G + alphas * y))
