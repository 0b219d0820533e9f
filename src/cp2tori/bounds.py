"""Lower-bound functions and inequality chains behind the main energy
comparison, with certified interval verification.

Each bound function is written once, as an expression that runs on
floats, ``Interval`` and ``IntervalArray``.  They divide with plain ``/``:
where a denominator vanishes on the edge of a domain, both interval
engines give a one-sided enclosure by the same rule, so a proof and its
scalar replay agree there.  On the triangle 0 <= y <= x <= 1 (x = a1/p,
y = a2/p, p = -alpha1*alpha3), ``b1_expr`` (minus branch) exceeds 1, and
``b2_expr`` (plus branch, from the squeeze functions ``f_aux <= g_aux``)
exceeds 0.9 off the band 0 < x - y <= BAND_EPS and, through a lower bound
in two charts, on it.  The scalar bounds exceed 4/(3 sqrt 3) on [0, 100]
by certificate and, by the integer quadratics of :data:`SCALAR_QUADRATICS`,
for every x.  Each scalar bound n/sqrt(q) falls and then rises, with one
dip where the linear n' q - n q'/2 vanishes (x = 31/9 and x = 8/3), so a
box's enclosure is its exact range, from its values at the dip and at the
box's ends, and each certificate proves with one box.

b1 factors as g(u) h(x) with u = x + y, g(u) = N(u)/sqrt(2 - u), N(u) =
1 + u/2 - 7u^2/16 and h(x) = 1/sqrt(x(2 - x)).  Its certificate rests on
a lemma about the factors, checked in exact rationals by the tests:
32 (N'(u)(2 - u) + N(u)/2) = (3u - 4)(7u - 12), so g rises on [0, 4/3],
falls on [4/3, 12/7] and rises on [12/7, 2); N is concave with N(0) = 1
and N(2) = 1/4, so g > 0 on [0, 2); and h > 0 falls on (0, 1].  So a
box's enclosure of b1 is the product of the factors' exact ranges, from
their values at a few points of the box, and needs next to no
subdivision (9 boxes at the defaults).

b2 is enclosed on a box in s = 2 - x - y and t = (x - y)/s: with d = s t
the s^4 factors of its cleared numerator cancel, leaving

    b2 = (u s t + 2 (u - t^2)^2 / (t (4 - t^2))) / sqrt(x s (s t^2 + y (4 - t^2)/2))

with u = 2 - s, and t = 2/(1 + (1-x)/(1-y)) - 1 names x and y once each,
so its interval is t's exact range on the box.  A box reaching the cut
x - y = eps has t near 0 in one denominator under a positive numerator,
so it keeps a finite lower end and proves unsplit; B2 retains 504 boxes
at the defaults.  Floats evaluate the cleared (x, y) form, whose rounding
error is smaller.

Each certificate is one row of :data:`CHARTS`: expression, root box,
outward-rounded domain clip (which also decides whether a disproved box's
midpoint is a witness), threshold, band width and notes.  :data:`CLAIMS`
names the rows each ``verify --target`` proves, and :func:`certify_charts`
certifies any of them at the engine's depth and box budgets.

The chain audits (:func:`case_chain_check`, :func:`degenerate_c2_bounds_check`)
evaluate every displayed inequality of the underlying argument at a
parameter point and report which hold.  One display of the degenerate
minus branch is *not* a pointwise truth: dividing the (possibly negative)
lower bound for the numerator of the angle slope by the upper end of the
c2 sandwich is only valid when that numerator bound is nonnegative, i.e.
when x + y >= 4/3.  Where it is negative the displayed slope bound fails,
and so, on a smaller region, do the two steps derived from it: its squared
form and (when the y-slope vanishes) the resulting Willmore bound.  Every
enclosing conclusion (the area bound, E >= pi^2 B1, E > E_Cl) still holds
with margin.  The audits report such failures rather than patching the
chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .family import (AlphaTriple, Branch, DerivedConstants, ModuliPoint,
                     derive_constants)
from .functionals import clifford_energy, energy_mironov
from .interval import (Certificate, CertStatus, Interval,
                       certify_lower_bound, sqrt)

BAND_EPS = 1e-4        # width of the diagonal band that B2 certifies apart
B2_THRESHOLD = 0.9
SCALAR_X_MAX = 100.0   # scalar certificates on [0, SCALAR_X_MAX]; beyond, SCALAR_QUADRATICS


def _sq(v):
    # an Interval, the operand of each step of a scalar replay, is tested
    # for first: the type test is cheaper than hasattr
    return v.sq() if type(v) is Interval or hasattr(v, "sq") else v * v


# ----------------------------------------------------------------------
# Bound functions (one generic expression serves floats, Interval and
# IntervalArray; .nonneg() clamps are justified by the domain clips)
# ----------------------------------------------------------------------


def _nonneg(v):
    return v.nonneg() if type(v) is Interval or hasattr(v, "nonneg") else v  # as _sq


def _b1_g(u):
    """g(u) = N(u) / sqrt(2 - u), N(u) = 1 + u/2 - 7u^2/16 (exact constants)."""
    return (1.0 + 0.5 * u - 0.4375 * _sq(u)) / sqrt(_nonneg(2.0 - u))


def _b1_h(x):
    """h(x) = 1 / sqrt(x (2 - x))."""
    return 1.0 / sqrt(_nonneg(x * (2.0 - x)))


# where g' = (3u - 4)(7u - 12) / (32 (2 - u)^(3/2)) changes sign, enclosed
_G_PEAK = Interval(4.0) / 3.0
_G_DIP = Interval(12.0) / 7.0


def b1_expr(x, y):
    """(16 + 8u - 7u^2) / (16 sqrt((2-x)(2-u)x)), u = x + y, as the product

        b1 = g(u) h(x),  g(u) = N(u) / sqrt(2 - u),  h(x) = 1 / sqrt(x (2 - x)),

    with 16 N(u) = 16 + 8u - 7u^2, whose constants 1/2 and 7/16 are exact,
    defined for u < 2 and 0 < x < 2.  Floats evaluate it directly.  On a
    box the enclosure is the interval product of the two factors' exact
    ranges G and H over the box's points where they are defined, so x and
    y never meet twice in one interval expression (Moore, Kearfott & Cloud
    2009, ch. 5-6):

    * g rises on (-inf, 4/3], falls on [4/3, 12/7] and rises on [12/7, 2),
      so its least value on U is at U's left end or at the point of U
      nearest 12/7, and its largest at the point nearest 4/3 or 2 (its
      pole);
    * x (2 - x) rises on (0, 1] and falls on [1, 2), so h falls and then
      rises: its least value on X is at the point of X nearest 1, its
      largest at the point nearest 0 or 2 (its poles).

    Each of these points is a thin interval (``clamp``, with 4/3 and 12/7
    taken as their outward-rounded enclosures) on which g or h is
    evaluated, so every end stays rounded outward on both engines.  On the
    triangle g > 0 (N is concave with N(0) = 1 and N(2) = 1/4) and h > 0,
    so the enclosure is [min G * min H, max G * max H]: the poles make only
    the upper end infinite, and a box on x = 0 or at (1, 1) keeps a finite
    lower end.  A number x with an interval y is the thin interval [x, x]."""
    u = x + y
    if not hasattr(u, "clamp"):  # a float or an array of floats
        return _b1_g(u) * _b1_h(x)
    if not hasattr(x, "clamp"):
        x = Interval(x) if type(u) is Interval else type(u)(np.atleast_1d(x), np.atleast_1d(x))
    g = type(u)(np.minimum(_b1_g(u.clamp(-math.inf)).lo, _b1_g(u.clamp(_G_DIP.lo, _G_DIP.hi)).lo),
                np.maximum(_b1_g(u.clamp(2.0)).hi, _b1_g(u.clamp(_G_PEAK.lo, _G_PEAK.hi)).hi))
    h = type(u)(_b1_h(x.clamp(1.0)).lo,
                np.maximum(_b1_h(x.clamp(0.0)).hi, _b1_h(x.clamp(2.0)).hi))
    return g * h


def f_aux(x, y):
    """Lower squeeze function x^2 y^2 (2(2-x-y) - (x-y)^2/(2-x-y)) / (x-y)^2."""
    s, d = 2.0 - x - y, x - y
    return x * x * y * y * (2.0 * s - d * d / s) / (d * d)


def g_aux(x, y):
    """Upper squeeze function x^2 y^2 (2(2-x-y) - (x-y)^2/(2(2-x-y))) / (x-y)^2."""
    s, d = 2.0 - x - y, x - y
    return x * x * y * y * (2.0 * s - d * d / (2.0 * s)) / (d * d)


def b2_expr(x, y):
    """The plus-branch bound, displayed as

        b2 = (x + y + ((x+y) f/(x y) - x y)^2 / (4 g)) / sqrt(x + g/(x y))

    with f = f_aux, g = g_aux.  Floats evaluate it after clearing the f/g
    compositions and multiplying numerator and denominator by d:

        b2 = (u d + 2 (u s^2 - d^2)^2 / (s d (4 s^2 - d^2)))
             / sqrt(x d^2 + x y (4 s^2 - d^2) / (2 s)),

    u = x+y, s = 2-u, d = x-y.  Defined on y = 0 as well (only d = 0 is
    excluded); the cleared form avoids the catastrophic cancellation of
    the composed one near y = 0.

    On a box, x and y each occur about ten times in that form, and the
    enclosure is evaluated instead in s and t = d/s.  With d = s t the
    s^4 factors of the cleared numerator cancel, and

        b2 = (u s t + 2 (u - t^2)^2 / (t (4 - t^2)))
             / sqrt(x s (s t^2 + y (4 - t^2) / 2)),   u = 2 - s.

    For y < 1, t = 2 / (1 + (1-x)/(1-y)) - 1, in which x and y occur once
    each, so its interval is t's exact range on the box (Moore, Kearfott &
    Cloud 2009, ch. 5-6).  On the clipped domain x <= 1 and 0 <= y <= x -
    eps, so 1 - x >= 0, 1 - y >= eps, s >= 0 and 0 <= t <= 1, which justify
    the clamps; u - t^2 changes sign on some boxes and is squared as it is.
    A box reaching the cut x - y = eps has t near 0 under a positive
    numerator, so it gets a one-sided enclosure with a finite lower end.
    Floats stay on the cleared form, whose rounding error is smaller: t
    from the ratio cancels near the diagonal.  A number x with an interval
    y is the thin interval [x, x].
    """
    u = x + y
    if not hasattr(u, "nonneg"):  # a float or an array of floats
        s, d = 2.0 - u, x - y
        s2, d2 = s * s, d * d
        four_s2_d2 = 4.0 * s2 - d2
        v = u * s2 - d2
        return ((u * d + 2.0 * (v * v) / (s * d * four_s2_d2))
                / sqrt(x * d2 + x * y * four_s2_d2 / (2.0 * s)))
    s = _nonneg(2.0 - u)
    t = _nonneg(2.0 / (1.0 + _nonneg(1.0 - x) / (1.0 - y)) - 1.0)
    t2 = _sq(t)
    four_t2 = 4.0 - t2
    num = u * s * t + 2.0 * _sq(u - t2) / (t * four_t2)
    return num / sqrt(_nonneg(x * s * (s * t2 + 0.5 * y * four_t2)))


def b2_strip_lower_expr(x, rho):
    """Rigorous lower bound for b2 near the diagonal, in the coordinates
    (x, rho) with d = x - y = rho * x (so y = x (1 - rho)):

        b2 >= (u s^2 - d^2)^2 / (2 s^3 d sqrt(x (d^2 + 2 y s)))
            = ((2-rho) s^2 - x rho^2)^2
              / (2 s^3 rho sqrt(x rho^2 + 2 (1-rho) s)),

    where u = x (2-rho) and s = 2 - u.  The first line drops the additive
    u-term of b2 and bounds 4s^2 - d^2 <= 4s^2 and x + 2xys/d^2 <=
    x (d^2 + 2ys)/d^2; the second substitutes d = rho x, cancelling the
    x^2 that otherwise defeats interval evaluation at the origin corner.
    Tends to +inf as rho -> 0 (the diagonal); divisions treat rho and the
    radicand as positive, which the domain (x > y) guarantees.  Reliable
    for x bounded away from 1 (there s >= 2 - 2x > 0 keeps the numerator
    positive); the complementary corner chart handles x near 1.
    """
    u = x * (2.0 - rho)
    s = _nonneg(2.0 - u)
    s2 = _sq(s)
    num = _sq((2.0 - rho) * s2 - x * _sq(rho))
    den = 2.0 * s * s2 * rho * sqrt(_nonneg(x * _sq(rho) + 2.0 * (1.0 - rho) * s))
    return num / den


def b2_strip_corner_expr(s, rho_s):
    """The same strip lower bound in the corner chart (s, rho_s) with
    s = 2 - x - y and d = rho_s * s (valid since d <= s on the triangle):

        b2 >= (2 - s - rho_s^2)^2
              / (2 rho_s sqrt(x s (s rho_s^2 + 2 y))),

    with x = 1 - s (1 - rho_s)/2 and y = 1 - s (1 + rho_s)/2.  The s^4
    factors cancel, so the expression stays regular at the (1, 1) corner
    (s -> 0) where the (x, rho) chart degenerates; on s <= 1/2, rho_s <= 1
    the numerator base 2 - s - rho_s^2 >= 1/2 is bounded away from zero.
    """
    x = 1.0 - s * (1.0 - rho_s) / 2.0
    y = 1.0 - s * (1.0 + rho_s) / 2.0
    num = _sq(2.0 - s - _sq(rho_s))
    den = 2.0 * rho_s * sqrt(_nonneg(x * s * (s * _sq(rho_s) + 2.0 * y)))
    return num / den


# ----------------------------------------------------------------------
# Domain clips (vectorized over box arrays; each rounds outward, so that
# no point of the domain is ever cut away)
# ----------------------------------------------------------------------


def _add_rounded(a, b, toward):
    """a + b rounded toward ``toward`` (-inf or +inf): the nearest sum,
    moved one ulp where TwoSum shows it lies beyond the exact one."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)  # a + b == s + err exactly
    beyond = err < 0 if toward < 0 else err > 0
    return np.where(beyond, np.nextafter(s, toward), s)


def clip_triangle(gap: float):
    """The triangle {0 <= y <= x - gap, x <= 1} (x >= gap and x + y <= 2
    follow).  Each box shrinks to the bounding box of its intersection with
    it, with the limit y_lo + gap on x rounded down and x_hi - gap on y
    rounded up."""
    def clip(xlo, xhi, ylo, yhi):
        ylo = np.maximum(ylo, 0.0)
        xhi = np.minimum(xhi, 1.0)
        xlo = np.maximum(xlo, _add_rounded(ylo, gap, -np.inf))
        yhi = np.minimum(yhi, _add_rounded(xhi, -gap, np.inf))
        return xlo, xhi, ylo, yhi, (xlo <= xhi) & (ylo <= yhi)
    return clip


def clip_band(eps: float, cap: float):
    """The band 0 < x - y <= eps in a chart (t, (x-y)/t), t = x or 2-x-y:
    0 <= t <= cap, 0 <= rho <= 1, t * rho <= eps.  Boxes are not shrunk to
    the hyperbola, only dropped when t_lo * rho_lo rounded down exceeds eps."""
    def clip(tlo, thi, rlo, rhi):
        tlo = np.maximum(tlo, 0.0)
        thi = np.minimum(thi, cap)
        rlo = np.maximum(rlo, 0.0)
        rhi = np.minimum(rhi, 1.0)
        keep = ((tlo <= thi) & (rlo <= rhi)
                & (np.nextafter(tlo * rlo, -np.inf) <= eps))
        return tlo, thi, rlo, rhi, keep
    return clip


# ----------------------------------------------------------------------
# Scalar bounds, and the quadratics that prove them for every x
# ----------------------------------------------------------------------


def _falls_then_rises(f, x, dip):
    """f(x), for an f that falls and then rises, with its one dip in the
    interval ``dip``.  A float x evaluates f directly.  On a box x the
    enclosure is f's exact range there: the least value is at the point of
    x nearest the dip, inside the thin interval ``x.clamp(dip.lo,
    dip.hi)``, and the largest at an end of x, so the enclosure is [f on
    that interval .lo, max of f at both ends .hi], on either engine
    (Moore, Kearfott & Cloud 2009, ch. 5-6)."""
    if not hasattr(x, "clamp"):  # a float or an array of floats
        return f(x)
    return type(x)(f(x.clamp(dip.lo, dip.hi)).lo,
                   np.maximum(f(x.clamp(-math.inf)).hi, f(x.clamp(math.inf)).hi))


# The derivative of n / sqrt(q), for n and q linear and q > 0, has the sign
# of n' q - n q'/2, which is linear: 98 (n' q - n q'/2) = 9x - 31 for
# scalar-1 (n = 1 + 9x/49, q = 1 + x) and (14 + 21x) - (21/2)(4 + x) =
# (21x - 56)/2 for scalar-2 (n = 4 + x, q = 14 + 21x).  So each bound falls,
# then rises, with its one dip at 31/9 and at 8/3, here enclosed.
_SCALAR_1_DIP = Interval(31.0) / 9.0
_SCALAR_2_DIP = Interval(8.0) / 3.0


def _scalar_1(x):
    return (1.0 + 9.0 * x / 49.0) / sqrt(_nonneg(1.0 + x))


def _scalar_2(x):
    return sqrt(_nonneg(_sq(4.0 + x) / (14.0 + 21.0 * x)))


def scalar_bound_1(x):
    """(1 + 9x/49) / sqrt(1 + x); exceeds 4/(3 sqrt(3)) for all x > 0.  It
    falls on [0, 31/9] and rises beyond, so a box's enclosure is its exact
    range (see ``_falls_then_rises``)."""
    return _falls_then_rises(_scalar_1, x, _SCALAR_1_DIP)


def scalar_bound_2(x):
    """sqrt(8/7) (1 + x/4) / sqrt(1 + 3x/2), written as (4 + x) / sqrt(14 +
    21x) with exact constants; exceeds 4/(3 sqrt(3)).  It falls on [0, 8/3]
    and rises beyond, so a box's enclosure is its exact range."""
    return _falls_then_rises(_scalar_2, x, _SCALAR_2_DIP)


# Each scalar bound is n/sqrt(q) with n, q > 0 for x >= 0, so it exceeds
# 4/(3 sqrt 3) exactly where 27 n^2 - 16 q > 0: the quadratic a x^2 + b x + c
# below (for scalar-1 times 2401 = 49^2), positive for every x when a > 0
# and b^2 < 4ac.  ``verify`` checks this in integers beside each certificate.
SCALAR_QUADRATICS = {
    "scalar-1": (2187, -14602, 26411),  # n = 1 + 9x/49, q = 1 + x
    "scalar-2": (27, -120, 208),        # n = 4 + x, q = 14 + 21x
}


def comparison_threshold() -> Interval:
    """Enclosure of 4 / (3 sqrt(3)), the Clifford ratio constant."""
    return Interval(4.0) / (3.0 * Interval(3.0).sqrt())


# ----------------------------------------------------------------------
# Certificates: one chart per row, all certified by one function
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """One certificate: ``expr(x, y) > threshold`` on the root box
    (x_lo, x_hi, y_lo, y_hi), cut to the domain by ``clip`` if it has one.
    ``eps`` is the width of the diagonal band that its domain leaves out or
    covers (BAND_EPS for B2 and its two band charts, else 0); ``cites``
    names the charts whose certificates its notes cite."""

    expr: Callable
    root: Tuple[float, float, float, float]
    clip: Optional[Callable]
    threshold: float
    eps: float
    notes: Tuple[str, ...]
    cites: Tuple[str, ...] = ()


def _scalar_chart(f) -> Chart:
    return Chart(lambda x, y: f(x), (0.0, SCALAR_X_MAX, 0.0, 0.0), None,
                 comparison_threshold().hi, 0.0, (_SCALAR_NOTE,))


_STRIP_X_CAP = 0.875  # the strip chart's x <= 7/8 and the corner chart's
_STRIP_S_CAP = 0.5    # s <= 1/2 cover the band, since BAND_EPS <= 1/4 and a
                      # band point with x > 7/8 has s = 2 - x - y < 1/4 + eps
_SCALAR_NOTE = (f"1D domain [0, {SCALAR_X_MAX:g}]; every x by the bound's quadratic "
                "27 n^2 - 16 q with a negative discriminant; the bound falls, then "
                "rises with one dip, so a box's enclosure is its exact range")

CHARTS = {
    "B1": Chart(
        b1_expr, (0.0, 1.0, 0.0, 1.0), clip_triangle(0.0), 1.0, 0.0,
        ("domain: the closed triangle 0 <= y <= x <= 1; boxes on x = 0 or at "
         "(1, 1), where the denominator vanishes, have one-sided enclosures",
         "b1 = g(x+y) h(x) with g(u) = (1 + u/2 - 7u^2/16)/sqrt(2-u), rising on "
         "[0, 4/3], falling on [4/3, 12/7], rising on [12/7, 2), and "
         "h(x) = 1/sqrt(x(2-x)), falling on (0, 1]; both positive, so a box's "
         "enclosure is the product of their exact ranges")),
    "B2": Chart(
        b2_expr, (0.0, 1.0, 0.0, 1.0), clip_triangle(BAND_EPS), B2_THRESHOLD, BAND_EPS,
        (f"domain: 0 <= y <= x - {BAND_EPS:g}, x <= 1 (includes the y = 0 edge, "
         "where the cleared form of b2 is regular)",
         "a box's enclosure is b2 in s = 2-x-y and t = (x-y)/s: "
         "(u s t + 2(u - t^2)^2/(t(4 - t^2))) / sqrt(x s (s t^2 + y(4 - t^2)/2)), "
         "u = 2-s, the cleared form with its s^4 factors cancelled, and "
         "t = 2/(1 + (1-x)/(1-y)) - 1 is t's exact range on the box; t sits in "
         "one denominator under a positive numerator, so a box reaching the cut "
         "x - y = eps has a finite lower bound",
         "the certified target is the plus-branch bound function; the "
         "sometimes-reused label B1 for this claim is a misprint -- "
         "b1 > 0.9 already follows from the b1 > 1 certificate"),
        cites=("B2-diagonal-strip", "B2-diagonal-strip-corner")),
    # the band in (x, d/x) for x <= 7/8 and in (s, d/s) for s <= 1/2
    "B2-diagonal-strip": Chart(
        b2_strip_lower_expr, (0.0, _STRIP_X_CAP, 0.0, 1.0),
        clip_band(BAND_EPS, _STRIP_X_CAP), B2_THRESHOLD, BAND_EPS,
        (f"band 0 < x - y <= {BAND_EPS:g}, x <= {_STRIP_X_CAP:g}, in "
         "(x, (x-y)/x) coordinates; target is a proven lower bound "
         "for b2 that tends to +inf on the diagonal",)),
    "B2-diagonal-strip-corner": Chart(
        b2_strip_corner_expr, (0.0, _STRIP_S_CAP, 0.0, 1.0),
        clip_band(BAND_EPS, _STRIP_S_CAP), B2_THRESHOLD, BAND_EPS,
        (f"band 0 < x - y <= {BAND_EPS:g} near (1, 1): s = 2-x-y <= "
         f"{_STRIP_S_CAP:g}, in (s, (x-y)/s) coordinates",)),
    "scalar-1": _scalar_chart(scalar_bound_1),
    "scalar-2": _scalar_chart(scalar_bound_2),
}

# what each ``verify --target`` proves: together, every chart once
CLAIMS = {
    "B1": ("B1",),
    "B2": ("B2", "B2-diagonal-strip", "B2-diagonal-strip-corner"),
    "scalars": ("scalar-1", "scalar-2"),
}


def certify_charts(targets: Sequence[str],
                   threshold: Optional[float] = None) -> List[Certificate]:
    """Certify the charts named in ``targets``, in that order, each at
    ``threshold`` (default: its own) and within the engine's budgets
    ``interval.MAX_DEPTH`` and ``interval.MAX_BOXES``.  A chart that
    another one cites is certified once, before the chart citing it."""
    @cache
    def certify(target):
        chart = CHARTS[target]
        notes = list(chart.notes)
        for cited in map(certify, chart.cites):
            notes.append(
                f"diagonal band covered by companion certificate "
                f"'{cited.target}': status {cited.status.value}, "
                f"{cited.retained_count} boxes, digest {cited.box_digest()[:16]}")
            if cited.status is not CertStatus.PROVED:
                notes.append("WARNING: diagonal band certification incomplete")
        return certify_lower_bound(
            target, chart.expr, chart.root,
            chart.threshold if threshold is None else threshold,
            clip=chart.clip, epsilon=chart.eps, notes=notes)

    return [certify(target) for target in targets]


def certify_lemma4() -> Certificate:
    """b1 > 1 on the closed triangle."""
    return certify_charts(CLAIMS["B1"])[0]


def certify_lemma5() -> Certificate:
    """b2 > 0.9 off the diagonal band, citing the band's certificates."""
    return certify_charts(CLAIMS["B2"])[0]


def lemma5_strip_certificates() -> List[Certificate]:
    """b2 > 0.9 on the diagonal band: [strip chart, corner chart]."""
    return certify_charts(CLAIMS["B2"][1:])


@dataclass
class ScalarBoundReport:
    certificates: List[Certificate]

    @property
    def all_proved(self) -> bool:
        return all(c.status is CertStatus.PROVED for c in self.certificates)


def scalar_bound_checks() -> ScalarBoundReport:
    """Both scalar comparison functions above 4/(3 sqrt(3)) on [0, 100]:
    [scalar-1, scalar-2], each with one box, their exact range.  Beyond,
    :data:`SCALAR_QUADRATICS` proves them."""
    return ScalarBoundReport(certify_charts(CLAIMS["scalars"]))


# ----------------------------------------------------------------------
# Chain audits
# ----------------------------------------------------------------------


@dataclass
class ChainStep:
    name: str
    lhs: float
    rhs: float
    relation: str  # ">=" or ">"
    holds: bool
    note: str = ""


@dataclass
class ChainReport:
    alpha: Tuple[int, int, int]
    a1: float
    a2: float
    branch: str
    case_label: str
    steps: List[ChainStep] = field(default_factory=list)

    @property
    def failing(self) -> List[ChainStep]:
        return [s for s in self.steps if not s.holds]

    @property
    def all_hold(self) -> bool:
        return not self.failing


def _step(report: ChainReport, name: str, lhs: float, rhs: float,
          relation: str = ">=", note: str = "", slack: float = 0.0) -> None:
    if relation == ">=":
        ok = lhs >= rhs - slack
    else:
        ok = lhs > rhs
    report.steps.append(ChainStep(name, float(lhs), float(rhs), relation, bool(ok), note))


def _identity_step(report: ChainReport, name: str, lhs: float, rhs: float,
                   rel_tol: float = 1e-9) -> None:
    scale = max(1.0, abs(lhs), abs(rhs))
    ok = abs(lhs - rhs) <= rel_tol * scale
    report.steps.append(ChainStep(name, float(lhs), float(rhs), "==", bool(ok), ""))


def classify_case(alpha: AlphaTriple, d: DerivedConstants) -> int:
    """Proof-branch trichotomy for alpha2 > 0: 1 if (a1+a2)a3 >=
    (7/4)(a1 a2 - b c1), else 2 if alpha1 > -(3/2) alpha2 alpha3, else 3."""
    if (d.a1 + d.a2) * d.a3 >= 1.75 * (d.a1 * d.a2 - alpha.b * alpha.c1):
        return 1
    if alpha.alpha1 > -1.5 * alpha.alpha2 * alpha.alpha3:
        return 2
    return 3


def case_chain_check(alpha: AlphaTriple, a1: float, a2: float,
                     branch: Branch) -> ChainReport:
    """Audit the alpha2 > 0 proof chain at one feasible point: classify
    the branch and numerically assert each displayed inequality."""
    if not (alpha.is_normalized and alpha.alpha2 > 0):
        raise ValueError("case_chain_check requires normalized alpha with alpha2 > 0")
    d = derive_constants(alpha, ModuliPoint(a1, a2, branch))
    fv = energy_mironov(d)
    E, ECl = fv.energy, clifford_energy()
    b, c1 = alpha.b, alpha.c1
    a3, aa = d.a3, d.slope_x
    case = classify_case(alpha, d)
    rep = ChainReport(alpha.weights, a1, a2, branch.value, f"case-{case}")
    sq15 = math.sqrt(a1 + a3)
    E0 = math.pi ** 2 * (a1 + a2 + (aa * aa + b * b) / 4.0) / sq15
    _step(rep, "E > pi^2 (a1+a2+(a^2+b^2)/4)/sqrt(a1+a3)", E, E0, ">")
    thr = 4.0 / (3.0 * math.sqrt(3.0))
    if case == 1:
        _identity_step(rep, "a^2 = ((a1+a2)a3 - (a1 a2 - b c1))^2 / c2^2",
                       aa * aa, ((a1 + a2) * a3 - (a1 * a2 - b * c1)) ** 2 / d.c2 ** 2)
        rhs1 = (9.0 / 49.0) * (a1 + a2) ** 2 * a3 ** 2 / d.c2 ** 2
        _step(rep, "a^2 >= (9/49)(a1+a2)^2 a3^2/c2^2", aa * aa, rhs1,
              slack=1e-12 * max(1.0, aa * aa))
        rhs2 = (9.0 / 49.0) * (a1 + a2) ** 2 * a3 / (a1 * a2)
        _step(rep, "a^2 >= (9/49)(a1+a2)^2 a3/(a1 a2)", aa * aa, rhs2,
              slack=1e-12 * max(1.0, aa * aa))
        _step(rep, "a2 >= 1 (box lower end)", a2, 1.0)
        mid = math.pi ** 2 * (a1 + 9.0 * a3 / 49.0) / sq15
        _step(rep, "pi^2(a1+a2+(a^2+b^2)/4)/sqrt > pi^2(a1+9a3/49)/sqrt", E0, mid, ">")
        x = a3 / a1
        _step(rep, "(1+9x/49)/sqrt(1+x) > 4/(3 sqrt 3) at x=a3/a1",
              scalar_bound_1(x), thr, ">")
    elif case == 2:
        _step(rep, "alpha1 < -3b", -3 * b, alpha.alpha1, ">")
        _step(rep, "-b c1/(a1+a2) < (3/2) b^2", 1.5 * b * b, -b * c1 / (a1 + a2), ">")
        den1 = a1 + 1.75 * (a1 * a2 - b * c1) / (a1 + a2)
        _step(rep, "E0 > pi^2 (a1+a2+b^2/4)/sqrt(a1 + (7/4)(a1a2-bc1)/(a1+a2))",
              E0, math.pi ** 2 * (a1 + a2 + b * b / 4.0) / math.sqrt(den1), ">")
        den2 = a1 + 1.75 * a2 + (21.0 / 8.0) * b * b
        _step(rep, "denominator step: a1+(7/4)(a1a2-bc1)/(a1+a2) < a1+(7/4)a2+(21/8)b^2",
              den2, den1, ">")
        _step(rep, "a1 + a2 > 2", a1 + a2, 2.0, ">")
        z = b * b / (a1 + a2)
        _step(rep, "sqrt(8/7)(1+z/4)/sqrt(1+3z/2) > 4/(3 sqrt 3) at z=b^2/(a1+a2)",
              scalar_bound_2(z), thr, ">")
    else:
        _step(rep, "-b c1 <= -2 alpha1^2 alpha2 alpha3",
              -2 * alpha.alpha1 ** 2 * alpha.alpha2 * alpha.alpha3, -b * c1)
        _step(rep, "-2 alpha1^2 alpha2 alpha3 < (9/2) a1 a2^2",
              4.5 * a1 * a2 * a2, -2 * alpha.alpha1 ** 2 * alpha.alpha2 * alpha.alpha3, ">")
        t = a2 / a1
        val = (1 + t) * math.sqrt(1 + t) / math.sqrt(1 + 2.75 * t + 7.875 * t * t)
        _step(rep, "(1+t)^{3/2}/sqrt(1+(11/4)t+(63/8)t^2) > 4/(3 sqrt 3) at t=a2/a1",
              val, thr, ">")
    _step(rep, "E > E_Cl", E, ECl, ">")
    return rep


def degenerate_c2_bounds_check(alpha: AlphaTriple, a1: float, a2: float,
                               branch: Branch) -> ChainReport:
    """Audit the alpha2 = 0 chain at one point: reduced feasibility forms,
    the square-root squeeze, the c2^2 and a3 sandwiches, and the displayed
    slope/area/Willmore/energy bounds down to E >= pi^2 B1 (minus branch)
    or E >= pi^2 B2 (plus branch)."""
    if alpha.alpha2 != 0 or not alpha.is_normalized:
        raise ValueError("degenerate_c2_bounds_check requires normalized alpha with alpha2 = 0")
    p = alpha.p
    x, y = a1 / p, a2 / p
    if not (0.0 < y < x <= 1.0):
        raise ValueError(f"(a1/p, a2/p) = ({x}, {y}) outside the triangle")
    d = derive_constants(alpha, ModuliPoint(a1, a2, branch))
    fv = energy_mironov(d)
    A, W, E = fv.area, fv.willmore, fv.energy
    b = alpha.b
    aa, a3, c2 = d.slope_x, d.a3, d.c2
    s, dd, u = 2.0 - x - y, x - y, x + y
    rep = ChainReport(alpha.weights, a1, a2, branch.value, f"degenerate-{branch.value}")
    sp = math.sqrt(p)
    slack = 1e-11

    _step(rep, "reduced feasibility: p^5 x^2 y^2 (x+y-2) <= 0",
          0.0, p ** 5 * x * x * y * y * (u - 2.0), slack=1e-15)
    _step(rep, "reduced feasibility: 4 p^10 x^4 y^4 (1-x)(1-y) >= 0",
          4.0 * p ** 10 * x ** 4 * y ** 4 * (1 - x) * (1 - y), 0.0)
    root = math.sqrt(s * s - dd * dd)
    _step(rep, "squeeze lower: s - d^2/s <= sqrt(s^2-d^2)", root, s - dd * dd / s,
          slack=slack)
    _step(rep, "squeeze upper: sqrt(s^2-d^2) <= s - d^2/(2s)",
          s - dd * dd / (2.0 * s), root, slack=slack)

    if branch is Branch.MINUS:
        lo_c2 = p ** 3 * x * x * y * y / (2.0 * s)
        hi_c2 = p ** 3 * x * x * y * y / s
        _step(rep, "c2^2 >= p^3 x^2 y^2/(2s)", c2 * c2, lo_c2, slack=slack * lo_c2)
        _step(rep, "c2^2 <= p^3 x^2 y^2/s", hi_c2, c2 * c2, slack=slack * hi_c2)
        _step(rep, "a3 >= p xy/(2s)", a3, p * x * y / (2.0 * s), slack=slack)
        _step(rep, "a3 <= p xy/s", p * x * y / s, a3, slack=slack)
        den = math.sqrt(x + x * y / s)
        _step(rep, "A >= pi^2 sqrt(p)(x+y)/sqrt(x+xy/s)", A,
              math.pi ** 2 * sp * u / den, slack=slack)
        beta = u / (2.0 * s) - 1.0
        first = (u * p * p * x * y / (2.0 * s) - x * y * p * p) / c2
        _step(rep, "a >= ((a1+a2) p xy/(2s) - a1 a2)/c2", aa, first, slack=slack)
        gap = "" if beta >= 0 else \
            "display divides a negative bracket by the sandwich's upper end; " \
            "only valid for x+y >= 4/3"
        _step(rep, "((a1+a2) p xy/(2s) - a1 a2)/c2 >= sqrt(p) beta sqrt(s)",
              first, sp * beta * math.sqrt(s), slack=slack, note=gap)
        _step(rep, "W >= 2 pi^2 a^2/sqrt(a1+a3)", W,
              2.0 * math.pi ** 2 * aa * aa / math.sqrt(a1 + a3), slack=slack)
        wb = 2.0 * math.pi ** 2 * sp * beta * beta * s / den
        _step(rep, "2 pi^2 a^2/sqrt(a1+a3) >= 2 pi^2 sqrt(p) beta^2 s/sqrt(x+xy/s)",
              2.0 * math.pi ** 2 * aa * aa / math.sqrt(a1 + a3), wb,
              slack=slack, note=gap and "squared form of the previous display")
        _step(rep, "W >= 2 pi^2 sqrt(p) beta^2 s/sqrt(x+xy/s)", W, wb,
              slack=slack, note=gap and "resulting Willmore bound")
        eb = math.pi ** 2 * sp * (u + 0.25 * beta * beta * s) / den
        _step(rep, "E >= pi^2 sqrt(p)(x+y+beta^2 s/4)/sqrt(x+xy/s)", E, eb, slack=slack)
        _step(rep, "E >= pi^2 B1 (using p >= 1)", E,
              math.pi ** 2 * b1_expr(x, y), slack=slack)
    else:
        f, g = f_aux(x, y), g_aux(x, y)
        _step(rep, "f <= g", g, f, slack=slack)
        _step(rep, "c2^2 >= p^3 f", c2 * c2, p ** 3 * f, slack=slack * max(1, p ** 3 * f))
        _step(rep, "c2^2 <= p^3 g", p ** 3 * g, c2 * c2, slack=slack * max(1, p ** 3 * g))
        _step(rep, "a3 >= p f/(xy)", a3, p * f / (x * y), slack=slack)
        _step(rep, "a3 <= p g/(xy)", p * g / (x * y), a3, slack=slack)
        den = math.sqrt(x + g / (x * y))
        _step(rep, "A >= pi^2 sqrt(p)(x+y)/sqrt(x+g/xy)", A,
              math.pi ** 2 * sp * u / den, slack=slack)
        gam = u * f / (x * y) - x * y
        _step(rep, "a >= sqrt(p)((x+y)f/(xy) - xy)/sqrt(g)", aa,
              sp * gam / math.sqrt(g), slack=slack)
        _step(rep, "W >= 2 pi^2 a^2/sqrt(a1+a3)", W,
              2.0 * math.pi ** 2 * aa * aa / math.sqrt(a1 + a3), slack=slack)
        wb = 2.0 * math.pi ** 2 * sp * gam * gam / (g * den)
        _step(rep, "W >= 2 pi^2 sqrt(p)((x+y)f/xy - xy)^2/(g sqrt(x+g/xy))", W, wb,
              slack=slack)
        eb = math.pi ** 2 * sp * (u + 0.25 * gam * gam / g) / den
        _step(rep, "E >= pi^2 sqrt(p)(x+y+((x+y)f/xy-xy)^2/(4g))/sqrt(x+g/xy)",
              E, eb, slack=slack)
        _step(rep, "E >= pi^2 B2 (using p >= 1)", E,
              math.pi ** 2 * b2_expr(x, y), slack=slack)
    _step(rep, "E > E_Cl", E, clifford_energy(), ">")
    return rep
