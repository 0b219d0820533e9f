import math
import operator
import struct
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cp2tori.errors import IntervalDomainError
from cp2tori.interval import (PI, CertStatus, Interval, IntervalArray,
                              certify_lower_bound, replay_certificate)
from two_array_engine import TwoArrayIntervals
from two_sided_scalar import TwoSidedInterval

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                   allow_subnormal=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-12)


def test_trivial_arithmetic_examples():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
    assert Interval(-1, 1) * Interval(-1, 1) == Interval(-1, 1)
    assert Interval(1, 2) / Interval(0.5, 1) == Interval(1, 4)
    assert Interval(4, 9).sqrt() == Interval(2, 3)
    assert Interval(0, 1).sqrt() == Interval(0, 1)


def test_sqrt_two_enclosure_vs_high_precision():
    enc = Interval(2, 2).sqrt()
    ref = mpmath.mpf(2) ** mpmath.mpf("0.5")
    assert enc.lo <= ref <= enc.hi
    assert enc.width <= 2 * math.ulp(enc.lo)


INF = math.inf

# dividend, divisor containing zero, the exact hull of n/d over d != 0
# (IEEE Std 1788-2015)
ZERO_DIVISOR_CASES = [
    ((1, 2), (0, 4), (0.25, INF)),        # touching at the lower end
    ((-2, -1), (0, 4), (-INF, -0.25)),
    ((1, 2), (-4, 0), (-INF, -0.25)),     # touching at the upper end
    ((-2, -1), (-4, 0), (0.25, INF)),
    ((0, 2), (0, 4), (0.0, INF)),
    ((-2, 0), (-4, 0), (0.0, INF)),
    ((0, 0), (0, 4), (0.0, 0.0)),         # a zero dividend
    ((0, 0), (-4, 0), (0.0, 0.0)),
    ((-1, 2), (0, 4), (-INF, INF)),       # a dividend of both signs
    ((-1, 2), (-4, 0), (-INF, INF)),
    ((1, 2), (-1, 1), (-INF, INF)),       # a spanning divisor
    ((0, 0), (-1, 1), (-INF, INF)),
    ((1, 2), (0, 0), (-INF, INF)),        # [0, 0]
    ((-2, 2), (0, 0), (-INF, INF)),
]


@pytest.mark.parametrize("num, den, hull", ZERO_DIVISOR_CASES)
def test_both_engines_divide_by_zero_alike(num, den, hull):
    # one rule on both engines, and no exception: the scalar result lies
    # inside the array result, and both enclose the hull with its
    # infinite ends
    s = Interval(*num) / Interval(*den)
    a = (IntervalArray(np.array([num[0]], float), np.array([num[1]], float))
         / IntervalArray(np.array([den[0]], float), np.array([den[1]], float)))
    alo, ahi = float(a.lo[0]), float(a.hi[0])
    assert alo <= s.lo and s.hi <= ahi
    for lo, hi in ((s.lo, s.hi), (alo, ahi)):
        assert lo <= hull[0] and hull[1] <= hi
        assert (math.isinf(lo), math.isinf(hi)) == tuple(map(math.isinf, hull))
    # the scalar path's exact-aware rounding gives the hull itself here
    assert (s.lo, s.hi) == hull


# an endpoint product of 0 and +-inf is 0 (IEEE Std 1788-2015); the
# factors and the hull of their product
ZERO_TIMES_INF_CASES = [
    ((0, 0), (INF, INF), (0.0, 0.0)),
    ((0, 1), (1, INF), (0.0, INF)),
    ((-1, 0), (1, INF), (-INF, 0.0)),
    ((0, 1), (-INF, INF), (-INF, INF)),
]


@pytest.mark.parametrize("x, y, hull", ZERO_TIMES_INF_CASES)
def test_both_engines_multiply_zero_by_inf_alike(x, y, hull):
    s = Interval(*x) * Interval(*y)
    a = (IntervalArray(np.array([x[0]], float), np.array([x[1]], float))
         * IntervalArray(np.array([y[0]], float), np.array([y[1]], float)))
    alo, ahi = float(a.lo[0]), float(a.hi[0])
    assert (s.lo, s.hi) == hull
    assert alo <= s.lo and s.hi <= ahi
    assert (math.isinf(alo), math.isinf(ahi)) == tuple(map(math.isinf, hull))


def test_overflow_rounds_to_the_largest_float():
    # a result beyond the largest float: the outer end is infinite and the
    # inner one the largest float
    big = Interval(1e308)
    for enc in (big + big, big * 10.0, big / 1e-10):
        assert (enc.lo, enc.hi) == (sys.float_info.max, INF)
    for enc in (-big - big, -big * 10.0, -big / 1e-10):
        assert (enc.lo, enc.hi) == (-INF, -sys.float_info.max)
    # the array engine too, without numpy's overflow warning, which the
    # suite's error::RuntimeWarning would raise
    big = IntervalArray([1e308], [1e308])
    for enc in (big + 1e308, big - (-1e308), 1e308 - IntervalArray([-1e308], [-1e308]),
                big.sq(), big * 10.0, big / 1e-10):
        assert (float(enc.lo[0]), float(enc.hi[0])) == (sys.float_info.max, INF)


def test_sqrt_negative_raises():
    with pytest.raises(IntervalDomainError):
        Interval(-1, 4).sqrt()


def test_invalid_bounds_rejected():
    with pytest.raises(IntervalDomainError):
        Interval(2, 1)
    with pytest.raises(IntervalDomainError):
        Interval(float("nan"))
    # the array constructor checks each element the same way, naming the
    # first bad one; [+0.0, -0.0] (element 0 of the last case) is valid
    for lo, hi in [([1.0, 2.0], [1.5, 1.0]), ([1.0, float("nan")], [1.5, 2.0]),
                   ([0.0, 0.0], [-0.0, -1.0])]:
        with pytest.raises(IntervalDomainError, match="at element 1"):
            IntervalArray(lo, hi)


@given(a=finite, b=finite)
@settings(max_examples=200)
def test_add_encloses_exact(a, b):
    enc = Interval(a) + Interval(b)
    exact = Fraction(a) + Fraction(b)
    assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)


@given(a=finite, b=finite)
@settings(max_examples=200)
def test_mul_encloses_exact(a, b):
    enc = Interval(a) * Interval(b)
    exact = Fraction(a) * Fraction(b)
    assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)


@given(a=finite, b=nonzero)
@settings(max_examples=200)
# q * b lands next to the smallest normal, where Dekker's error term
# underflows and would call the rounded quotient exact
@example(a=2.2250738585072014e-308, b=0.0007635249474052903)
def test_div_encloses_exact(a, b):
    enc = Interval(a) / Interval(b)
    exact = Fraction(a) / Fraction(b)
    assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)


@given(a=finite, b=finite)
@settings(max_examples=200)
def test_sub_encloses_exact(a, b):
    enc = Interval(a) - Interval(b)
    exact = Fraction(a) - Fraction(b)
    assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)


# Dekker's safe band: where every endpoint and every exact endpoint
# product or quotient is 0 or lies in it, the scalar path is tight
_BAND = (Fraction(1e-290), Fraction(1e150))
magnitude = st.floats(min_value=0.0, max_value=1e200, exclude_min=True,
                      allow_subnormal=False)


@st.composite
def signed_intervals(draw):
    """An interval of each sign class: positive, negative, sign-changing,
    and touching zero at either end."""
    u, v = sorted((draw(magnitude), draw(magnitude)))
    return draw(st.sampled_from([(u, v), (-v, -u), (-u, v), (0.0, v), (-v, 0.0)]))


def _in_band(values):
    # exact values may lie far beyond the float range: no float() here
    return all(v == 0 or _BAND[0] <= abs(Fraction(v)) <= _BAND[1]
               for v in values if v not in (-INF, INF))


def _directed(v, toward):
    # v correctly rounded toward -inf or +inf
    if math.isinf(v):
        return v
    f = float(v)
    beyond = Fraction(f) > v if toward < 0 else Fraction(f) < v
    return math.nextafter(f, toward) if beyond else f


def _product_ends(x, y):
    ps = [Fraction(a) * Fraction(b) for a in x for b in y]
    return ps, ps


def _quotient_ends(x, y):
    """The exact endpoint quotients whose hull is x / y, with +-inf for an
    unbounded end (IEEE Std 1788-2015), as (candidates for lo, for hi)."""
    (a, b), (c, d) = x, y
    if c > 0 or d < 0:
        qs = [Fraction(n) / Fraction(m) for n in x for m in y]
        return qs, qs
    if c == 0 < d:
        return ([Fraction(a) / Fraction(d) if a >= 0 else -INF],
                [Fraction(b) / Fraction(d) if b <= 0 else INF])
    if c < 0 == d:
        return ([Fraction(b) / Fraction(c) if b <= 0 else -INF],
                [Fraction(a) / Fraction(c) if a >= 0 else INF])
    return [-INF], [INF]


def _check_products(x, y):
    """The products q*d by which division checks each rounded quotient
    q = fl(n/d): a product below the band makes the check unreliable, and
    the quotient then moves out on both sides."""
    return [n / d * d for n in x for d in y if d != 0]


@pytest.mark.parametrize("op, ends, checks", [
    (lambda x, y: x * y, _product_ends, lambda x, y: []),
    (lambda x, y: x / y, _quotient_ends, _check_products),
], ids=["mul", "div"])
@given(x=signed_intervals(), y=signed_intervals())
@settings(max_examples=300)
# an in-band dividend over an in-band divisor whose quotient overflows
@example(x=(1e100, 1e100), y=(1e-250, 1e-250))
# a quotient whose check product q*d falls just below the band
@example(x=(1e-290, 2.4605781924881047e-164), y=(1e-290, 2.4605781924881047e-164))
def test_mul_div_tight_on_every_sign_class(op, ends, checks, x, y):
    # the result encloses the exact hull; in the band each end is the
    # directed rounding of the endpoint products or quotients, RD(min) and
    # RU(max), so choosing pairs by sign class never widens it
    enc = op(Interval(*x), Interval(*y))
    los, his = ends(x, y)
    assert enc.lo <= min(los) and max(his) <= enc.hi
    if _in_band([*x, *y, *los, *his, *checks(x, y)]):
        assert enc.lo == min(_directed(v, -INF) for v in los)
        assert enc.hi == max(_directed(v, INF) for v in his)


@pytest.mark.parametrize("op, ends", [
    (operator.add, lambda x, y: (Fraction(x[0]) + Fraction(y[0]),
                                 Fraction(x[1]) + Fraction(y[1]))),
    (operator.sub, lambda x, y: (Fraction(x[0]) - Fraction(y[1]),
                                 Fraction(x[1]) - Fraction(y[0]))),
], ids=["add", "sub"])
@given(x=signed_intervals(), y=signed_intervals())
@settings(max_examples=300)
def test_add_sub_tight_on_every_sign_class(op, ends, x, y):
    # TwoSum finds every exact sum, so each end is the directed rounding
    # of its exact endpoint sum, RD(lo) and RU(hi); endpoints below 1e200
    # keep every sum clear of overflow
    enc = op(Interval(*x), Interval(*y))
    lo, hi = ends(x, y)
    assert enc.lo == _directed(lo, -INF) and enc.hi == _directed(hi, INF)


@given(v=magnitude)
@settings(max_examples=300)
def test_sqrt_rounds_each_end_to_one_side(v):
    # lo = RD(sqrt(v)) and hi = RU(sqrt(v)) in the band: lo^2 <= v <
    # next(lo)^2 and prev(hi)^2 < v <= hi^2, so the width is at most one ulp
    enc = Interval(v).sqrt()
    x = Fraction(v)
    assert Fraction(enc.lo) ** 2 <= x <= Fraction(enc.hi) ** 2
    if _in_band([v, enc.lo ** 2]):
        assert x < Fraction(math.nextafter(enc.lo, INF)) ** 2
        assert Fraction(math.nextafter(enc.hi, -INF)) ** 2 < x


TINY = 5e-324

# results at the edges of Dekker's band, where the scalar path nudges both
# sides instead of trusting the error term, or is exact at the band's
# edge: (operation, x, y, (lo, hi)).  Beyond the band a zero factor or a
# zero dividend still gives an exact zero, with the sign of zero that a
# factor or divisor inside the band gives, and a result that underflows
# keeps the zero on its own side of 0 at the end it bounds.
EDGE_CASES = [
    pytest.param("mul", (1e200, 1e200), (0.0, 0.0), (0.0, 0.0), id="huge-times-0"),
    pytest.param("mul", (0.0, 0.0), (-1e200, -1e200), (-0.0, -0.0), id="0-times-huge"),
    pytest.param("mul", (-1e200, 1e200), (0.0, 0.0), (-0.0, -0.0), id="huge-span-times-0"),
    pytest.param("mul", (0.0, 0.0), (2e150, 2e150), (0.0, 0.0), id="0-times-2e150"),
    pytest.param("mul", (0.0, 1.0), (-3e150, -1.0), (-3.0000000000000005e150, -0.0),
                 id="0-span-times-huge-negative"),
    pytest.param("mul", (-1.0, 0.0), (1.0, 3e150), (-3.0000000000000005e150, 0.0),
                 id="span-to-0-times-huge-positive"),
    pytest.param("div", (0.0, 1.0), (2e150, 3e150), (0.0, 5.000000000000001e-151),
                 id="0-span-over-huge"),
    pytest.param("div", (-1.0, 0.0), (2e150, 3e150), (-5.000000000000001e-151, 0.0),
                 id="negative-span-to-0-over-huge"),
    pytest.param("div", (0.0, 0.0), (-3e150, -2e150), (-0.0, -0.0), id="0-over-huge-negative"),
    pytest.param("mul", (1e-200, 1e-200), (1e-200, 1e-200), (0.0, TINY), id="underflow"),
    pytest.param("mul", (-1e-200, -1e-200), (1e-200, 1e-200), (-TINY, -0.0),
                 id="negative-underflow"),
    pytest.param("mul", (-1e-200, 1e-200), (1e-200, 2e-200), (-TINY, TINY),
                 id="span-underflow"),
    pytest.param("mul", (1e-145, 1e-145), (9.9e-146, 9.9e-146),
                 (9.899999999999998e-291, 9.900000000000001e-291), id="below-1e-290"),
    pytest.param("mul", (-3e-146, -3e-146), (3e-145, 3e-145),
                 (-9.000000000000002e-291, -9e-291), id="negative-below-1e-290"),
    pytest.param("mul", (1e-145, 1e-145), (1.01e-145, 1.01e-145),
                 (1.0099999999999998e-290, 1.0099999999999999e-290), id="above-1e-290"),
    pytest.param("mul", (1e150, 1e150), (1.0, 1.0), (1e150, 1e150), id="factor-at-1e150"),
    pytest.param("mul", (1.0000000000000002e150, 1.0000000000000002e150), (1.0, 1.0),
                 (1e150, 1.0000000000000003e150), id="factor-above-1e150"),
    pytest.param("mul", (1e75, 1e75), (1e75, 1e75), (9.999999999999998e149, 1e150),
                 id="product-near-1e150"),
    pytest.param("mul", (3e75, 3e75), (3.333333333333333e74, 3.333333333333333e74),
                 (9.999999999999998e149, 1e150), id="product-below-1e150"),
    pytest.param("mul", (0.1, 0.1), (1e151, 1e151), (1e150, 1.0000000000000003e150),
                 id="factor-1e151"),
    pytest.param("div", (1.0, 1.0), (1e-150, 1e-150), (1e150, 1.0000000000000002e150),
                 id="quotient-1e150"),
    pytest.param("div", (3.0, 3.0), (3e-150, 3e-150), (9.999999999999998e149, 1e150),
                 id="quotient-near-1e150"),
    pytest.param("div", (1e151, 1e151), (10.0, 10.0),
                 (9.999999999999998e149, 1.0000000000000002e150), id="dividend-1e151"),
    pytest.param("div", (1e150, 1e150), (3.0, 3.0),
                 (3.333333333333333e149, 3.3333333333333336e149), id="dividend-1e150"),
    pytest.param("div", (1.0, 1.0), (3e150, 3e150),
                 (3.333333333333333e-151, 3.333333333333334e-151), id="divisor-3e150"),
    pytest.param("mul", (0.0, 0.0), (INF, INF), (0.0, 0.0), id="0-times-inf"),
    pytest.param("mul", (0.0, 0.0), (-INF, -INF), (0.0, 0.0), id="0-times-minus-inf"),
    pytest.param("mul", (-INF, -INF), (0.0, 0.0), (0.0, 0.0), id="minus-inf-times-0"),
    pytest.param("mul", (-1.0, 0.0), (-INF, 1.0), (-1.0, INF), id="span-0-times-inf"),
    pytest.param("mul", (0.0, 1.0), (-INF, -1.0), (-INF, 0.0), id="0-span-times-minus-inf"),
    pytest.param("mul", (-1.0, 0.0), (0.0, 0.0), (-0.0, -0.0), id="signed-zero-products"),
    pytest.param("mul", (0.0, 0.0), (-1.0, 0.0), (-0.0, -0.0), id="zero-times-signed-zeros"),
    pytest.param("div", (-0.0, 0.0), (-2.0, -1.0), (0.0, 0.0), id="signed-zeros-over-negative"),
    # the check product q*d of the lower end falls just below 1e-290, so
    # that end moves one ulp out instead of rounding down
    pytest.param("div", (1e-290, 2.4605781924881047e-164), (1e-290, 2.4605781924881047e-164),
                 (4.064085437532114e-127, 2.4605781924881048e+126), id="check-product-below-1e-290"),
    pytest.param("sqrt", (TINY, TINY), None,
                 (2.2227587494850772e-162, 2.222758749485078e-162), id="sqrt-smallest"),
    pytest.param("sqrt", (1e-310, 2e-310), None,
                 (9.999999999999984e-156, 1.4142135623730932e-155), id="sqrt-subnormal"),
    pytest.param("sqrt", (0.0, 4e-320), None, (0.0, 1.9999888671516983e-160),
                 id="sqrt-0-to-subnormal"),
]


def _bits(lo, hi):
    return struct.pack("<2d", lo, hi)


@pytest.mark.parametrize("op, x, y, expected", EDGE_CASES)
def test_edge_of_dekker_band_results_are_pinned(op, x, y, expected):
    # bit for bit, signs of zero included
    if op == "sqrt":
        enc = Interval(*x).sqrt()
    elif op == "mul":
        enc = Interval(*x) * Interval(*y)
    else:
        enc = Interval(*x) / Interval(*y)
    assert _bits(enc.lo, enc.hi) == _bits(*expected)


# results that underflow beyond Dekker's band, each end's bits against
# RD and RU of the exact result: a positive one rounds down to +0.0 and a
# negative one up to -0.0, so that a product or quotient of one sign
# keeps it, as on the array engine
UNDERFLOWS = [
    pytest.param("mul", (1e-300, 1.0), (1e-100, 1.0), (0.0, 1.0), id="product"),
    pytest.param("mul", (-1.0, -1e-300), (1e-100, 1.0), (-1.0, -0.0), id="negative-product"),
    pytest.param("mul", (-1.0, -1e-300), (-1.0, -1e-100), (0.0, 1.0),
                 id="product-of-negatives"),
    pytest.param("div", (1.7648945052746497e-206, 1.0), (1.0, 1.0000000000000002e150),
                 (0.0, 1.0), id="quotient"),
    pytest.param("div", (-1.0, -1.7648945052746497e-206), (1.0, 1.0000000000000002e150),
                 (-1.0, -0.0), id="negative-quotient"),
    pytest.param("div", (1.7648945052746497e-206, 1.0), (-1.0000000000000002e150, -1.0),
                 (-1.0, -0.0), id="quotient-over-negatives"),
    pytest.param("div", (1e-300, 1.0), (INF, INF), (0.0, TINY), id="over-infinity"),
]


@pytest.mark.parametrize("op, x, y, expected", UNDERFLOWS)
def test_an_underflow_rounds_to_the_zero_on_its_side(op, x, y, expected):
    enc = Interval(*x) * Interval(*y) if op == "mul" else Interval(*x) / Interval(*y)
    assert _bits(enc.lo, enc.hi) == _bits(*expected)
    arr = (IntervalArray([x[0]], [x[1]]) * IntervalArray([y[0]], [y[1]]) if op == "mul"
           else IntervalArray([x[0]], [x[1]]) / IntervalArray([y[0]], [y[1]]))
    assert arr.lo[0] <= enc.lo <= enc.hi <= arr.hi[0]


ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
ARITHMETIC_IDS = ["add", "sub", "mul", "div"]


@pytest.mark.parametrize("op", ARITHMETIC, ids=ARITHMETIC_IDS)
@given(x=signed_intervals(), v=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
@example(x=(-1.0, 2.0), v=3)
@example(x=(0.5, 2.0), v=np.float64(0.1))
@example(x=(-2.0, 0.0), v=-0.0)
def test_a_number_operand_is_its_degenerate_interval(op, x, v):
    # a number on either side gives exactly the result of Interval(v)
    iv = Interval(*x)
    for got, want in ((op(iv, v), op(iv, Interval(v))), (op(v, iv), op(Interval(v), iv))):
        assert type(got) is Interval
        assert _bits(got.lo, got.hi) == _bits(want.lo, want.hi)


@pytest.mark.parametrize("op", ARITHMETIC, ids=ARITHMETIC_IDS)
def test_a_nan_operand_is_rejected(op):
    with pytest.raises(IntervalDomainError):
        op(Interval(1.0, 2.0), math.nan)
    with pytest.raises(IntervalDomainError):
        op(math.nan, Interval(1.0, 2.0))


@pytest.mark.parametrize("make", [lambda: Interval(INF) + Interval(-INF),
                                  lambda: Interval(INF) - INF,
                                  lambda: INF - Interval(INF)], ids=["add", "sub", "rsub"])
def test_a_nan_result_is_rejected(make):
    with pytest.raises(IntervalDomainError):
        make()


def test_point_ops_enclose_random(rng):
    # 10^4 random degenerate-interval ops against exact rational arithmetic
    vals = rng.uniform(-1e6, 1e6, size=(10_000, 2))
    for a, b in vals:
        ia, ib = Interval(a), Interval(b)
        assert Fraction(a) + Fraction(b) >= Fraction((ia + ib).lo)
        assert Fraction(a) + Fraction(b) <= Fraction((ia + ib).hi)
        prod = (ia * ib)
        assert Fraction(prod.lo) <= Fraction(a) * Fraction(b) <= Fraction(prod.hi)


def test_pi_constant_encloses():
    with mpmath.workdps(40):
        assert mpmath.mpf(PI.lo) < mpmath.pi < mpmath.mpf(PI.hi)


def test_square_of_sign_changing_interval():
    sq = Interval(-2, 1).sq()
    assert sq.lo == 0.0 and sq.hi >= 4.0


def _poly_expr(x, y):
    return (x - 0.5).sq() + (y - 0.25).sq() + 1.5


def test_monotone_refinement():
    # splitting never widens the union enclosure (inclusion isotonicity)
    x, y = Interval(0.0, 1.0), Interval(0.0, 1.0)
    parent = _poly_expr(x, y)
    e1 = _poly_expr(Interval(0.0, 0.5), y)
    e2 = _poly_expr(Interval(0.5, 1.0), y)
    assert parent.lo <= min(e1.lo, e2.lo)
    assert parent.hi >= max(e1.hi, e2.hi)


def test_scalar_and_array_engines_agree(rng):
    for _ in range(200):
        lo1, w1 = rng.uniform(-3, 3), rng.uniform(0, 2)
        lo2, w2 = rng.uniform(0.5, 3), rng.uniform(0, 2)
        s = _poly_expr(Interval(lo1, lo1 + w1), Interval(lo2, lo2 + w2))
        arr = _poly_expr(IntervalArray(np.array([lo1]), np.array([lo1 + w1])),
                         IntervalArray(np.array([lo2]), np.array([lo2 + w2])))
        # scalar rounding is exactness-aware, hence never wider
        assert arr.lo[0] <= s.lo and s.hi <= arr.hi[0]


# endpoints where rounding and the IEEE special cases meet: signed zeros,
# infinities (0 * inf products), subnormals, the normal range's edges
_TINY = 5e-324
SPECIAL_ENDS = [0.0, -0.0, INF, -INF, _TINY, -_TINY, 1e-310, -1e-310,
                sys.float_info.min, -sys.float_info.min, 1e-300, 1.0, -1.0,
                0.5, -3.0, 1e300, sys.float_info.max, -sys.float_info.max]
_zero = st.sampled_from([0.0, -0.0])
# one end in three a signed zero, so that many divisors touch or contain 0
array_ends = st.one_of(_zero, st.sampled_from(SPECIAL_ENDS), st.floats(allow_nan=False))


@st.composite
def _interval_arrays(draw, n):
    """n intervals as (lo, hi), from endpoints drawn in pairs and put in
    order; equal ends, such as -0.0 and 0.0, keep the order drawn."""
    a, b = np.array(draw(st.lists(array_ends, min_size=2 * n, max_size=2 * n))).reshape(2, n)
    first = a <= b
    return np.where(first, a, b), np.where(first, b, a)


@st.composite
def _operands(draw, n):
    """An operand of each kind: intervals (as endpoint arrays), a number,
    or a 1-D array."""
    kind = draw(st.sampled_from(["intervals", "number", "array"]))
    if kind == "intervals":
        return kind, draw(_interval_arrays(n))
    if kind == "number":
        return kind, draw(array_ends)
    return kind, np.array(draw(st.lists(array_ends, min_size=n, max_size=n)))


def _same_bits(new, old):
    return (new.lo.shape == old.lo.shape == new.hi.shape == old.hi.shape
            and new.lo.tobytes() == old.lo.tobytes()
            and new.hi.tobytes() == old.hi.tobytes())


BINARY_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__"]
UNARY_OPS = ["__neg__", "sq", "sqrt", "nonneg"]


def _both_engines(op, x, other=None):
    """op on the intervals x = (lo, hi) and ``other``, a pair (kind, value)
    from ``_operands``, in IntervalArray and in the oracle."""
    with np.errstate(all="ignore"):
        if other is None:
            return getattr(IntervalArray(*x), op)(), getattr(TwoArrayIntervals(*x), op)()
        kind, value = other
        if kind == "intervals":
            return (getattr(IntervalArray(*x), op)(IntervalArray(*value)),
                    getattr(TwoArrayIntervals(*x), op)(TwoArrayIntervals(*value)))
        return getattr(IntervalArray(*x), op)(value), getattr(TwoArrayIntervals(*x), op)(value)


@pytest.mark.parametrize("op", BINARY_OPS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_array_engine_matches_two_array_oracle(op, data):
    # every operation, on every kind of operand, gives the bits of the
    # engine with separate lo and hi arrays and two nudges
    n = data.draw(st.integers(1, 12))
    x = data.draw(_interval_arrays(n))
    assert _same_bits(*_both_engines(op, x, data.draw(_operands(n))))


@pytest.mark.parametrize("op", UNARY_OPS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_array_engine_matches_two_array_oracle_unary(op, data):
    x = data.draw(_interval_arrays(data.draw(st.integers(1, 12))))
    assert _same_bits(*_both_engines(op, x))


@pytest.mark.parametrize("n", range(1, 17))
def test_array_engine_matches_two_array_oracle_at_every_length(n):
    # numpy's vector loops leave the last elements of an array to a scalar
    # loop: special endpoints at every position of every length up to 16
    rng = np.random.default_rng(n)
    ends = np.array(SPECIAL_ENDS)

    def intervals():
        a, b = rng.choice(ends, (2, n))
        first = a <= b
        return np.where(first, a, b), np.where(first, b, a)

    for _ in range(40):
        x = intervals()
        for other in (("intervals", intervals()), ("number", float(rng.choice(ends))),
                      ("array", rng.choice(ends, n))):
            for op in BINARY_OPS:
                assert _same_bits(*_both_engines(op, x, other)), (op, x, other)
        for op in UNARY_OPS:
            assert _same_bits(*_both_engines(op, x)), (op, x)


# every interval with ends among these, the two zeros in either order
_BATCH_ENDS = [0.0, -0.0, _TINY, -_TINY, 1.0, -1.0, INF, -INF, 1e308]
_BATCH_INTERVALS = np.array([(a, b) for a in _BATCH_ENDS for b in _BATCH_ENDS if a <= b]).T


def _in_batches(op, x, other, n):
    """The endpoint rows of op on the elements of the endpoint rows x (and
    of ``other``: endpoint rows, a 1-D array or None), evaluated n at a
    time."""
    out = []
    with np.errstate(all="ignore"):
        for i in range(0, x.shape[1], n):
            args = [] if other is None else [
                IntervalArray(*other[:, i:i + n]) if other.ndim == 2 else other[i:i + n]]
            out.append(getattr(IntervalArray(*x[:, i:i + n]), op)(*args).e)
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__truediv__", "__rsub__",
                                "__rtruediv__", *UNARY_OPS])
def test_an_element_does_not_depend_on_its_batch(op):
    # a box's enclosure depends on its own operands alone, however many
    # boxes share the evaluator call: each element evaluated alone and in
    # batches of 2 to 17, with interval and with 1-D array operands
    m = _BATCH_INTERVALS.shape[1]
    if op in UNARY_OPS:
        cases = [(_BATCH_INTERVALS, None)]
    else:  # every interval with every interval, and with every end as a number
        cases = [(np.repeat(_BATCH_INTERVALS, m, axis=1), np.tile(_BATCH_INTERVALS, m)),
                 (np.repeat(_BATCH_INTERVALS, len(_BATCH_ENDS), axis=1),
                  np.tile(_BATCH_ENDS, m))]
    for x, other in cases:
        alone = _in_batches(op, x, other, 1).view(np.int64)
        for n in range(2, 18):
            moved = np.flatnonzero((_in_batches(op, x, other, n).view(np.int64) != alone).any(0))
            assert moved.size == 0, (n, x[:, moved[:3]].T.tolist())


def test_ndarray_on_the_left_defers_to_the_reflected_operation():
    # numpy hands ``ndarray <op> IntervalArray`` to the IntervalArray's
    # reflected method instead of building an object array
    x = IntervalArray([1.0, 2.0], [1.5, 3.0])
    v = np.array([1.0, 2.0])
    for op, reflected in ((operator.add, "__radd__"), (operator.sub, "__rsub__"),
                          (operator.mul, "__rmul__"), (operator.truediv, "__rtruediv__")):
        result = op(v, x)
        assert isinstance(result, IntervalArray), op
        assert _same_bits(result, getattr(x, reflected)(v)), op


@st.composite
def _scalar_ends(draw):
    """(lo, hi) of a sign class from ``signed_intervals()``, or from ends
    drawn among the ``SPECIAL_ENDS``, signed zeros and any float, put in
    order; equal ends, such as -0.0 and 0.0, keep the order drawn."""
    if draw(st.booleans()):
        return draw(signed_intervals())
    a, b = draw(array_ends), draw(array_ends)
    return (a, b) if a <= b else (b, a)


# a number operand of each kind the operators read: int, float, np.float64,
# and NaN, which both reject
scalar_numbers = st.one_of(st.integers(-2 ** 60, 2 ** 60), array_ends,
                           array_ends.map(np.float64), st.just(math.nan))


def _outcome(make):
    """The bits of an operation's result, or "raises" where it rejects
    its operands or its result."""
    try:
        enc = make()
    except IntervalDomainError:
        return "raises"
    return _bits(enc.lo, enc.hi)


@pytest.mark.parametrize("op", ARITHMETIC, ids=ARITHMETIC_IDS)
@given(x=_scalar_ends(), y=_scalar_ends(), v=scalar_numbers)
@settings(max_examples=300)
def test_scalar_engine_matches_two_sided_oracle(op, x, y, v):
    # each endpoint rounded once on its own side gives the bits of the
    # operators that round it to both sides and keep one: two intervals,
    # and a number on either side (the reflected forms)
    X, Y, OX, OY = Interval(*x), Interval(*y), TwoSidedInterval(*x), TwoSidedInterval(*y)
    assert _outcome(lambda: op(X, Y)) == _outcome(lambda: op(OX, OY))
    assert _outcome(lambda: op(X, v)) == _outcome(lambda: op(OX, v))
    assert _outcome(lambda: op(v, X)) == _outcome(lambda: op(v, OX))


@pytest.mark.parametrize("op", ["sq", "sqrt", "nonneg", "__neg__"])
@given(x=_scalar_ends())
@settings(max_examples=300)
def test_scalar_engine_matches_two_sided_oracle_unary(op, x):
    assert (_outcome(lambda: getattr(Interval(*x), op)())
            == _outcome(lambda: getattr(TwoSidedInterval(*x), op)()))


# fixed operands for the oracle: every interval with ends among the
# SPECIAL_ENDS, and the operands of EDGE_CASES at the edges of Dekker's
# band, each with the ends that it uses as numbers
_EDGE_OPERANDS = sorted({iv for case in EDGE_CASES for iv in case.values[1:3] if iv})
FIXED_OPERANDS = [
    pytest.param([(a, b) for a in SPECIAL_ENDS for b in SPECIAL_ENDS if a <= b],
                 SPECIAL_ENDS, id="special-ends"),
    pytest.param(_EDGE_OPERANDS, sorted({v for iv in _EDGE_OPERANDS for v in iv}),
                 id="band-edges"),
]


@pytest.mark.parametrize("ends, numbers", FIXED_OPERANDS)
def test_scalar_engine_matches_two_sided_oracle_on_fixed_operands(ends, numbers):
    # every interval with every other, and with each number on either side
    for x in ends:
        X, OX = Interval(*x), TwoSidedInterval(*x)
        for op in ("sq", "sqrt", "nonneg", "__neg__"):
            assert (_outcome(lambda: getattr(X, op)())
                    == _outcome(lambda: getattr(OX, op)())), (op, x)
        for op in ARITHMETIC:
            for y in ends:
                assert (_outcome(lambda: op(X, Interval(*y)))
                        == _outcome(lambda: op(OX, TwoSidedInterval(*y)))), (op, x, y)
            for v in numbers:
                assert _outcome(lambda: op(X, v)) == _outcome(lambda: op(OX, v)), (op, x, v)
                assert _outcome(lambda: op(v, X)) == _outcome(lambda: op(v, OX)), (op, v, x)


def test_certify_rejects_an_unordered_root():
    for root in ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0), (0.0, math.nan, 0.0, 1.0)):
        with pytest.raises(IntervalDomainError):
            certify_lower_bound("const", lambda X, Y: X * 0.0 + 2.0, root, 1.0)


def test_certify_constant_function():
    cert = certify_lower_bound("const", lambda X, Y: X * 0.0 + 2.0,
                               (0.0, 1.0, 0.0, 1.0), 1.0)
    assert cert.status is CertStatus.PROVED
    assert cert.retained_count >= 1
    assert replay_certificate(cert, lambda x, y: x * 0.0 + 2.0)


def test_certify_detects_failure_with_witness():
    # f(x, y) = x dips below 0.5 on the unit square
    cert = certify_lower_bound("identity", lambda X, Y: X + Y * 0.0,
                               (0.0, 1.0, 0.0, 1.0), 0.5)
    assert cert.status is CertStatus.FAILED
    x, y, val = cert.witness
    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
    # the witness value is a proved upper bound of f at the witness
    assert x <= val < 0.5


def test_certificate_json_roundtrip(tmp_path):
    cert = certify_lower_bound("const", lambda X, Y: X * 0.0 + 2.0,
                               (0.0, 1.0, 0.0, 1.0), 1.0)
    path = tmp_path / "const.json"
    cert.save_json(path)
    import json
    data = json.loads(path.read_text())
    assert data["status"] == "proved"
    assert data["target"] == "const"
    assert data["box_digest"] == cert.box_digest()
    assert data["threshold"] == 1.0


def test_extended_division_touching_zero():
    arr = IntervalArray(np.array([1.0]), np.array([2.0])) / IntervalArray(
        np.array([0.0]), np.array([4.0]))
    assert arr.lo[0] <= 0.25 and arr.hi[0] == math.inf
    # spanning zero yields the whole line, engine treats it as undecided
    arr = IntervalArray(np.array([1.0]), np.array([2.0])) / IntervalArray(
        np.array([-1.0]), np.array([1.0]))
    assert arr.lo[0] == -math.inf and arr.hi[0] == math.inf


@pytest.mark.parametrize("box, lo, hi, want", [
    ((1.0, 2.0), 1.5, None, (1.5, 1.5)),
    ((1.0, 2.0), 0.0, None, (1.0, 1.0)),
    ((1.0, 2.0), 3.0, None, (2.0, 2.0)),
    ((1.0, 2.0), 0.5, 1.25, (1.0, 1.25)),
    ((1.0, 2.0), 1.75, 3.0, (1.75, 2.0)),
    ((-INF, 0.0), -1.0, 1.0, (-1.0, 0.0)),
])
def test_clamp_moves_each_end_to_the_nearest_point(box, lo, hi, want):
    got = Interval(*box).clamp(lo, hi)
    arr = IntervalArray([box[0], 0.0], [box[1], 0.0]).clamp(lo, hi)
    assert (got.lo, got.hi) == want
    assert (arr.lo[0], arr.hi[0]) == want and (arr.lo[1], arr.hi[1]) == (0.0, 0.0)
