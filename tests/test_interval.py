import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cp2tori.errors import IntervalDivisionError, IntervalDomainError
from cp2tori.interval import (PI, Box2, CertStatus, Interval, IntervalArray,
                              certify_lower_bound, replay_certificate)

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


def test_division_by_zero_interval_raises():
    with pytest.raises(IntervalDivisionError):
        Interval(1, 2) / Interval(-1, 1)
    with pytest.raises(IntervalDivisionError):
        Interval(1, 2) / Interval(0, 1)


def test_sqrt_negative_raises():
    with pytest.raises(IntervalDomainError):
        Interval(-1, 4).sqrt()


def test_invalid_bounds_rejected():
    with pytest.raises(IntervalDomainError):
        Interval(2, 1)
    with pytest.raises(IntervalDomainError):
        Interval(float("nan"))


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
    box = Box2.make(0.0, 1.0, 0.0, 1.0)
    parent = _poly_expr(box.x, box.y)
    c1, c2 = box.split()
    e1 = _poly_expr(c1.x, c1.y)
    e2 = _poly_expr(c2.x, c2.y)
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


def test_certify_constant_function():
    cert = certify_lower_bound("const", lambda X, Y: X * 0.0 + 2.0,
                               Box2.make(0.0, 1.0, 0.0, 1.0), 1.0)
    assert cert.status is CertStatus.PROVED
    assert cert.retained_count >= 1
    assert replay_certificate(cert, lambda x, y: x * 0.0 + 2.0)


def test_certify_detects_failure_with_witness():
    # f(x, y) = x dips below 0.5 on the unit square
    cert = certify_lower_bound("identity", lambda X, Y: X + Y * 0.0,
                               Box2.make(0.0, 1.0, 0.0, 1.0), 0.5,
                               point_fn=lambda x, y: x)
    assert cert.status is CertStatus.FAILED
    assert cert.witness is not None and cert.witness[0] < 0.5


def test_certificate_json_roundtrip(tmp_path):
    cert = certify_lower_bound("const", lambda X, Y: X * 0.0 + 2.0,
                               Box2.make(0.0, 1.0, 0.0, 1.0), 1.0)
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
