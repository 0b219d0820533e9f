"""Directed-rounding interval arithmetic and certified branch-and-bound.

Outward rounding is implemented by one-ulp nudging (``math.nextafter`` /
``np.nextafter``) rather than FPU rounding-mode control: Python gives no
portable, thread-safe access to the rounding mode, and a correctly rounded
IEEE result is always within one ulp of the exact value, so nudging is
sound for ``+ - * / sqrt``.  The scalar path additionally detects *exact*
results (TwoSum / Dekker product) and skips the nudge, so integer-valued
computations stay tight; the vectorized path always nudges (slightly wider,
never unsound).

The scalar path rounds each endpoint product, quotient or square root
once, on the side it bounds: RD for a lower end, RU for an upper one.  It
keeps the float result where the exact value lies on the bounded side of
it and moves one ulp out otherwise, which Dekker's error term shows for a
product and the residual a - q*b for a quotient or root q (TwoSum's error
does the same for a sum).  Outside the band where Dekker's splits are
exact, the end moves one ulp out, unless a zero factor or dividend makes
it an exact zero or the result underflows to the zero on the side the end
bounds: RD of a positive result that underflows is +0.0 and RU of a
negative one -0.0, as on the vectorized path.  An Interval operand's ends
are read directly; a number operand such as the ``8.0`` in ``8.0 * x`` is
read as the endpoint pair (8.0, 8.0) and is not wrapped in an
``Interval``.
Operands of one sign need two endpoint pairs, not four (Moore, Kearfott &
Cloud, *Introduction to Interval Analysis*, SIAM 2009, §2.3): both
factors >= 0 give [a*c, b*d] and a dividend >= 0 over a divisor > 0 gives
[a/d, b/c]; any other case rounds its four pairs down for the lower end
and up for the upper one.  On both engines an endpoint product of 0 and
+-inf is +0.0 (IEEE Std 1788-2015).

Two arithmetic engines share one operator API:

* :class:`Interval` -- scalar, used by public code and certificate replay;
* :class:`IntervalArray` -- numpy-backed, used by the subdivision engine.

An ``IntervalArray`` keeps its endpoints in one float64 array of shape
(2, n), row 0 the lower ends and row 1 the upper ends, so that an
operation costs a few numpy calls whatever n is: ``+`` and ``-`` are one
operation on both rows, ``*`` and ``/`` form their four endpoint products
or quotients in one broadcast (two for a number operand) and reduce them
in fixed pairs, and one helper nudges both rows, ``np.nextafter`` towards
-inf for row 0 and +inf for row 1, keeping an exact +0.0 lower end and
-0.0 upper end at 0.0.  So an element's enclosure depends only on its own
operands, not on how many others share the call.  ``clamp`` makes, on
either engine, the thin interval at the points of an interval nearest
given numbers, on which a bound expression can evaluate a monotone piece
at its extremes.

Both divide by one rule (IEEE Std 1788-2015): a divisor that touches zero
at one end gives an enclosure of n/d over its nonzero part -- one-sided
for a dividend of one sign, about 0 for a zero dividend, the whole line
for a dividend of both signs -- and any other divisor containing zero
gives the whole line.  Division never raises, so a formula written
against ``+ - * /`` and the module-level :func:`sqrt` runs unchanged on
either engine, which gives certificate replay an arithmetic path
independent of the one that produced the proof.  The subdivision engine
treats a non-finite lower bound as "undecided, split"; replay treats it
as not proved.

The subdivision engine, :func:`certify_lower_bound`, bisects level by
level but encloses a window of levels in one evaluator call, since a
call's fixed cost is about that of several hundred boxes: while the
frontier is small, it splits every kept box ahead, clips the children
and resolves the window level by level afterwards.  Its contract is that
the domain clip and the evaluator work element by element, a box's
clip and enclosure depending on that box alone; ``IntervalArray`` gives
every formula written against its operators that property.  So each box
that the bisection reaches gets the clip and the enclosure that one call
per level would give it, and the certificate is bit for bit the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntervalDomainError

_INF = math.inf
_NAN = math.nan
_new = object.__new__
_nextafter = math.nextafter  # _nextafter(v, -_INF) is v one ulp down

# Dekker splitting fails near overflow; outside this band we just nudge.
_SPLIT_SAFE = 1e150


# Each endpoint sum, product, quotient or square root is rounded once, on
# the side it bounds: RD for a lower end, RU for an upper one.  Where the
# exact value's side of the float result is unknown, the end moves one ulp
# out; nextafter moves +inf down to the largest float and -inf up to its
# negative, so an overflow keeps a finite bound on the side away from it.


def _add_down(a, b):
    """RD(a + b): TwoSum's error (a - (s - bb)) + (b - bb) is a + b - s
    exactly, and NaN where s is +-inf or NaN, which then moves out."""
    s = a + b
    bb = s - a
    return s if (a - (s - bb)) + (b - bb) >= 0 else _nextafter(s, -_INF)


def _add_up(a, b):
    """RU(a + b), as ``_add_down``."""
    s = a + b
    bb = s - a
    return s if (a - (s - bb)) + (b - bb) <= 0 else _nextafter(s, _INF)


# Dekker's exact error a*b - p of p = fl(a * b), from Veltkamp splits,
# shows on which side of p the exact product lies.  The splits are exact
# only in a band: both factors and p within 1e150 of 0 (away from
# overflow), and p at least 1e-290 in magnitude or 0 from a zero factor;
# outside it, an underflowed product among them, the end moves one ulp
# out, but a zero on the bounded side of the exact result stays.  The
# band test and the error are written out in _mul_down, _mul_up and
# _residual, the innermost steps of every product, quotient and root.


def _mul_down(a, b):
    """RD(a * b) in the band, fl(a * b) one ulp down outside it but for a
    zero factor or a positive product underflowed to +0.0, which stays; a
    product of 0 and +-inf is +0.0 (IEEE Std 1788-2015)."""
    p = a * b
    if (-_SPLIT_SAFE <= a <= _SPLIT_SAFE and -_SPLIT_SAFE <= b <= _SPLIT_SAFE
            and (1e-290 <= p <= _SPLIT_SAFE or -_SPLIT_SAFE <= p <= -1e-290
                 or (p == 0.0 and (a == 0.0 or b == 0.0)))):
        c = 134217729.0 * a  # 2**27 + 1
        ah = c - (c - a)
        al = a - ah
        c = 134217729.0 * b
        bh = c - (c - b)
        bl = b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        return p if e >= 0.0 else _nextafter(p, -_INF)
    if a == 0.0 or b == 0.0:  # an exact zero, or 0 * +-inf
        return 0.0 if p != p else p
    if p == 0.0 and (a > 0.0) == (b > 0.0):  # a positive product underflowed
        return 0.0
    return _nextafter(p, -_INF)


def _mul_up(a, b):
    """RU(a * b), as ``_mul_down``."""
    p = a * b
    if (-_SPLIT_SAFE <= a <= _SPLIT_SAFE and -_SPLIT_SAFE <= b <= _SPLIT_SAFE
            and (1e-290 <= p <= _SPLIT_SAFE or -_SPLIT_SAFE <= p <= -1e-290
                 or (p == 0.0 and (a == 0.0 or b == 0.0)))):
        c = 134217729.0 * a  # 2**27 + 1
        ah = c - (c - a)
        al = a - ah
        c = 134217729.0 * b
        bh = c - (c - b)
        bl = b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        return p if e <= 0.0 else _nextafter(p, _INF)
    if a == 0.0 or b == 0.0:
        return 0.0 if p != p else p
    if p == 0.0 and (a > 0.0) != (b > 0.0):  # a negative product underflowed
        return -0.0
    return _nextafter(p, _INF)


def _residual(a, q, b):
    """a - q*b, with its exact sign, for q = fl(a / b) or q = b = fl(sqrt(a)),
    as a - p - e with p = fl(q*b) and e its Dekker error; outside the band
    NaN (an infinite q included), or 0 for a zero dividend.  a - p is exact
    by Sterbenz's lemma, so only the last subtraction rounds."""
    p = q * b
    if (-_SPLIT_SAFE <= q <= _SPLIT_SAFE and -_SPLIT_SAFE <= b <= _SPLIT_SAFE
            and (1e-290 <= p <= _SPLIT_SAFE or -_SPLIT_SAFE <= p <= -1e-290
                 or (p == 0.0 and (q == 0.0 or b == 0.0)))):
        c = 134217729.0 * q  # 2**27 + 1
        qh = c - (c - q)
        ql = q - qh
        c = 134217729.0 * b
        bh = c - (c - b)
        bl = b - bh
        return (a - p) - (((qh * bh - p) + qh * bl + ql * bh) + ql * bl)
    return 0.0 if a == 0.0 else _NAN


def _div_down(a, b):
    """RD(a / b) for b != 0: q = fl(a / b) moves one ulp down unless the
    residual, of the sign of a/b - q times that of b, shows it below the
    exact quotient, or it is a positive quotient underflowed to +0.0;
    inf / inf is unbounded."""
    q = a / b
    if q != q:
        return -_INF
    r = _residual(a, q, b)
    if (r >= 0.0 if b > 0.0 else r <= 0.0):
        return q
    if q == 0.0 and (a > 0.0) == (b > 0.0):  # a positive quotient underflowed
        return 0.0
    return _nextafter(q, -_INF)


def _div_up(a, b):
    """RU(a / b), as ``_div_down``."""
    q = a / b
    if q != q:
        return _INF
    r = _residual(a, q, b)
    if (r <= 0.0 if b > 0.0 else r >= 0.0):
        return q
    if q == 0.0 and (a > 0.0) != (b > 0.0):  # a negative quotient underflowed
        return -0.0
    return _nextafter(q, _INF)


def _interval(lo, hi):
    """An Interval from float endpoints: the constructor's check, without
    its float() conversions."""
    if not lo <= hi:  # also rejects NaN
        raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
    iv = _new(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


def _ends(v):
    """The endpoints of an operand: an Interval's, or (v, v) for a number,
    which is read without building an Interval."""
    if isinstance(v, Interval):
        return v.lo, v.hi
    v = float(v)
    if v != v:
        raise IntervalDomainError(f"invalid interval bounds [{v}, {v}]")
    return v, v


def _div(a, b, c, d):
    """[a, b] / [c, d]; a divisor containing 0 as the module docstring says."""
    if c > 0.0 and a >= 0.0:  # the pairs (a, d) and (b, c) bound it
        return _interval(_div_down(a, d), _div_up(b, c))
    if c == 0.0 < d:  # divisor in (0, d]
        return _interval(_div_down(a, d) if a >= 0.0 else -_INF,
                         _div_up(b, d) if b <= 0.0 else _INF)
    if c < 0.0 == d:  # divisor in [c, 0)
        return _interval(_div_down(b, c) if b <= 0.0 else -_INF,
                         _div_up(a, c) if a >= 0.0 else _INF)
    if c <= 0.0 <= d:
        return _interval(-_INF, _INF)
    return _interval(min(_div_down(a, c), _div_down(a, d), _div_down(b, c), _div_down(b, d)),
                     max(_div_up(a, c), _div_up(a, d), _div_up(b, c), _div_up(b, d)))


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: Optional[float] = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:  # also rejects NaN
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic: a number operand is the interval [v, v] -------------
    # The hot operators read an Interval or float operand's ends directly
    # and build their result in place: they run for every operation of
    # every box that a certificate replay re-verifies.  Any other operand
    # goes through _ends.

    def __add__(self, other):
        if type(other) is Interval:
            c, d = other.lo, other.hi
        elif type(other) is float and other == other:
            c = d = other
        else:
            c, d = _ends(other)
        lo, hi = _add_down(self.lo, c), _add_up(self.hi, d)
        if not lo <= hi:  # also rejects NaN
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        iv = _new(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    __radd__ = __add__

    def __neg__(self):
        return _interval(-self.hi, -self.lo)

    def __sub__(self, other):
        if type(other) is Interval:
            c, d = other.lo, other.hi
        elif type(other) is float and other == other:
            c = d = other
        else:
            c, d = _ends(other)
        lo, hi = _add_down(self.lo, -d), _add_up(self.hi, -c)
        if not lo <= hi:
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        iv = _new(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    def __rsub__(self, other):
        if type(other) is float and other == other:
            a = b = other
        else:
            a, b = _ends(other)
        return _interval(_add_down(a, -self.hi), _add_up(b, -self.lo))

    def __mul__(self, other):
        a, b = self.lo, self.hi
        if type(other) is Interval:
            c, d = other.lo, other.hi
        elif type(other) is float and other == other:
            c = d = other
        else:
            c, d = _ends(other)
        if a >= 0.0 and c >= 0.0:  # the pairs (a, c) and (b, d) bound it
            lo, hi = _mul_down(a, c), _mul_up(b, d)
        else:
            lo = min(_mul_down(a, c), _mul_down(a, d), _mul_down(b, c), _mul_down(b, d))
            hi = max(_mul_up(a, c), _mul_up(a, d), _mul_up(b, c), _mul_up(b, d))
        if not lo <= hi:
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        iv = _new(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Interval:
            return _div(self.lo, self.hi, other.lo, other.hi)
        c, d = _ends(other)
        return _div(self.lo, self.hi, c, d)

    def __rtruediv__(self, other):
        a, b = _ends(other)
        return _div(a, b, self.lo, self.hi)

    def sq(self) -> "Interval":
        """Tight square: never dips below zero for sign-changing intervals."""
        lo, hi = self.lo, self.hi
        if lo > 0.0:
            lo, hi = _mul_down(lo, lo), _mul_up(hi, hi)
        elif hi < 0.0:
            lo, hi = _mul_down(-hi, -hi), _mul_up(-lo, -lo)
        else:  # the larger |end| squared, and 0
            lo, hi = 0.0, _mul_up(hi, hi) if -lo <= hi else _mul_up(-lo, -lo)
        if not lo <= hi:
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        iv = _new(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise IntervalDomainError(f"sqrt of {self!r} with negative lower endpoint")
        rl = math.sqrt(self.lo)
        rh = math.sqrt(self.hi)
        lo = rl if _residual(self.lo, rl, rl) >= 0.0 else _nextafter(rl, -_INF)
        hi = rh if _residual(self.hi, rh, rh) <= 0.0 else _nextafter(rh, _INF)
        if 0.0 > lo:
            lo = 0.0
        if not lo <= hi:
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        iv = _new(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    def nonneg(self) -> "Interval":
        """Intersection with [0, inf); use when the domain guarantees >= 0."""
        lo, hi = self.lo, self.hi
        if hi < 0:
            raise IntervalDomainError(f"{self!r} entirely negative")
        if 0.0 > lo:
            lo = 0.0
        iv = _new(Interval)
        iv.lo = lo
        iv.hi = hi
        return iv

    def clamp(self, lo: float, hi: Optional[float] = None) -> "Interval":
        """[lo, hi] (the point lo if hi is None) with each end moved to the
        nearest point of self: the thin interval at self's points nearest
        them."""
        if hi is None:
            hi = lo
        return _interval(min(max(lo, self.lo), self.hi), min(max(hi, self.lo), self.hi))


PI = Interval(_nextafter(math.pi, -_INF), _nextafter(math.pi, _INF))


def sqrt(v):
    """sqrt dispatching across Interval, IntervalArray, arrays and floats."""
    if hasattr(v, "sqrt"):
        return v.sqrt()
    if isinstance(v, np.ndarray):
        return np.sqrt(v)
    return math.sqrt(v)


# ----------------------------------------------------------------------
# Vectorized engine
# ----------------------------------------------------------------------


_OUT = np.array([[-_INF], [_INF]])  # outward: row 0 down, row 1 up
# the bits of +0.0 (row 0) and -0.0 (row 1): such an end stays 0.0 when nudged
_ZERO_STAYS = np.array([[0], [np.iinfo(np.int64).min]], dtype=np.int64)
_FLOOR = np.array([[0.0], [-_INF]])  # np.maximum with it clamps row 0 at 0
_SIGNS = np.array([[1.0], [-1.0]])


def _nudge(e):
    """Endpoint rows e moved one ulp outward, row 0 down and row 1 up.  An
    exact +0.0 lower end or -0.0 upper end stays 0.0, so that sign-definite
    products keep their sign (such a zero comes from an exact zero or from
    an underflow on its own side of 0)."""
    out = np.nextafter(e, _OUT)
    np.copyto(out, 0.0, where=e.view(np.int64) == _ZERO_STAYS)
    return out


def _hull(p):
    """Endpoint rows [min, max] of endpoint products or quotients p: four
    of shape (2, 2, n), p[j, i] from row i of the left operand and row j
    of the right one, paired as min(min(p[0, 0], p[1, 0]), min(p[0, 1],
    p[1, 1])), which fixes how signed zeros and NaNs come out; or two of
    shape (2, n), from a number or 1-D array operand."""
    if p.ndim == 3:
        lo_p, hi_p = np.minimum(p[0], p[1]), np.maximum(p[0], p[1])
    else:
        lo_p = hi_p = p
    return np.array([np.minimum(lo_p[0], lo_p[1]), np.maximum(hi_p[0], hi_p[1])])


def _div_rows(n, d):
    """Endpoint rows of n / d, for endpoint rows n and a divisor d given as
    endpoint rows or as a number or 1-D array; a divisor containing 0 as
    the module docstring says."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = _nudge(_hull(n / d[:, None] if d.ndim == 2 else n / d))
        dlo, dhi = (d[0], d[1]) if d.ndim == 2 else (d, d)
        whole = False
        if not (dlo * dhi > 0.0).all():  # some divisor not strictly signed
            pos = (dlo == 0.0) & (dhi > 0.0)  # d in (0, dhi]
            neg = (dlo < 0.0) & (dhi == 0.0)  # d in [dlo, 0)
            whole = (dlo <= 0.0) & (dhi >= 0.0) & ~pos & ~neg
            # [a/dhi, b/dhi] on (0, dhi] and [b/dlo, a/dlo] on [dlo, 0),
            # each end kept where the dividend's sign bounds it (a >= 0 for
            # the first, b <= 0 for the second) and infinite elsewhere
            keep = n * _SIGNS >= 0.0
            e = np.where(pos, np.where(keep, _nudge(n / dhi), _OUT), e)
            e = np.where(neg, np.where(keep[::-1], _nudge(n[::-1] / dlo), _OUT), e)
    np.copyto(e, _OUT, where=whole | np.isnan(e))
    return e


def _array(e):
    """An IntervalArray on endpoint rows e, which it does not copy."""
    a = _new(IntervalArray)
    a.e = e
    return a


class IntervalArray:
    """Array of intervals, always outward-nudged.  The endpoints are one
    float64 array ``e`` of shape (2, n), row 0 the lower ends and row 1 the
    upper ends, so that each operation handles both rows in a few numpy
    calls.  An operand is an IntervalArray of length n (or 1), or a number
    or 1-D array v, which is the intervals [v, v]."""

    __slots__ = ("e",)
    __array_ufunc__ = None  # ndarray <op> IntervalArray: numpy defers to __rop__

    def __init__(self, lo, hi):
        e = np.array(np.broadcast_arrays(lo, hi), dtype=np.float64)
        if e.ndim != 2:
            raise ValueError(f"IntervalArray takes 1-D endpoint arrays, got shape {e.shape[1:]}")
        bad = np.flatnonzero(~(e[0] <= e[1]))  # also finds NaN ends
        if bad.size:
            i = bad[0]
            raise IntervalDomainError(f"invalid interval bounds [{e[0, i]}, {e[1, i]}] "
                                      f"at element {i}")
        self.e = e

    @property
    def lo(self):
        return self.e[0]

    @property
    def hi(self):
        return self.e[1]

    @staticmethod
    def _operand(other):
        """The endpoint rows of an IntervalArray, or a number or 1-D array
        as itself: broadcast against rows, it is both ends."""
        if isinstance(other, IntervalArray):
            return other.e
        v = np.asarray(other, dtype=np.float64)
        if v.ndim > 1:
            raise ValueError(f"an IntervalArray operand has at most one dimension, "
                             f"got shape {v.shape}")
        return v

    def __add__(self, other):
        with np.errstate(over="ignore"):
            return _array(_nudge(self.e + self._operand(other)))

    __radd__ = __add__

    def __neg__(self):
        return _array(-self.e[::-1])

    def __sub__(self, other):
        o = self._operand(other)
        with np.errstate(over="ignore"):
            return _array(_nudge(self.e - (o[::-1] if o.ndim == 2 else o)))

    def __rsub__(self, other):
        with np.errstate(over="ignore"):
            return _array(_nudge(self._operand(other) - self.e[::-1]))

    def __mul__(self, other):
        o = self._operand(other)
        with np.errstate(invalid="ignore", over="ignore"):
            p = self.e * o[:, None] if o.ndim == 2 else self.e * o
        np.copyto(p, 0.0, where=np.isnan(p))  # 0 * inf is +0.0 (IEEE Std 1788-2015)
        return _array(_nudge(_hull(p)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _array(_div_rows(self.e, self._operand(other)))

    def __rtruediv__(self, other):
        return _array(_div_rows(np.broadcast_to(self._operand(other), self.e.shape), self.e))

    def sq(self):
        m = _hull(np.abs(self.e))  # [min, max] of |lo|, |hi|
        with np.errstate(over="ignore"):
            e = _nudge(m * m)
        np.copyto(e[0], 0.0, where=(self.e[0] <= 0.0) & (self.e[1] >= 0.0))
        return _array(e)

    def sqrt(self):
        with np.errstate(invalid="ignore"):
            e = _nudge(np.sqrt(np.maximum(self.e, _FLOOR)))
        np.maximum(e[0], 0.0, out=e[0])
        np.copyto(e[1], _INF, where=np.isnan(e[1]))
        return _array(e)

    def nonneg(self):
        return _array(np.maximum(self.e, _FLOOR))

    def clamp(self, lo, hi=None):
        """As ``Interval.clamp``, for each element."""
        ends = np.array([[lo], [lo if hi is None else hi]], dtype=np.float64)
        return _array(np.minimum(np.maximum(ends, self.e[0]), self.e[1]))


# ----------------------------------------------------------------------
# Boxes, certificates, subdivision
# ----------------------------------------------------------------------


class CertStatus(Enum):
    PROVED = "proved"
    FAILED = "failed"
    INCONCLUSIVE = "inconclusive"


@dataclass
class Certificate:
    """Record of a branch-and-bound lower-bound certification run.

    ``status == PROVED`` means: for every retained box B, the interval
    enclosure of the target has lower bound > ``threshold``, and the
    retained boxes cover the requested domain.
    """

    target: str
    threshold: float
    epsilon: float
    status: CertStatus
    boxes_examined: int
    max_depth_reached: int
    retained_boxes: np.ndarray  # shape (n, 4): xlo, xhi, ylo, yhi
    witness: Optional[tuple] = None
    notes: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def retained_count(self) -> int:
        return int(self.retained_boxes.shape[0])

    def box_digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.retained_boxes.shape).encode())
        h.update(np.ascontiguousarray(self.retained_boxes, dtype=np.float64).tobytes())
        return h.hexdigest()

    def to_json_dict(self) -> dict:
        d = {
            "target": self.target,
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "status": self.status.value,
            "boxes_examined": self.boxes_examined,
            "retained_boxes": self.retained_count,
            "max_depth_reached": self.max_depth_reached,
            "box_digest": self.box_digest(),
            "notes": list(self.notes),
            "elapsed_s": round(self.elapsed_s, 3),
        }
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


# the branch-and-bound budget: bisection depth and boxes examined
MAX_DEPTH = 40
MAX_BOXES = 10_000_000

# the most kept boxes that a window of more than one level may hold; of
# budgets 0 to 4096, 128 to 512 were fastest on verify's eight charts, and
# 512 makes the fewest evaluator calls of those
_WINDOW = 512


def _clip_arrays_noop(xlo, xhi, ylo, yhi):
    return xlo, xhi, ylo, yhi, np.ones_like(xlo, dtype=bool)


def _split(boxes):
    """Both halves of each box, split at the middle of its wider side (x on
    a tie): the left halves in order, then the right halves, so that box
    i's children are rows i and n + i."""
    xlo, xhi, ylo, yhi = boxes.T
    wide = xhi - xlo >= yhi - ylo
    xmid, ymid = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)
    n = boxes.shape[0]
    halves = np.concatenate([boxes, boxes])
    halves[:n, 1] = np.where(wide, xmid, xhi)
    halves[:n, 3] = np.where(wide, yhi, ymid)
    halves[n:, 0] = np.where(wide, xmid, xlo)
    halves[n:, 2] = np.where(wide, ylo, ymid)
    return halves


def certify_lower_bound(
    target: str,
    evaluator: Callable[[IntervalArray, IntervalArray], IntervalArray],
    root: Sequence[float],
    threshold: float,
    *,
    clip: Optional[Callable] = None,
    epsilon: float = 0.0,
    max_depth: int = MAX_DEPTH,
    max_boxes: int = MAX_BOXES,
    notes: Sequence[str] = (),
) -> Certificate:
    """Prove ``f > threshold`` on the box ``root = (xlo, xhi, ylo, yhi)``
    (clipped to the domain) by adaptive bisection with interval enclosures.

    ``clip(xlo, xhi, ylo, yhi) -> (xlo, xhi, ylo, yhi, keep)`` is the
    domain: it shrinks each box to a bounding box of its intersection with
    the domain and marks certainly-disjoint boxes; boxes are arrays.  A box
    whose enclosure lies below ``threshold`` fails the claim when the clip
    keeps its midpoint as a degenerate box; the witness is that midpoint
    with the box's enclosure upper bound, a proved upper bound of f there.

    The clip and the evaluator must work element by element: a box's clip
    and enclosure may depend on that box alone, not on the others in the
    call.  That lets one evaluator call serve a window of levels.  From the
    frontier, every kept box is split, whatever its enclosure will be, and
    the children are clipped, for as long as the window's kept boxes fit
    ``_WINDOW`` and the boxes left in ``max_boxes``, and the depth stays
    within ``max_depth``; one call then encloses them all (none when the
    frontier alone passes the boxes left, which ends the run).  The window
    is resolved level by level, on the boxes the bisection reaches (the
    children of kept row i of m are rows i and m + i of the next level),
    and the undecided boxes of its last level split into the next
    frontier.  So every box gets the clip and the enclosure that one call
    per level gives it, and the certificate is the same; the boxes below a
    decided box are enclosed and dropped.
    """
    t0 = time.perf_counter()
    clip = clip or _clip_arrays_noop
    frontier = np.array([root], dtype=np.float64)  # columns xlo, xhi, ylo, yhi
    xlo, xhi, ylo, yhi = frontier[0]
    if not (xlo <= xhi and ylo <= yhi):  # also rejects NaN
        raise IntervalDomainError(f"invalid root box {tuple(root)}")
    depth = 0
    examined = 0
    retained = []
    status = CertStatus.PROVED
    witness = None
    deepest_note = None

    while frontier.shape[0]:
        levels = []  # each level's kept boxes and which of its boxes it kept
        boxes, size = frontier, 0
        left = max_boxes - examined  # boxes the budget still allows
        while True:
            xlo, xhi, ylo, yhi, keep = clip(boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3])
            kept = np.column_stack([xlo, xhi, ylo, yhi])[keep]
            levels.append((kept, keep))
            m = kept.shape[0]
            size += m
            if not m or size + 2 * m > min(_WINDOW, left) or depth + len(levels) > max_depth:
                break
            boxes = _split(kept)
        # a frontier past the boxes left ends the run before its enclosure is read
        if size and frontier.shape[0] <= left:
            ends = np.vstack([kept for kept, _ in levels]).T  # rows xlo, xhi, ylo, yhi
            enc = evaluator(_array(ends[:2]), _array(ends[2:])).e  # rows lo, hi
        # resolve the window: ``reached`` marks the level's boxes that the
        # bisection reaches, ``live`` those of them the clip kept
        reached = np.ones(frontier.shape[0], dtype=bool)
        start = 0
        for kept, keep in levels:
            examined += int(np.count_nonzero(reached))
            if examined > max_boxes:
                status = CertStatus.INCONCLUSIVE
                deepest_note = f"box budget {max_boxes} exhausted at depth {depth}"
                break
            live = reached[keep]
            if not live.any():
                break
            lo, hi = enc[:, start:start + kept.shape[0]]
            start += kept.shape[0]
            proved = live & (lo > threshold)
            if proved.any():
                retained.append(kept[proved])
            disproved = live & np.isfinite(hi) & (hi < threshold)
            if disproved.any():
                # boxes whose midpoint the clip drops keep getting split
                rows, upper = kept[disproved], hi[disproved]
                mx, my = 0.5 * (rows[:, 0] + rows[:, 1]), 0.5 * (rows[:, 2] + rows[:, 3])
                inside = np.flatnonzero(clip(mx, mx, my, my)[4])
                if inside.size:
                    i = inside[0]
                    status = CertStatus.FAILED
                    witness = (float(mx[i]), float(my[i]), float(upper[i]))
                    break
            todo = live & ~proved
            if not todo.any():
                break
            if depth >= max_depth:
                status = CertStatus.INCONCLUSIVE
                worst = kept[np.argmax(todo)]
                deepest_note = f"max depth {max_depth} reached; undecided box {worst.tolist()}"
                break
            reached = np.concatenate([todo, todo])
            depth += 1
        else:  # the last level's undecided boxes are the next frontier
            frontier = _split(kept[todo])
            continue
        break  # proved, failed or out of budget or depth

    retained_arr = np.vstack(retained) if retained else np.empty((0, 4))
    all_notes = list(notes)
    if deepest_note:
        all_notes.append(deepest_note)
    return Certificate(
        target=target,
        threshold=threshold,
        epsilon=epsilon,
        status=status,
        boxes_examined=examined,
        max_depth_reached=depth,
        retained_boxes=retained_arr,
        witness=witness,
        notes=all_notes,
        elapsed_s=time.perf_counter() - t0,
    )


def replay_certificate(
    cert: Certificate,
    evaluator_scalar: Callable[[Interval, Interval], Interval],
) -> bool:
    """Re-verify a PROVED certificate box-by-box with the scalar engine.

    The scalar path (exactness-aware rounding) is independent of and never
    wider than the array path, so every retained box must re-verify; a
    box whose enclosure is unbounded below does not, and neither does an
    unordered or NaN box or one on which the evaluator raises
    ``IntervalDomainError``.  A valid box calls the evaluator once.
    """
    if cert.status is not CertStatus.PROVED:
        return False
    threshold = cert.threshold
    for xlo, xhi, ylo, yhi in np.asarray(cert.retained_boxes, dtype=np.float64).tolist():
        try:
            enc = evaluator_scalar(_interval(xlo, xhi), _interval(ylo, yhi))
        except IntervalDomainError:
            return False
        if not enc.lo > threshold:
            return False
    return True
