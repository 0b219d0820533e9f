"""The scalar interval operators with each endpoint product or quotient
rounded once to both sides, the caller keeping the side it needs: the
oracle that ``Interval`` must match bit for bit, operation by operation."""

import math
import sys

from cp2tori.errors import IntervalDomainError

_INF = math.inf
_MAX = sys.float_info.max
_NAN = math.nan
_SPLIT_SAFE = 1e150


def _down(v):
    return math.nextafter(v, -_INF)


def _up(v):
    return math.nextafter(v, _INF)


def _add_down(a, b):
    s = a + b
    if math.isinf(s):
        return s if s < 0 else _MAX
    bb = s - a  # TwoSum
    return s if (a - (s - bb)) + (b - bb) >= 0 else _down(s)


def _add_up(a, b):
    s = a + b
    if math.isinf(s):
        return s if s > 0 else -_MAX
    bb = s - a
    return s if (a - (s - bb)) + (b - bb) <= 0 else _up(s)


def _prod_err(a, b, p):
    """Dekker's exact error a*b - p of p = fl(a * b), or NaN outside the
    band where the Veltkamp splits are exact."""
    m = abs(p)
    if abs(a) > _SPLIT_SAFE or abs(b) > _SPLIT_SAFE or m > _SPLIT_SAFE:
        return _NAN
    if p == 0.0:
        if a != 0.0 and b != 0.0:
            return _NAN
    elif m < 1e-290:
        return _NAN
    c = 134217729.0 * a  # 2**27 + 1
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mul_out(a, b):
    """(down, up) enclosure of a * b from one rounded product."""
    p = a * b
    e = _prod_err(a, b, p)
    if e > 0:
        return p, _up(p)
    if e < 0:
        return _down(p), p
    if e == 0:
        return p, p
    if p != p:  # 0 * inf is 0 (IEEE Std 1788-2015)
        return 0.0, 0.0
    if a == 0.0 or b == 0.0:  # an exact zero beyond the band
        return p, p
    if math.isinf(p):
        return (p, -_MAX) if p < 0 else (_MAX, p)
    if p == 0.0:  # an underflow: RD of a positive product is +0.0, RU of a negative one -0.0
        return (0.0, _up(p)) if (a > 0.0) == (b > 0.0) else (_down(p), -0.0)
    return _down(p), _up(p)


def _residual(a, q, b):
    """a - q*b with its exact sign; NaN outside Dekker's band, but 0 for
    a zero dividend a, whose quotient q is an exact 0."""
    if a == 0.0:
        return 0.0
    p = q * b
    return (a - p) - _prod_err(q, b, p)


def _div_out(a, b):
    """(down, up) enclosure of a / b for b != 0 from one rounded quotient."""
    q = a / b
    if q != q:  # inf / inf
        return -_INF, _INF
    if math.isinf(q):
        return (q, -_MAX) if q < 0 else (_MAX, q)
    r = _residual(a, q, b) if b > 0.0 else -_residual(a, q, b)  # ~ a/b - q
    if r != r and q == 0.0:  # an underflow beyond the band, signed as _mul_out's
        return (0.0, _up(q)) if (a > 0.0) == (b > 0.0) else (_down(q), -0.0)
    return (q if r >= 0.0 else _down(q)), (q if r <= 0.0 else _up(q))


def _ends(v):
    if isinstance(v, TwoSidedInterval):
        return v.lo, v.hi
    v = float(v)
    if v != v:
        raise IntervalDomainError(f"invalid interval bounds [{v}, {v}]")
    return v, v


def _div(a, b, c, d):
    if c > 0.0 and a >= 0.0:
        return TwoSidedInterval(_div_out(a, d)[0], _div_out(b, c)[1])
    if c == 0.0 < d:
        return TwoSidedInterval(_div_out(a, d)[0] if a >= 0.0 else -_INF,
                                _div_out(b, d)[1] if b <= 0.0 else _INF)
    if c < 0.0 == d:
        return TwoSidedInterval(_div_out(b, c)[0] if b <= 0.0 else -_INF,
                                _div_out(a, c)[1] if a >= 0.0 else _INF)
    if c <= 0.0 <= d:
        return TwoSidedInterval(-_INF, _INF)
    e1, e2, e3, e4 = _div_out(a, c), _div_out(a, d), _div_out(b, c), _div_out(b, d)
    return TwoSidedInterval(min(e1[0], e2[0], e3[0], e4[0]), max(e1[1], e2[1], e3[1], e4[1]))


class TwoSidedInterval:
    """Closed interval [lo, hi]; a number operand is the interval [v, v]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if not lo <= hi:  # also rejects NaN
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __add__(self, other):
        c, d = _ends(other)
        return TwoSidedInterval(_add_down(self.lo, c), _add_up(self.hi, d))

    __radd__ = __add__

    def __neg__(self):
        return TwoSidedInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        c, d = _ends(other)
        return TwoSidedInterval(_add_down(self.lo, -d), _add_up(self.hi, -c))

    def __rsub__(self, other):
        a, b = _ends(other)
        return TwoSidedInterval(_add_down(a, -self.hi), _add_up(b, -self.lo))

    def __mul__(self, other):
        a, b = self.lo, self.hi
        c, d = _ends(other)
        if a >= 0.0 and c >= 0.0:
            return TwoSidedInterval(_mul_out(a, c)[0], _mul_out(b, d)[1])
        e1, e2, e3, e4 = _mul_out(a, c), _mul_out(a, d), _mul_out(b, c), _mul_out(b, d)
        return TwoSidedInterval(min(e1[0], e2[0], e3[0], e4[0]),
                                max(e1[1], e2[1], e3[1], e4[1]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c, d = _ends(other)
        return _div(self.lo, self.hi, c, d)

    def __rtruediv__(self, other):
        a, b = _ends(other)
        return _div(a, b, self.lo, self.hi)

    def sq(self):
        a, b = abs(self.lo), abs(self.hi)
        lo_m, hi_m = (a, b) if a <= b else (b, a)
        lo = 0.0 if self.lo <= 0.0 <= self.hi else _mul_out(lo_m, lo_m)[0]
        return TwoSidedInterval(lo, _mul_out(hi_m, hi_m)[1])

    def sqrt(self):
        if self.lo < 0:
            raise IntervalDomainError(f"sqrt of {self!r} with negative lower endpoint")
        rl = math.sqrt(self.lo)
        rh = math.sqrt(self.hi)
        lo = rl if _residual(self.lo, rl, rl) >= 0.0 else _down(rl)
        hi = rh if _residual(self.hi, rh, rh) <= 0.0 else _up(rh)
        return TwoSidedInterval(max(lo, 0.0), hi)

    def nonneg(self):
        if self.hi < 0:
            raise IntervalDomainError(f"{self!r} entirely negative")
        return TwoSidedInterval(max(self.lo, 0.0), self.hi)
