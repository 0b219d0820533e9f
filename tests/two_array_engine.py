"""The array interval engine written with separate lo and hi arrays and
one nudge per endpoint: the oracle that ``IntervalArray`` must match bit
for bit, operation by operation."""

import math

import numpy as np

_INF = math.inf


def _nudge_down(a):
    """Outward nudge of a lower endpoint; exact +0.0 stays 0."""
    out = np.nextafter(a, -_INF)
    return np.where((a == 0.0) & ~np.signbit(a), 0.0, out)


def _nudge_up(a):
    """Outward nudge of an upper endpoint; exact -0.0 stays 0."""
    out = np.nextafter(a, _INF)
    return np.where((a == 0.0) & np.signbit(a), 0.0, out)


class TwoArrayIntervals:
    """Array of intervals (parallel lo/hi arrays), always outward-nudged."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    @staticmethod
    def _coerce(other):
        if isinstance(other, TwoArrayIntervals):
            return other.lo, other.hi
        v = np.asarray(other, dtype=np.float64)
        return v, v

    def __add__(self, other):
        olo, ohi = self._coerce(other)
        return TwoArrayIntervals(_nudge_down(self.lo + olo), _nudge_up(self.hi + ohi))

    __radd__ = __add__

    def __neg__(self):
        return TwoArrayIntervals(-self.hi, -self.lo)

    def __sub__(self, other):
        olo, ohi = self._coerce(other)
        return TwoArrayIntervals(_nudge_down(self.lo - ohi), _nudge_up(self.hi - olo))

    def __rsub__(self, other):
        olo, ohi = self._coerce(other)
        return TwoArrayIntervals(_nudge_down(olo - self.hi), _nudge_up(ohi - self.lo))

    def __mul__(self, other):
        olo, ohi = self._coerce(other)
        with np.errstate(invalid="ignore"):
            p1, p2 = self.lo * olo, self.lo * ohi
            p3, p4 = self.hi * olo, self.hi * ohi
        # 0 * inf: that endpoint product is +0.0 (IEEE Std 1788-2015)
        p1, p2, p3, p4 = (np.where(np.isnan(p), 0.0, p) for p in (p1, p2, p3, p4))
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return TwoArrayIntervals(_nudge_down(lo), _nudge_up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        olo, ohi = self._coerce(other)
        pos = (olo == 0.0) & (ohi > 0.0)  # d in (0, ohi]
        neg = (olo < 0.0) & (ohi == 0.0)  # d in [olo, 0)
        whole = (olo <= 0.0) & (ohi >= 0.0) & ~pos & ~neg
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q1, q2 = self.lo / olo, self.lo / ohi
            q3, q4 = self.hi / olo, self.hi / ohi
            lo = _nudge_down(np.minimum(np.minimum(q1, q2), np.minimum(q3, q4)))
            hi = _nudge_up(np.maximum(np.maximum(q1, q2), np.maximum(q3, q4)))
            lo = np.where(pos, np.where(self.lo >= 0.0, _nudge_down(self.lo / ohi), -_INF), lo)
            hi = np.where(pos, np.where(self.hi <= 0.0, _nudge_up(self.hi / ohi), _INF), hi)
            lo = np.where(neg, np.where(self.hi <= 0.0, _nudge_down(self.hi / olo), -_INF), lo)
            hi = np.where(neg, np.where(self.lo >= 0.0, _nudge_up(self.lo / olo), _INF), hi)
        lo = np.where(whole | np.isnan(lo), -_INF, lo)
        hi = np.where(whole | np.isnan(hi), _INF, hi)
        return TwoArrayIntervals(lo, hi)

    def __rtruediv__(self, other):
        olo, ohi = self._coerce(other)
        shape = np.broadcast_shapes(np.shape(olo), self.lo.shape)
        num = TwoArrayIntervals(np.broadcast_to(olo, shape).copy(),
                                np.broadcast_to(ohi, shape).copy())
        return num / self

    def sq(self):
        a, b = np.abs(self.lo), np.abs(self.hi)
        lo_m, hi_m = np.minimum(a, b), np.maximum(a, b)
        lo = _nudge_down(lo_m * lo_m)
        lo = np.where((self.lo <= 0.0) & (self.hi >= 0.0), 0.0, lo)
        return TwoArrayIntervals(np.maximum(lo, 0.0), _nudge_up(hi_m * hi_m))

    def sqrt(self):
        with np.errstate(invalid="ignore"):
            lo = _nudge_down(np.sqrt(np.maximum(self.lo, 0.0)))
            hi = _nudge_up(np.sqrt(self.hi))
        hi = np.where(np.isnan(hi), _INF, hi)
        return TwoArrayIntervals(np.maximum(lo, 0.0), hi)

    def nonneg(self):
        return TwoArrayIntervals(np.maximum(self.lo, 0.0), self.hi)
