"""Directed-rounding interval arithmetic and certified branch-and-bound.

Outward rounding is implemented by one-ulp nudging (``math.nextafter`` /
``np.nextafter``) rather than FPU rounding-mode control: Python gives no
portable, thread-safe access to the rounding mode, and a correctly rounded
IEEE result is always within one ulp of the exact value, so nudging is
sound for ``+ - * / sqrt``.  The scalar path additionally detects *exact*
results (TwoSum / Dekker product) and skips the nudge, so integer-valued
computations stay tight; the vectorized path always nudges (slightly wider,
never unsound).

Two arithmetic engines share one operator API:

* :class:`Interval` -- scalar, used by public code and certificate replay;
* :class:`IntervalArray` -- numpy-backed, used by the subdivision engine.

A formula written against ``+ - * /`` and the module-level :func:`sqrt`
therefore runs unchanged on either engine, which gives certificate replay
an arithmetic path independent of the one that produced the proof.
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

from .errors import IntervalDivisionError, IntervalDomainError

_INF = math.inf

# Dekker splitting fails near overflow; outside this band we just nudge.
_SPLIT_SAFE = 1e150


def _down(v: float) -> float:
    return math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


def _two_sum_err(a: float, b: float, s: float) -> float:
    # TwoSum: exact rounding error of s = fl(a + b); valid in round-to-nearest.
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _split(a: float):
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi

def _two_prod_err(a: float, b: float, p: float) -> float:
    # Dekker: exact rounding error of p = fl(a * b) (no overflow in splits).
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _add_down(a, b):
    s = a + b
    if math.isinf(s):
        return s if s < 0 else math.float_info.max
    return s if _two_sum_err(a, b, s) >= 0 else _down(s)


def _add_up(a, b):
    s = a + b
    if math.isinf(s):
        return s if s > 0 else -math.float_info.max
    return s if _two_sum_err(a, b, s) <= 0 else _up(s)


def _prod_maybe_inexact(a, b, p):
    # Dekker splitting is unreliable near overflow and underflow
    if abs(a) > _SPLIT_SAFE or abs(b) > _SPLIT_SAFE or abs(p) > _SPLIT_SAFE:
        return True
    if p == 0.0:
        return a != 0.0 and b != 0.0  # underflowed nonzero product
    return abs(p) < 1e-290


def _mul_down(a, b):
    p = a * b
    if math.isinf(p) or math.isnan(p):
        return p if p <= 0 else math.float_info.max
    if _prod_maybe_inexact(a, b, p):
        return _down(p)
    return p if _two_prod_err(a, b, p) >= 0 else _down(p)


def _mul_up(a, b):
    p = a * b
    if math.isinf(p) or math.isnan(p):
        return p if p >= 0 else -math.float_info.max
    if _prod_maybe_inexact(a, b, p):
        return _up(p)
    return p if _two_prod_err(a, b, p) <= 0 else _up(p)


def _div_exact(q, b, a):
    # q = fl(a / b) is exact iff q*b == a without rounding.
    if math.isinf(q):
        return False
    p = q * b
    return (p == a and not _prod_maybe_inexact(q, b, p)
            and _two_prod_err(q, b, p) == 0.0)


def _div_down(a, b):
    try:
        q = a / b
    except ZeroDivisionError:
        return -_INF
    if math.isnan(q):
        return -_INF
    if math.isinf(q):
        return q if q < 0 else math.float_info.max
    return q if _div_exact(q, b, a) else _down(q)


def _div_up(a, b):
    try:
        q = a / b
    except ZeroDivisionError:
        return _INF
    if math.isnan(q):
        return _INF
    if math.isinf(q):
        return q if q > 0 else -math.float_info.max
    return q if _div_exact(q, b, a) else _up(q)


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: Optional[float] = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise IntervalDomainError(f"invalid interval bounds [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval(float(other))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return Interval(_add_down(self.lo, o.lo), _add_up(self.hi, o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        return Interval(_add_down(self.lo, -o.hi), _add_up(self.hi, -o.lo))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        pairs = ((self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi))
        return Interval(
            min(_mul_down(a, b) for a, b in pairs),
            max(_mul_up(a, b) for a, b in pairs),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise IntervalDivisionError(f"division by {o!r} containing zero")
        pairs = ((self.lo, o.lo), (self.lo, o.hi), (self.hi, o.lo), (self.hi, o.hi))
        return Interval(
            min(_div_down(a, b) for a, b in pairs),
            max(_div_up(a, b) for a, b in pairs),
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sq(self) -> "Interval":
        """Tight square: never dips below zero for sign-changing intervals."""
        a, b = abs(self.lo), abs(self.hi)
        lo_m, hi_m = (a, b) if a <= b else (b, a)
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, _mul_up(hi_m, hi_m))
        return Interval(_mul_down(lo_m, lo_m), _mul_up(hi_m, hi_m))

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise IntervalDomainError(f"sqrt of {self!r} with negative lower endpoint")
        rl = math.sqrt(self.lo)
        rh = math.sqrt(self.hi)
        lo = rl if _div_exact(rl, rl, self.lo) else _down(rl)
        hi = rh if _div_exact(rh, rh, self.hi) else _up(rh)
        return Interval(max(lo, 0.0), hi)

    def nonneg(self) -> "Interval":
        """Intersection with [0, inf); use when the domain guarantees >= 0."""
        if self.hi < 0:
            raise IntervalDomainError(f"{self!r} entirely negative")
        return Interval(max(self.lo, 0.0), self.hi)


def _ivl_div_extended(num: Interval, den: Interval) -> Interval:
    """Division where ``den`` may touch zero at one endpoint.

    Enclosure of {n/d : n in num, d in den, d != 0}; requires sign-definite
    num when den touches zero.  Internal tool for boundary-strip evaluators.
    """
    if den.lo > 0.0 or den.hi < 0.0:
        return num / den
    if den.lo == 0.0 and den.hi > 0.0:
        if num.lo >= 0.0:
            return Interval(_div_down(num.lo, den.hi), _INF)
        if num.hi <= 0.0:
            return Interval(-_INF, _div_up(num.hi, den.hi))
    if den.hi == 0.0 and den.lo < 0.0:
        if num.lo >= 0.0:
            return Interval(-_INF, _div_up(num.lo, den.lo))
        if num.hi <= 0.0:
            return Interval(_div_down(num.hi, den.lo), _INF)
    raise IntervalDivisionError(f"extended division {num!r} / {den!r} undefined")


PI = Interval(_down(math.pi), _up(math.pi))


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


def _nudge_down(a):
    """Outward nudge of a lower endpoint; exact +0.0 stays 0 so that
    sign-definite products keep their sign (an exactly-zero endpoint can
    only come from an exact zero or a positive underflow, both >= 0)."""
    out = np.nextafter(a, -_INF)
    return np.where((a == 0.0) & ~np.signbit(a), 0.0, out)


def _nudge_up(a):
    """Outward nudge of an upper endpoint; exact -0.0 stays 0."""
    out = np.nextafter(a, _INF)
    return np.where((a == 0.0) & np.signbit(a), 0.0, out)


class IntervalArray:
    """Array of intervals (parallel lo/hi arrays), always outward-nudged.

    Division by a zero-touching or zero-spanning denominator yields
    infinite endpoints instead of raising; the subdivision engine treats
    non-finite lower bounds as "undecided, split".
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntervalArray):
            return other.lo, other.hi
        v = np.asarray(other, dtype=np.float64)
        return v, v

    def __add__(self, other):
        olo, ohi = self._coerce(other)
        return IntervalArray(_nudge_down(self.lo + olo), _nudge_up(self.hi + ohi))

    __radd__ = __add__

    def __neg__(self):
        return IntervalArray(-self.hi, -self.lo)

    def __sub__(self, other):
        olo, ohi = self._coerce(other)
        return IntervalArray(_nudge_down(self.lo - ohi), _nudge_up(self.hi - olo))

    def __rsub__(self, other):
        olo, ohi = self._coerce(other)
        return IntervalArray(_nudge_down(olo - self.hi), _nudge_up(ohi - self.lo))

    def __mul__(self, other):
        olo, ohi = self._coerce(other)
        with np.errstate(invalid="ignore"):
            p1, p2 = self.lo * olo, self.lo * ohi
            p3, p4 = self.hi * olo, self.hi * ohi
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return IntervalArray(_nudge_down(lo), _nudge_up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other):
        olo, ohi = self._coerce(other)
        olo = np.broadcast_to(olo, self.lo.shape) if np.ndim(olo) == 0 else olo
        ohi = np.broadcast_to(ohi, self.hi.shape) if np.ndim(ohi) == 0 else ohi
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q1, q2 = self.lo / olo, self.lo / ohi
            q3, q4 = self.hi / olo, self.hi / ohi
            lo = _nudge_down(np.minimum(np.minimum(q1, q2), np.minimum(q3, q4)))
            hi = _nudge_up(np.maximum(np.maximum(q1, q2), np.maximum(q3, q4)))
        spans = (olo < 0.0) & (ohi > 0.0)
        touches_pos = (olo == 0.0) & (ohi > 0.0)
        touches_neg = (ohi == 0.0) & (olo < 0.0)
        zero_den = (olo == 0.0) & (ohi == 0.0)
        num_pos = self.lo >= 0.0
        num_neg = self.hi <= 0.0
        # den touching 0 with sign-definite numerator: one-sided enclosure
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lo = np.where(touches_pos & num_pos, _nudge_down(self.lo / ohi), lo)
            hi = np.where(touches_pos & num_pos, _INF, hi)
            hi = np.where(touches_pos & num_neg, _nudge_up(self.hi / ohi), hi)
            lo = np.where(touches_pos & num_neg, -_INF, lo)
            hi = np.where(touches_neg & num_pos, _nudge_up(self.lo / olo), hi)
            lo = np.where(touches_neg & num_pos, -_INF, lo)
            lo = np.where(touches_neg & num_neg, _nudge_down(self.hi / olo), lo)
            hi = np.where(touches_neg & num_neg, _INF, hi)
        bad = spans | zero_den | (touches_pos & ~(num_pos | num_neg)) | (
            touches_neg & ~(num_pos | num_neg))
        lo = np.where(bad, -_INF, lo)
        hi = np.where(bad, _INF, hi)
        lo = np.where(np.isnan(lo), -_INF, lo)
        hi = np.where(np.isnan(hi), _INF, hi)
        return IntervalArray(lo, hi)

    def __rtruediv__(self, other):
        olo, ohi = self._coerce(other)
        shape = np.broadcast_shapes(np.shape(olo), self.lo.shape)
        num = IntervalArray(np.broadcast_to(olo, shape).copy(), np.broadcast_to(ohi, shape).copy())
        return num / self

    def sq(self):
        a, b = np.abs(self.lo), np.abs(self.hi)
        lo_m, hi_m = np.minimum(a, b), np.maximum(a, b)
        lo = _nudge_down(lo_m * lo_m)
        lo = np.where((self.lo <= 0.0) & (self.hi >= 0.0), 0.0, lo)
        return IntervalArray(np.maximum(lo, 0.0), _nudge_up(hi_m * hi_m))

    def sqrt(self):
        with np.errstate(invalid="ignore"):
            lo = _nudge_down(np.sqrt(np.maximum(self.lo, 0.0)))
            hi = _nudge_up(np.sqrt(self.hi))
        hi = np.where(np.isnan(hi), _INF, hi)
        return IntervalArray(np.maximum(lo, 0.0), hi)

    def nonneg(self):
        return IntervalArray(np.maximum(self.lo, 0.0), self.hi)


# ----------------------------------------------------------------------
# Boxes, certificates, subdivision
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Box2:
    """Axis-aligned rectangle in the plane."""

    x: Interval
    y: Interval

    @classmethod
    def make(cls, xlo, xhi, ylo, yhi) -> "Box2":
        return cls(Interval(xlo, xhi), Interval(ylo, yhi))

    def as_tuple(self):
        return (self.x.lo, self.x.hi, self.y.lo, self.y.hi)

    def split(self):
        """Bisect along the wider dimension."""
        if self.x.width >= self.y.width:
            m = self.x.mid
            return (Box2(Interval(self.x.lo, m), self.y),
                    Box2(Interval(m, self.x.hi), self.y))
        m = self.y.mid
        return (Box2(self.x, Interval(self.y.lo, m)),
                Box2(self.x, Interval(m, self.y.hi)))


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


def _clip_arrays_noop(xlo, xhi, ylo, yhi):
    return xlo, xhi, ylo, yhi, np.ones_like(xlo, dtype=bool)


def certify_lower_bound(
    target: str,
    evaluator: Callable[[IntervalArray, IntervalArray], IntervalArray],
    root: Box2,
    threshold: float,
    *,
    clip: Optional[Callable] = None,
    point_in_domain: Optional[Callable[[float, float], bool]] = None,
    point_fn: Optional[Callable[[float, float], float]] = None,
    epsilon: float = 0.0,
    max_depth: int = 40,
    max_boxes: int = 10_000_000,
    notes: Sequence[str] = (),
) -> Certificate:
    """Prove ``f > threshold`` on ``root`` (clipped to the domain) by
    adaptive bisection with interval enclosures.

    ``clip(xlo, xhi, ylo, yhi) -> (xlo, xhi, ylo, yhi, keep)`` shrinks each
    box to a bounding box of its intersection with the domain and marks
    certainly-disjoint boxes; boxes are arrays.  ``point_in_domain`` /
    ``point_fn`` are only used to confirm a FAILED witness pointwise.
    """
    t0 = time.perf_counter()
    clip = clip or _clip_arrays_noop
    boxes = np.array([[root.x.lo, root.x.hi, root.y.lo, root.y.hi]], dtype=np.float64)
    depth = 0
    examined = 0
    retained = []
    status = CertStatus.PROVED
    witness = None
    deepest_note = None

    while boxes.shape[0]:
        examined += boxes.shape[0]
        if examined > max_boxes:
            status = CertStatus.INCONCLUSIVE
            deepest_note = f"box budget {max_boxes} exhausted at depth {depth}"
            break
        xlo, xhi, ylo, yhi, keep = clip(boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3])
        boxes = np.column_stack([xlo, xhi, ylo, yhi])[keep]
        if not boxes.shape[0]:
            break
        enc = evaluator(
            IntervalArray(boxes[:, 0], boxes[:, 1]),
            IntervalArray(boxes[:, 2], boxes[:, 3]),
        )
        proved = enc.lo > threshold
        disproved = np.isfinite(enc.hi) & (enc.hi < threshold)
        if proved.any():
            retained.append(boxes[proved])
        if disproved.any():
            # enclosure entirely below threshold; confirm with a domain point
            # (boxes without a confirmable witness keep getting split)
            for i, row in enumerate(boxes[disproved]):
                mx, my = 0.5 * (row[0] + row[1]), 0.5 * (row[2] + row[3])
                if point_in_domain is None or point_in_domain(mx, my):
                    val = point_fn(mx, my) if point_fn else None
                    if val is None or val < threshold:
                        status = CertStatus.FAILED
                        witness = (mx, my,
                                   val if val is not None
                                   else float(enc.hi[disproved.nonzero()[0][i]]))
                        break
            if status is CertStatus.FAILED:
                break
        todo = boxes[~proved]
        if not todo.shape[0]:
            break
        if depth >= max_depth:
            status = CertStatus.INCONCLUSIVE
            worst = todo[0]
            deepest_note = f"max depth {max_depth} reached; undecided box {worst.tolist()}"
            break
        # split each undecided box along its wider dimension
        wx = todo[:, 1] - todo[:, 0]
        wy = todo[:, 3] - todo[:, 2]
        split_x = wx >= wy
        mids = np.where(split_x, 0.5 * (todo[:, 0] + todo[:, 1]), 0.5 * (todo[:, 2] + todo[:, 3]))
        left = todo.copy()
        right = todo.copy()
        left[split_x, 1] = mids[split_x]
        right[split_x, 0] = mids[split_x]
        left[~split_x, 3] = mids[~split_x]
        right[~split_x, 2] = mids[~split_x]
        boxes = np.vstack([left, right])
        depth += 1

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
    *,
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Re-verify a PROVED certificate box-by-box with the scalar engine.

    The scalar path (exactness-aware rounding) is independent of and never
    wider than the array path, so every retained box must re-verify.
    """
    if cert.status is not CertStatus.PROVED:
        return False
    boxes = cert.retained_boxes
    if sample is not None and sample < boxes.shape[0]:
        rng = rng or np.random.default_rng(0)
        boxes = boxes[rng.choice(boxes.shape[0], size=sample, replace=False)]
    for xlo, xhi, ylo, yhi in boxes:
        enc = evaluator_scalar(Interval(xlo, xhi), Interval(ylo, yhi))
        if not enc.lo > cert.threshold:
            return False
    return True
