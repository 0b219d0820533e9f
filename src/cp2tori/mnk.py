"""The integer-weight circle-bundle family: curve parametrization and the
torus-vs-Klein-bottle topology predicate.

The base curve is the intersection of the unit sphere with the cone
m u1^2 + n u2^2 + k u3^2 = 0 (m >= n > 0 > k).  The total space is a
torus iff the involution u -> sigma u, sigma = diag((-1)^m, (-1)^n,
(-1)^k), preserves the orientation of the cone surface, with the cone
oriented by its gradient normal (the fixed convention reported in the
output).  The gradient 2 (m u1, n u2, k u3) is linear and diagonal, so
it commutes with sigma, and a tangent frame (e1, e2) at u maps to
(sigma e1, sigma e2) at sigma u.  Hence

    det[grad(sigma u), sigma e1, sigma e2] = det sigma * det[grad u, e1, e2],

and the involution preserves the orientation exactly when
det sigma = (-1)^(m + n + k) = +1, i.e. when m + n + k is even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class MnkParams:
    m: int
    n: int
    k: int

    def __post_init__(self):
        if not (self.m >= self.n > 0 > self.k):
            raise ValueError(f"need m >= n > 0 > k, got ({self.m}, {self.n}, {self.k})")

    @property
    def involution_signs(self) -> Tuple[int, int, int]:
        return ((-1) ** self.m, (-1) ** self.n, (-1) ** self.k)


def curve_point(p: MnkParams, t: float) -> np.ndarray:
    """Point on the intersection curve (u3 > 0 sheet), parametrized by the
    angle of (u1, u2); closed and 2 pi-periodic by construction."""
    m, n, k = p.m, p.n, p.k
    c, s = math.cos(t), math.sin(t)
    # radial scale so that |u| = 1 once u3 absorbs the cone constraint
    r2 = 1.0 / (1.0 + (m * c * c + n * s * s) / (-k))
    r = math.sqrt(r2)
    u3 = math.sqrt((m * r2 * c * c + n * r2 * s * s) / (-k))
    return np.array([r * c, r * s, u3])


def is_torus(p: MnkParams) -> bool:
    """True iff the involution preserves the cone orientation (gradient
    normal convention): exactly when m + n + k is even."""
    return (p.m + p.n + p.k) % 2 == 0


ORIENTATION_CONVENTION = ("cone oriented by its gradient normal; a tangent frame "
                          "(e1, e2) is positive when det[grad, e1, e2] > 0")
