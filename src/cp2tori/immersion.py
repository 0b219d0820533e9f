"""Numerical witness that the family's lift is a conformal, horizontal,
Lagrangian immersion with a linear Lagrangian angle, plus geometry export.

All sesquilinear residuals are y-independent (the y-dependence cancels in
the Hermitian products), so they are evaluated along the x-grid and hold
uniformly in y; the Lagrangian angle itself genuinely lives on the 2D
grid and is checked for linearity there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TextIO, Tuple

import numpy as np

from .family import (DerivedConstants, _f_denominators, _f_offsets,
                     conformal_factor, conformal_factor_prime,
                     f_from_conformal, g_phases, lift)


@dataclass(frozen=True)
class PropertyReport:
    """Max residuals over the sample grid; all should be <= 1e-6 for
    feasible parameters."""

    unit_norm: float
    horizontality_x: float
    horizontality_y: float
    conformality_x: float
    conformality_y: float
    pairing_real: float
    pairing_imag: float
    beta_linearity: float
    slope_x_error: float
    slope_y_error: float
    grid: Tuple[int, int]

    @property
    def max_residual(self) -> float:
        return max(self.unit_norm, self.horizontality_x, self.horizontality_y,
                   self.conformality_x, self.conformality_y,
                   self.pairing_real, self.pairing_imag, self.beta_linearity,
                   self.slope_x_error, self.slope_y_error)


def _frame_arrays(d: DerivedConstants, xs: np.ndarray):
    """F, F', G, G', cf at the grid x-values (vectorized over columns)."""
    cf = conformal_factor(xs, d)
    cfp = conformal_factor_prime(xs, d)
    F = f_from_conformal(cf, d.alpha)          # (3, nx)
    den = _f_denominators(d.alpha)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        Fp = np.where(F > 1e-150, cfp[None, :] / (2.0 * den * F), 0.0)
    # G_i' = (c2 - a cf / 2) / (cf + alpha_j alpha_k)
    Gp = (d.c2 - 0.5 * d.slope_x * cf) / (cf + _f_offsets(d.alpha)[:, None])
    G = g_phases(xs, d)
    return F, Fp, G, Gp, cf


def _unit_frame(d: DerivedConstants, xs: np.ndarray, ys: np.ndarray):
    """The unitary frame (r, r_x/|r_x|, r_y/|r_y|) of the lift on the grid
    xs x ys, as an array frame[row, component, ix, iy], together with the
    F, F', G', cf along xs that it was built from.

    Raises ValueError where r_x or r_y (nearly) vanishes, since the frame
    is undefined there."""
    F, Fp, G, Gp, cf = _frame_arrays(d, xs)
    alphas = np.array(d.alpha.weights, dtype=float)[:, None, None]
    phase = np.exp(1j * (G[:, :, None] + alphas * ys[None, None, :]))
    frame = np.empty((3,) + phase.shape, dtype=complex)
    r, rx, ry = frame
    np.multiply(F[:, :, None], phase, out=r)
    np.multiply((Fp + 1j * (F * Gp))[:, :, None], phase, out=rx)
    del phase
    np.multiply(1j * alphas, r, out=ry)
    for row in (rx, ry):
        norm = np.sqrt((np.abs(row) ** 2).sum(axis=0))
        if norm.min() < 1e-12:
            raise ValueError("degenerate derivative; cannot build the frame")
        row /= norm
    return frame, F, Fp, Gp, cf


def _det3(rows: np.ndarray) -> np.ndarray:
    """Determinant of stacked 3x3 matrices given as rows[3, 3, ...]."""
    a, b, c = rows[0], rows[1], rows[2]
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def geometry_residuals(d: DerivedConstants,
                       grid: Tuple[int, int] = (64, 64)) -> PropertyReport:
    """Evaluate every immersion property on an (nx, ny) grid over one
    lattice cell [0, T) x [0, 2 pi)."""
    nx, ny = grid
    xs = np.linspace(0.0, d.period, nx, endpoint=False)
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    frame, F, Fp, Gp, cf = _unit_frame(d, xs, ys)
    alphas = np.array(d.alpha.weights, dtype=float)[:, None]

    F2 = F * F
    unit = np.abs(F2.sum(axis=0) - 1.0).max()
    horiz_x = np.abs((F2 * Gp).sum(axis=0)).max()
    horiz_y = np.abs((alphas * F2).sum(axis=0)).max()
    rx2 = (Fp * Fp + F2 * Gp * Gp).sum(axis=0)
    conf_x = np.abs(rx2 - cf).max()
    conf_y = np.abs((alphas * alphas * F2).sum(axis=0) - cf).max()
    pair = (-1j * (alphas * F * Fp).sum(axis=0)
            + (alphas * F2 * Gp).sum(axis=0))
    pair_re = np.abs(pair.real).max()
    pair_im = np.abs(pair.imag).max()

    # Lagrangian angle on the 2D grid
    det = _det3(frame)
    del frame
    # e^{i beta} = conj(det R) in these component conventions
    beta = -np.angle(det)
    target = d.slope_x * xs[:, None] + d.slope_y * ys[None, :]
    resid = beta - target
    # compare modulo 2 pi against the constant offset
    offset = np.angle(np.exp(1j * resid).mean())
    lin = np.abs(np.angle(np.exp(1j * (resid - offset)))).max()

    # slopes from wrap-safe finite differences of beta along the grid
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    sx = np.angle(det[:-1, :] * np.conj(det[1:, :])) / dx
    sy = np.angle(det[:, :-1] * np.conj(det[:, 1:])) / dy
    slope_x_err = np.abs(sx - d.slope_x).max()
    slope_y_err = np.abs(sy - d.slope_y).max()

    return PropertyReport(
        unit_norm=float(unit), horizontality_x=float(horiz_x),
        horizontality_y=float(horiz_y), conformality_x=float(conf_x),
        conformality_y=float(conf_y), pairing_real=float(pair_re),
        pairing_imag=float(pair_im), beta_linearity=float(lin),
        slope_x_error=float(slope_x_err), slope_y_error=float(slope_y_err),
        grid=(nx, ny))


def _frame_at(d: DerivedConstants, x: float, y: float) -> np.ndarray:
    """The 3 x 3 unitary frame at one point (x, y)."""
    return _unit_frame(d, np.array([float(x)]), np.array([float(y)]))[0][:, :, 0, 0]


def lagrangian_angle(d: DerivedConstants, x: float, y: float) -> float:
    """beta(x, y) in (-pi, pi] from the unitary frame (r, r_x/|r_x|,
    r_y/|r_y|); the determinant is conjugated so that beta = a x + b y
    holds with the derived slopes under the Hermitian conventions used
    here."""
    return float(-np.angle(_det3(_frame_at(d, x, y))))


def frame_unitarity_residual(d: DerivedConstants, x: float, y: float) -> float:
    """Max entry of R R* - I for the frame at (x, y)."""
    M = _frame_at(d, x, y)
    return float(np.abs(M @ M.conj().T - np.eye(3)).max())


def mean_curvature_check(d: DerivedConstants, samples: int = 100,
                         seed: int = 20240801, h: float = 1e-5) -> float:
    """Max residual of |H|^2 against the closed form (a^2 + b^2)/(2 e^v),
    with |H|^2 computed as the conformal-metric norm of the numerical
    gradient of the Lagrangian angle (Richardson-extrapolated central
    differences, wrap-safe)."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    def beta_diff(x1, y1, x2, y2):
        b1v = lagrangian_angle(d, x1, y1)
        b2v = lagrangian_angle(d, x2, y2)
        return math.remainder(b2v - b1v, 2.0 * math.pi)

    for _ in range(samples):
        x = rng.uniform(0.1 * d.period, 0.9 * d.period)
        y = rng.uniform(0.0, 2.0 * math.pi)
        def deriv(axis, step):
            if axis == 0:
                return beta_diff(x - step, y, x + step, y) / (2.0 * step)
            return beta_diff(x, y - step, x, y + step) / (2.0 * step)
        bx = (4.0 * deriv(0, h / 2) - deriv(0, h)) / 3.0
        by = (4.0 * deriv(1, h / 2) - deriv(1, h)) / 3.0
        cf = conformal_factor(x, d)
        h2_grad = (bx * bx + by * by) / cf
        h2_closed = (d.slope_x ** 2 + d.slope_y ** 2) / cf
        worst = max(worst, abs(h2_grad - h2_closed))
    return worst


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

EXPORT_COLUMNS = ("x", "y", "re_w1", "im_w1", "re_w2", "im_w2",
                  "conformal_factor", "beta", "flagged")


def default_chart(d: DerivedConstants) -> int:
    """Index of the component largest in modulus at the cell center."""
    v = lift(0.5 * d.period, math.pi, d)
    return int(np.argmax(np.abs(v)))


def export_samples(d: DerivedConstants, grid: Tuple[int, int],
                   chart: Optional[int] = None):
    """Sample rows (x, y, affine chart coordinates in C^2, conformal
    factor, Lagrangian angle); rows where the chart component is tiny are
    flagged rather than dropped."""
    if chart is None:
        chart = default_chart(d)
    nx, ny = grid
    xs = np.linspace(0.0, d.period, nx, endpoint=False)
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    frame, _F, _Fp, _Gp, cf = _unit_frame(d, xs, ys)
    r = frame[0]
    beta = -np.angle(_det3(frame))
    pivot = r[chart]
    flagged = np.abs(pivot) < 1e-9
    others = [i for i in range(3) if i != chart]
    w1, w2 = r[others] / np.where(flagged, complex(math.nan, math.nan), pivot)
    columns = (np.repeat(xs, ny), np.tile(ys, nx), w1.real, w1.imag,
               w2.real, w2.imag, np.repeat(cf, ny), beta, flagged)
    return list(zip(*(c.ravel().tolist() for c in columns))), chart


def write_csv(rows, fh: TextIO) -> None:
    fh.write(",".join(EXPORT_COLUMNS) + "\n")
    for row in rows:
        fields = [f"{v:.12g}" if isinstance(v, float) else str(int(v))
                  for v in row]
        fh.write(",".join(fields) + "\n")


def write_obj(rows, fh: TextIO) -> None:
    """Vertex cloud of the affine image, first three real coordinates."""
    for row in rows:
        if row[-1]:
            continue
        fh.write(f"v {row[2]:.9g} {row[3]:.9g} {row[4]:.9g}\n")
