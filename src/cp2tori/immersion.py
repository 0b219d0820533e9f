"""Numerical witness that the family's lift is a conformal, horizontal,
Lagrangian immersion with a linear Lagrangian angle, plus geometry export.

Each lift component is F_j(x) e^{i (G_j(x) + alpha_j y)}, so the unitary
frame at (x, y) is the frame at (x, 0) times diag(e^{i alpha_j y}): it is
built along x only, from ``family.lift_data`` (F_j, G_j and their
derivatives), and y comes back as that phase.  The sesquilinear
residuals are therefore y-independent and evaluated along the x-grid; the
determinant is det R(x, 0) e^{i (alpha1+alpha2+alpha3) y}, so the Lagrangian
angle is beta(x, 0) - (alpha1+alpha2+alpha3) y, and its linearity is checked
from det R(x, 0) along x together with that constant slope in y, once per
distinct value of the y-term (one column when the slope b is right).  The
export CSV formats each distinct x, y and conformal-factor value once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, TextIO, Tuple

import numpy as np

from .family import DerivedConstants, lift_data


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


def _unit_frame(d: DerivedConstants, xs: np.ndarray):
    """The unitary frame (r, r_x/|r_x|, r_y/|r_y|) of the lift at (xs, 0),
    as an array frame[row, component, ix], together with the
    :func:`~cp2tori.family.lift_data` along xs that it was built from.
    The frame at (x, y) is this one times diag(e^{i alpha_j y}).

    Raises ValueError where r_x or r_y (nearly) vanishes, since the frame
    is undefined there."""
    _, _, F, Fp, G, Gp = data = lift_data(xs, d)
    alphas = np.array(d.alpha.weights, dtype=float)[:, None]
    phase = np.exp(1j * G)
    r = F * phase
    frame = np.stack([r, (Fp + 1j * (F * Gp)) * phase, 1j * alphas * r])
    for row in frame[1:]:
        norm = np.sqrt((np.abs(row) ** 2).sum(axis=0))
        if norm.min() < 1e-12:
            raise ValueError("degenerate derivative; cannot build the frame")
        row /= norm
    return frame, data


def _det_at(d: DerivedConstants, frame: np.ndarray, y) -> np.ndarray:
    """det R(x, y) = det R(x, 0) e^{i sigma y} with sigma = alpha1 + alpha2
    + alpha3, from the frame rows[3, 3, ...] at y = 0; y broadcasts against
    the trailing axes."""
    a, b, c = frame
    det = (a[0] * (b[1] * c[2] - b[2] * c[1])
           - a[1] * (b[0] * c[2] - b[2] * c[0])
           + a[2] * (b[0] * c[1] - b[1] * c[0]))
    return det * np.exp(1j * sum(d.alpha.weights) * y)


def geometry_residuals(d: DerivedConstants,
                       grid: Tuple[int, int] = (64, 64)) -> PropertyReport:
    """Evaluate every immersion property on an (nx, ny) grid over one
    lattice cell [0, T) x [0, 2 pi).  The wrap-safe slopes need steps of
    beta below pi, |a| T / nx < pi and |b| 2 pi / ny < pi, or they alias.
    beta_linearity is the max over the grid, taken over x and the
    distinct values of (b_construction - b) y: one column when b is the
    derived constant, all ny when it is not."""
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise ValueError(f"grid {tuple(grid)} needs at least 2 points along each axis")
    xs = np.linspace(0.0, d.period, nx, endpoint=False)
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    frame, (cf, _, F, Fp, _, Gp) = _unit_frame(d, xs)
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

    # e^{i beta} = conj(det R) in these conventions and det R(x, y) =
    # det0(x) e^{i sigma y}, so beta - (a x + b y) = r(x) + delta y mod 2 pi,
    # compared with its offset: the grid mean, a product of two 1-D means.
    # b = -sigma in integers, so for the derived b delta is 0.0 exactly and
    # the distinct values of delta y are one column
    det0 = _det_at(d, frame, 0.0)
    sigma = sum(d.alpha.weights)
    r = -np.angle(det0) - d.slope_x * xs
    delta = -sigma - d.slope_y
    offset = np.angle(np.exp(1j * r).mean() * np.exp(1j * delta * ys).mean())
    resid = (r - offset)[:, None] + np.unique(delta * ys)
    lin = np.abs(np.remainder(resid + math.pi, 2.0 * math.pi) - math.pi).max()

    # slopes from wrap-safe finite differences of beta along the grid
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    sx = np.angle(det0[:-1] * np.conj(det0[1:])) / dx
    slope_x_err = np.abs(sx - d.slope_x).max()
    slope_y_err = abs(np.angle(np.exp(-1j * sigma * dy)) / dy - d.slope_y)

    return PropertyReport(
        unit_norm=float(unit), horizontality_x=float(horiz_x),
        horizontality_y=float(horiz_y), conformality_x=float(conf_x),
        conformality_y=float(conf_y), pairing_real=float(pair_re),
        pairing_imag=float(pair_im), beta_linearity=float(lin),
        slope_x_error=float(slope_x_err), slope_y_error=float(slope_y_err),
        grid=(nx, ny))


def lagrangian_angle(d: DerivedConstants, x, y):
    """beta(x, y) in (-pi, pi] from the unitary frame (r, r_x/|r_x|,
    r_y/|r_y|); the determinant is conjugated so that beta = a x + b y
    holds with the derived slopes under the Hermitian conventions used
    here.  x and y broadcast; a float for scalars, else an array of their
    broadcast shape."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    frame = _unit_frame(d, x.ravel())[0]
    beta = -np.angle(_det_at(d, frame, y.ravel())).reshape(x.shape)
    return float(beta) if beta.ndim == 0 else beta


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

EXPORT_COLUMNS = ("x", "y", "re_w1", "im_w1", "re_w2", "im_w2",
                  "conformal_factor", "beta", "flagged")


def default_chart(d: DerivedConstants) -> int:
    """Index of the component largest in modulus at the cell center: max F_j(T/2)."""
    return int(np.argmax(lift_data(0.5 * d.period, d).F))


def export_samples(d: DerivedConstants, grid: Tuple[int, int],
                   chart: Optional[int] = None):
    """The columns of :data:`EXPORT_COLUMNS` (x, y, affine chart
    coordinates in C^2, conformal factor, Lagrangian angle, flag) as 1-D
    arrays, one row per grid point with y running fastest, and the chart
    used; rows where the chart component is tiny are flagged rather than
    dropped."""
    if chart is None:
        chart = default_chart(d)
    nx, ny = grid
    xs = np.linspace(0.0, d.period, nx, endpoint=False)
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    frame, data = _unit_frame(d, xs)
    alphas = np.array(d.alpha.weights, dtype=float)[:, None, None]
    r = frame[0][..., None] * np.exp(1j * alphas * ys)
    beta = -np.angle(_det_at(d, frame[..., None], ys))
    pivot = r[chart]
    flagged = np.abs(pivot) < 1e-9
    others = [i for i in range(3) if i != chart]
    w1, w2 = r[others] / np.where(flagged, complex(math.nan, math.nan), pivot)
    columns = (np.repeat(xs, ny), np.tile(ys, nx), w1.real, w1.imag,
               w2.real, w2.imag, np.repeat(data.cf, ny), beta, flagged)
    return tuple(c.ravel() for c in columns), chart


def format_rows(row_format: str, columns) -> str:
    """The rows of ``columns`` (1-D arrays of one length), each written by
    ``row_format``, in one ``%`` call: row i formats the i-th entry of
    every column, as the Python number or string ``tolist`` gives."""
    cells = zip(*(c.tolist() for c in columns))
    return (row_format * len(columns[0])) % tuple(chain.from_iterable(cells))


def _distinct_cells(column) -> np.ndarray:
    """``"%.12g" % v`` for every entry v of a float column, as an object
    array of strings, formatting each distinct bit pattern once: 0.0 and
    -0.0 compare equal but print 0 and -0."""
    bits, where = np.unique(np.asarray(column, dtype=np.float64).view(np.int64),
                            return_inverse=True)
    return np.array(["%.12g" % v for v in bits.view(np.float64).tolist()],
                    dtype=object)[where]


def write_csv(columns, fh: TextIO) -> None:
    """Header, then the rows of the ``export_samples`` columns: floats to
    12 digits, flag 0/1.  On a grid, x and the conformal factor take nx
    values and y takes ny, so each distinct value of those three columns
    is formatted once and enters its rows as text; no layout is assumed."""
    x, y, re1, im1, re2, im2, cf, beta, flagged = columns
    row = "%s,%s,%.12g,%.12g,%.12g,%.12g,%s,%.12g,%d\n"
    cells = (_distinct_cells(x), _distinct_cells(y), re1, im1, re2, im2,
             _distinct_cells(cf), beta, flagged)
    fh.write(",".join(EXPORT_COLUMNS) + "\n" + format_rows(row, cells))


def write_obj(columns, fh: TextIO) -> None:
    """Vertex cloud of the affine image, first three real coordinates of
    the unflagged rows."""
    keep = ~columns[-1]
    fh.write(format_rows("v %.9g %.9g %.9g\n", [c[keep] for c in columns[2:5]]))
