import dataclasses
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from cp2tori.family import (AlphaTriple, Branch, ModuliPoint, conformal_factor,
                            derive_constants, lift)
from cp2tori.immersion import (EXPORT_COLUMNS, _det_at, _unit_frame, default_chart,
                               export_samples, geometry_residuals,
                               lagrangian_angle, write_csv, write_obj)


def test_geometry_residuals_small(sample_derived, sample_derived_plus):
    for d in (sample_derived, sample_derived_plus):
        rep = geometry_residuals(d, grid=(32, 32))
        assert rep.max_residual <= 1e-6
        assert rep.unit_norm <= 1e-10
        assert rep.conformality_y <= 1e-8
        assert rep.horizontality_y <= 1e-10
        assert rep.grid == (32, 32)


def test_lagrangian_angle_slopes(sample_derived):
    d = sample_derived
    h = 1e-6
    x0, y0 = 0.41, 0.9

    def wrap(v):
        return math.remainder(v, 2.0 * math.pi)

    bx = wrap(lagrangian_angle(d, x0 + h, y0) - lagrangian_angle(d, x0 - h, y0)) / (2 * h)
    by = wrap(lagrangian_angle(d, x0, y0 + h) - lagrangian_angle(d, x0, y0 - h)) / (2 * h)
    assert bx == pytest.approx(d.slope_x, abs=1e-6)
    assert by == pytest.approx(d.slope_y, abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_lagrangian_angle_beyond_one_period(sample_derived):
    # beta(x + N T, y) = beta(x, y) + a N T: the phase integrals past the
    # first period must be reduced by it, not integrated from 0
    d = sample_derived
    x, y = 0.4, 1.0
    for n in (1, 1000):
        shift = lagrangian_angle(d, x + n * d.period, y) - lagrangian_angle(d, x, y)
        assert abs(math.remainder(shift - d.slope_x * n * d.period, 2 * math.pi)) <= 1e-9


def _lift_frame(d, x, y, h=1e-6):
    """Oracle frame at (x, y) from the lift alone: r and its central
    differences in x and y, normalized, without the x-only factorization."""
    rx = (lift(x + h, y, d) - lift(x - h, y, d)) / (2 * h)
    ry = (lift(x, y + h, d) - lift(x, y - h, d)) / (2 * h)
    return np.array([lift(x, y, d), rx / np.linalg.norm(rx), ry / np.linalg.norm(ry)])


def test_frame_matches_finite_differences_of_the_lift(sample_derived, sample_derived_plus,
                                                      degenerate_derived):
    rng = np.random.default_rng(12)
    for d in (sample_derived, sample_derived_plus, degenerate_derived):
        for x, y in zip(rng.uniform(0.05 * d.period, 0.95 * d.period, 5),
                        rng.uniform(0.0, 2 * math.pi, 5)):
            oracle = _lift_frame(d, x, y)
            frame = (_unit_frame(d, np.array([x]))[0][:, :, 0]
                     * np.exp(1j * np.array(d.alpha.weights) * y))
            assert np.abs(frame - oracle).max() <= 1e-8
            beta = -np.angle(np.linalg.det(oracle))
            assert abs(math.remainder(lagrangian_angle(d, x, y) - beta, 2 * math.pi)) <= 1e-7


def test_angle_and_lift_on_arrays_match_scalar_calls(sample_derived, degenerate_derived):
    rng = np.random.default_rng(13)
    for d in (sample_derived, degenerate_derived):
        x = rng.uniform(0.0, 3 * d.period, (4, 1))
        y = rng.uniform(0.0, 2 * math.pi, 5)
        beta = lagrangian_angle(d, x, y)
        psi = lift(x, y, d)
        assert beta.shape == (4, 5) and psi.shape == (3, 4, 5)
        for i, j in np.ndindex(beta.shape):
            one = lagrangian_angle(d, x[i, 0], y[j])
            assert isinstance(one, float)
            assert abs(math.remainder(beta[i, j] - one, 2 * math.pi)) <= 1e-13
            assert np.abs(psi[:, i, j] - lift(x[i, 0], y[j], d)).max() <= 1e-14


def test_frame_takes_sn_twice(sample_derived, monkeypatch):
    # one sn, cn of x sqrt(a1+a3) gives cf and cf', and the phase
    # integrals take one of the 2K-reduced argument
    from cp2tori import family
    calls = []
    real = family._sn_cn

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(family, "_sn_cn", counted)
    _unit_frame(sample_derived, np.linspace(0.0, sample_derived.period, 7))
    assert len(calls) <= 2


def test_residuals_catch_a_wrong_y_slope(sample_derived):
    # the y-slope is compared with the derived constant b, not with the
    # construction's own sum of weights; delta is not an integer, since there
    # the y-mean of e^{i delta y} vanishes and the offset is noise
    for delta in (0.5, 1e-3):
        d = dataclasses.replace(sample_derived, slope_y=sample_derived.slope_y + delta)
        rep = geometry_residuals(d, grid=(64, 64))
        assert rep.slope_y_error == pytest.approx(delta, rel=1e-9)
        assert rep.beta_linearity > 1e-6


def test_residuals_allocate_no_grid_when_the_y_slope_is_right(sample_derived):
    # with b the derived constant, delta y is 0.0 on every column, so the
    # beta check needs one column, not an nx x ny array (33.6 MB of floats
    # at 2048^2)
    tracemalloc.start()
    try:
        rep = geometry_residuals(sample_derived, grid=(2048, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_residual <= 1e-6
    assert peak < 8e6


def test_residuals_need_two_points_along_each_axis(sample_derived):
    for grid in ((1, 64), (64, 1), (0, 8)):
        with pytest.raises(ValueError, match=re.escape(f"grid {grid}")):
            geometry_residuals(sample_derived, grid=grid)


def _beta_checks_on_the_grid(d, grid):
    """Oracle for the Lagrangian-angle fields of geometry_residuals: beta =
    -arg det R on the whole (nx, ny) grid against a x + b y modulo 2 pi, and
    the slopes from wrap-safe differences along both axes of that grid."""
    nx, ny = grid
    xs = np.linspace(0.0, d.period, nx, endpoint=False)
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    det = _det_at(d, _unit_frame(d, xs)[0][..., None], ys)
    resid = -np.angle(det) - (d.slope_x * xs[:, None] + d.slope_y * ys[None, :])
    offset = np.angle(np.exp(1j * resid).mean())
    lin = np.abs(np.angle(np.exp(1j * (resid - offset)))).max()
    sx = np.angle(det[:-1, :] * np.conj(det[1:, :])) / (xs[1] - xs[0])
    sy = np.angle(det[:, :-1] * np.conj(det[:, 1:])) / (ys[1] - ys[0])
    return lin, np.abs(sx - d.slope_x).max(), np.abs(sy - d.slope_y).max()


@pytest.mark.parametrize("grid", [(64, 64), (33, 17)])
def test_beta_checks_match_the_grid_oracle(grid, sample_derived, sample_derived_plus,
                                           degenerate_derived):
    for d in (sample_derived, sample_derived_plus, degenerate_derived,
              dataclasses.replace(sample_derived, slope_y=sample_derived.slope_y + 0.5)):
        rep = geometry_residuals(d, grid)
        got = (rep.beta_linearity, rep.slope_x_error, rep.slope_y_error)
        assert np.abs(np.subtract(got, _beta_checks_on_the_grid(d, grid))).max() <= 1e-12


def test_export_row_count_and_roundtrip(sample_derived):
    columns, chart = export_samples(sample_derived, (6, 7))
    assert len(columns) == len(EXPORT_COLUMNS)
    assert all(c.shape == (42,) for c in columns) and columns[-1].dtype == bool
    assert chart == default_chart(sample_derived)
    buf = io.StringIO()
    write_csv(columns, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(EXPORT_COLUMNS)
    assert len(lines) == 43
    # round trip at output precision
    reread = [float(v) for v in lines[1].split(",")[:-1]]
    for orig, back in zip(_rows(columns)[0][:-1], reread):
        assert back == pytest.approx(orig, rel=1e-11, abs=1e-11)


def test_export_values_match_the_lift(sample_derived, sample_derived_plus,
                                      degenerate_derived):
    # pointwise oracles at sampled rows: the chart coordinates are ratios
    # of lift components, the conformal factor is conformal_factor(x), and
    # beta - (a x + b y) is one constant mod 2 pi
    rng = np.random.default_rng(5)
    for d in (sample_derived, sample_derived_plus, degenerate_derived):
        columns, chart = export_samples(d, (12, 10))
        rows = _rows(columns)
        others = [i for i in range(3) if i != chart]
        shifts = []
        for k in rng.choice(len(rows), 15, replace=False):
            x, y, re1, im1, re2, im2, cf, beta, flagged = rows[k]
            assert not flagged
            v = lift(x, y, d)
            assert abs(complex(re1, im1) - v[others[0]] / v[chart]) <= 1e-12
            assert abs(complex(re2, im2) - v[others[1]] / v[chart]) <= 1e-12
            assert cf == conformal_factor(x, d)
            shifts.append(beta - d.slope_x * x - d.slope_y * y)
        spread = np.angle(np.exp(1j * (np.array(shifts) - shifts[0])))
        assert np.abs(spread).max() <= 1e-9


def _rows(columns):
    """The rows of export columns, as tuples of Python values."""
    return list(zip(*(c.tolist() for c in columns)))


def _csv_by_field(rows):
    """Oracle for write_csv: each field formatted on its own, a float at 12
    significant digits and anything else as an int."""
    lines = [",".join(EXPORT_COLUMNS)]
    lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(int(v)) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _obj_by_field(rows):
    """Oracle for write_obj: one vertex per unflagged row."""
    return "".join(f"v {r[2]:.9g} {r[3]:.9g} {r[4]:.9g}\n" for r in rows if not r[-1])


def test_writers_match_the_per_field_format(sample_derived):
    odd = (math.nan, math.inf, -math.inf, -0.0, 1e-300, 2.0 / 3.0, -1.5e300, 7.0)
    rows = [tuple(odd[(k + j) % len(odd)] for j in range(8)) + (k % 3 == 0,)
            for k in range(len(odd))]
    # x, y and the conformal factor formatted once per distinct value must
    # keep 0.0 and -0.0 apart (they compare equal), and nan and inf repeat
    rep = (0.0, -0.0, math.nan, math.inf, -0.0, 0.0, math.inf, math.nan, 0.0, -0.0)
    rows += [(rep[k], rep[(3 * k + 1) % 10], 1.0, -0.0, 0.0, 2.5, rep[(7 * k + 2) % 10],
              -0.0, k % 2 == 0) for k in range(10)]
    rows += _rows(export_samples(sample_derived, (4, 3))[0])
    columns = tuple(np.array(c) for c in zip(*rows))
    for write, oracle in ((write_csv, _csv_by_field), (write_obj, _obj_by_field)):
        buf = io.StringIO()
        write(columns, buf)
        assert buf.getvalue() == oracle(rows)
    assert "nan,inf,-inf,-0,1e-300" in _csv_by_field(rows)


def test_export_obj_vertices(sample_derived):
    columns, _ = export_samples(sample_derived, (5, 5))
    buf = io.StringIO()
    write_obj(columns, buf)
    lines = [ln for ln in buf.getvalue().strip().split("\n") if ln]
    assert len(lines) == 25 - columns[-1].sum()
    assert all(ln.startswith("v ") and len(ln.split()) == 4 for ln in lines)


def test_export_nearly_homogeneous_constant_factor():
    # a1 -> a2 is the homogeneous limit: the exported conformal factor
    # becomes constant (flat induced metric)
    al = AlphaTriple(2, 1, -1)
    d = derive_constants(al, ModuliPoint(1.5 + 5e-7, 1.5 - 5e-7, Branch.MINUS))
    cfs = export_samples(d, (16, 4))[0][6]
    assert cfs.max() - cfs.min() <= (d.a1 - d.a2) + 1e-12
