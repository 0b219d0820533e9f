import io
import math

import pytest

from cp2tori.family import AlphaTriple, Branch, ModuliPoint, derive_constants
from cp2tori.immersion import (EXPORT_COLUMNS, default_chart,
                               export_samples, frame_unitarity_residual,
                               geometry_residuals, lagrangian_angle,
                               mean_curvature_check, write_csv, write_obj)


def test_quad_tol_reaches_the_phase_integrals(sample_derived, tmp_path,
                                              monkeypatch, capsys):
    from cp2tori import cli, immersion
    seen = []
    real = immersion.g_phases_cumulative

    def spy(xs, d, tol=1e-10):
        seen.append(tol)
        return real(xs, d, tol)

    monkeypatch.setattr(immersion, "g_phases_cumulative", spy)
    geometry_residuals(sample_derived, grid=(8, 8), quad_tol=1e-13)
    export_samples(sample_derived, (4, 4), quad_tol=2e-13)
    assert cli.main(["export", "--alpha", "2", "1", "-1", "--a1", "1.8",
                     "--a2", "1.2", "--grid", "4", "4", "--quad-tol", "3e-13",
                     "--out", str(tmp_path / "e.csv")]) == 0
    capsys.readouterr()
    assert seen == [1e-13, 2e-13, 3e-13]


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


def test_frame_unitarity(sample_derived, rng):
    d = sample_derived
    for _ in range(10):
        x = rng.uniform(0.05, d.period * 0.95)
        y = rng.uniform(0, 2 * math.pi)
        assert frame_unitarity_residual(d, x, y) <= 1e-7


def test_mean_curvature_closed_form(sample_derived):
    assert mean_curvature_check(sample_derived, samples=20) <= 1e-6


def test_mean_curvature_scaling(sample_derived):
    # |H|^2 = (a^2 + b^2)/(2 e^v): doubling the slopes quadruples it
    d = sample_derived
    h2 = (d.slope_x ** 2 + d.slope_y ** 2)
    assert (2 * d.slope_x) ** 2 + (2 * d.slope_y) ** 2 == pytest.approx(4 * h2)


def test_export_row_count_and_roundtrip(sample_derived):
    rows, chart = export_samples(sample_derived, (6, 7))
    assert len(rows) == 42
    assert chart == default_chart(sample_derived)
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(EXPORT_COLUMNS)
    assert len(lines) == 43
    # round trip at output precision
    reread = [float(v) for v in lines[1].split(",")[:-1]]
    for orig, back in zip(rows[0][:-1], reread):
        assert back == pytest.approx(orig, rel=1e-11, abs=1e-11)


def test_export_obj_vertices(sample_derived):
    rows, _ = export_samples(sample_derived, (5, 5))
    buf = io.StringIO()
    write_obj(rows, buf)
    lines = [ln for ln in buf.getvalue().strip().split("\n") if ln]
    flagged = sum(1 for r in rows if r[-1])
    assert len(lines) == len(rows) - flagged
    assert all(ln.startswith("v ") and len(ln.split()) == 4 for ln in lines)


def test_export_nearly_homogeneous_constant_factor():
    # a1 -> a2 is the homogeneous limit: the exported conformal factor
    # becomes constant (flat induced metric)
    al = AlphaTriple(2, 1, -1)
    d = derive_constants(al, ModuliPoint(1.5 + 5e-7, 1.5 - 5e-7, Branch.MINUS))
    rows, _ = export_samples(d, (16, 4))
    cfs = [r[6] for r in rows]
    assert max(cfs) - min(cfs) <= (d.a1 - d.a2) + 1e-12
