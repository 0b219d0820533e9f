import dataclasses
import hashlib
import json
import math
import struct
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cp2tori.bounds import (_G_DIP, _G_PEAK, BAND_EPS, CHARTS, CLAIMS,
                            SCALAR_QUADRATICS, b1_expr, b2_expr,
                            b2_strip_corner_expr, b2_strip_lower_expr,
                            case_chain_check, certify_charts, certify_lemma4,
                            certify_lemma5, classify_case, clip_band,
                            clip_triangle, comparison_threshold,
                            degenerate_c2_bounds_check, f_aux, g_aux,
                            lemma5_strip_certificates, scalar_bound_1,
                            scalar_bound_2, scalar_bound_checks)
from cp2tori.cli import EXIT_NOT_PROVED, EXIT_OK, main
from cp2tori.family import AlphaTriple, Branch, ModuliPoint, derive_constants
from cp2tori.interval import (CertStatus, Interval, IntervalArray,
                              certify_lower_bound, replay_certificate, sqrt)
from conftest import SIGN_SLIP_STEPS, grid_points
from level_by_level import certify_level_by_level


def b2_composed(x, y):
    """b2 as the paper displays it, composed from the squeeze functions;
    the oracle for the single-fraction form ``b2_expr``."""
    f, g = f_aux(x, y), g_aux(x, y)
    num = x + y + 0.25 * ((x + y) * f / (x * y) - x * y) ** 2 / g
    return num / math.sqrt(x + g / (x * y))


def b2_single_fraction(x, y):
    """b2 with the f/g compositions cleared but d = x - y not: the oracle
    for the d-cleared form ``b2_expr`` away from the diagonal."""
    u = x + y
    s, d = 2.0 - u, x - y
    s2, d2 = s * s, d * d
    four_s2_d2 = 4.0 * s2 - d2
    w = 2.0 * (u * s2 - d2) ** 2 / (s * d2 * four_s2_d2)
    return (u + w) / np.sqrt(x + x * y * four_s2_d2 / (2.0 * s * d2))


def test_b1_frozen_value():
    expected = 12.25 / (16.0 * math.sqrt(0.5))
    assert b1_expr(1.0, 0.5) == pytest.approx(expected, rel=1e-14)
    assert abs(b1_expr(1.0, 0.5) - 1.0828) < 1e-4


def test_b1_blows_up_near_left_edge():
    assert b1_expr(1e-8, 0.5e-8) > 1e3


def test_b1_grid_above_one():
    n = 200
    vals = []
    for x in np.linspace(1e-3, 1.0, n):
        ys = np.linspace(x * 1e-3, x * 0.999, n)
        vals.append(b1_expr(x, ys).min())
    assert min(vals) > 1.0


def test_squeeze_inequality(rng):
    # (2-x-y) - (x-y)^2/(2-x-y) <= sqrt((2-x-y)^2-(x-y)^2)
    #                            <= (2-x-y) - (x-y)^2/(2(2-x-y))
    for _ in range(10_000):
        x = rng.uniform(1e-3, 1.0)
        y = rng.uniform(0.0, x * 0.999)
        s, d = 2.0 - x - y, x - y
        root = math.sqrt(s * s - d * d)
        assert s - d * d / s <= root + 1e-12
        assert root <= s - d * d / (2.0 * s) + 1e-12


def test_f_below_g(rng):
    for _ in range(10_000):
        x = rng.uniform(1e-3, 1.0)
        y = rng.uniform(x * 1e-3, x * 0.999)
        fv, gv = f_aux(x, y), g_aux(x, y)
        assert 0.0 < fv <= gv + 1e-12


def test_f_g_pole_towards_diagonal():
    assert g_aux(0.5, 0.5 - 1e-6) > g_aux(0.5, 0.5 - 1e-4) > 1e4


def test_b2_dual_formula_agreement(rng):
    assert b2_composed(1.0, 0.2) == pytest.approx(b2_expr(1.0, 0.2), abs=1e-10)
    assert b2_expr(1.0, 0.2) > 0
    for _ in range(2000):
        x = rng.uniform(1e-2, 1.0)
        y = rng.uniform(x * 1e-3, x * 0.995)
        assert b2_composed(x, y) == pytest.approx(b2_expr(x, y), rel=1e-9)


def test_b2_agrees_with_single_fraction_form():
    rng = np.random.default_rng(2017)
    x = rng.uniform(1e-6, 1.0, 100_000)
    y = (x - 1e-6) * rng.uniform(0.0, 1.0, x.size)
    assert (x - y).min() >= 1e-6
    rel = np.abs(b2_expr(x, y) / b2_single_fraction(x, y) - 1.0)
    assert rel.max() <= 2e-15


def test_b2_box_reaching_the_band_proves_without_splitting():
    # a box of x-width 2^-8 whose clipped corner reaches x - y = eps: t =
    # (x - y)/(2 - x - y) is [0, ...] there, and with t in one denominator
    # under a positive numerator the enclosure keeps a finite lower end
    # above 0.9
    eps = 1e-4
    box = [np.array([v]) for v in
           (0.5, 0.5 + 2.0 ** -8, 0.5 - 2.0 ** -7, 0.5 + 2.0 ** -8 - eps)]
    xlo, xhi, ylo, yhi, keep = clip_triangle(eps)(*box)
    assert keep[0] and xlo[0] - yhi[0] < 0.0
    arr = b2_expr(IntervalArray(xlo, xhi), IntervalArray(ylo, yhi))
    enc = b2_expr(Interval(xlo[0], xhi[0]), Interval(ylo[0], yhi[0]))
    assert enc.lo > 0.9 and arr.lo[0] > 0.9
    assert arr.lo[0] <= enc.lo and enc.hi <= arr.hi[0]


def test_b2_grid_above_threshold():
    n = 150
    worst = math.inf
    for x in np.linspace(1e-3, 1.0, n):
        for y in np.linspace(0.0, x * 0.999, 60):
            worst = min(worst, b2_expr(x, y))
    assert worst > 0.9
    # the bound genuinely dips below 1, so 0.9 is the right threshold
    assert worst < 1.0


def test_interval_evaluators_enclose_point_values(rng):
    for _ in range(2000):
        x = rng.uniform(1e-2, 1.0)
        y = rng.uniform(0.0, x * 0.99)
        wx, wy = rng.uniform(0, 0.01, 2)
        X = Interval(x, min(x + wx, 1.0))
        Y = Interval(y, min(y + wy, x * 0.995))
        px = rng.uniform(X.lo, X.hi)
        py = rng.uniform(Y.lo, min(Y.hi, px * 0.999))
        enc1 = b1_expr(X, Y)
        assert enc1.lo <= b1_expr(px, py) <= enc1.hi
        if Y.hi < X.lo:  # away from the diagonal for b2
            enc2 = b2_expr(X, Y)
            assert enc2.lo <= b2_expr(px, py) <= enc2.hi


def test_strip_bound_is_a_lower_bound_for_b2(rng):
    # the diagonal-strip surrogates really sit below b2
    for _ in range(3000):
        x = rng.uniform(1e-2, 1.0)
        rho = rng.uniform(1e-6, 1.0 - 1e-9)
        y = x * (1.0 - rho)
        val = b2_expr(x, y)
        assert b2_strip_lower_expr(x, rho) <= val + 1e-10
        s = 2.0 - x - y
        if s <= 0.5:
            rho_s = (x - y) / s
            if 0 < rho_s <= 1.0:
                assert b2_strip_corner_expr(s, rho_s) <= val + 1e-10


def test_scalar_bound_endpoints():
    thr = 4.0 / (3.0 * math.sqrt(3.0))
    assert scalar_bound_1(0.0) == 1.0 > thr
    assert scalar_bound_2(0.0) == pytest.approx(math.sqrt(8.0 / 7.0), rel=1e-12)
    assert abs(scalar_bound_2(0.0) - 1.069) < 1e-3
    assert abs(thr - 0.7698) < 1e-4


def test_comparison_threshold_enclosure():
    enc = comparison_threshold()
    exact = 4.0 / (3.0 * math.sqrt(3.0))
    assert enc.lo <= exact <= enc.hi
    assert enc.width < 1e-15


def test_scalar_bound_certification():
    report = scalar_bound_checks()
    assert report.all_proved
    assert all(c.status is CertStatus.PROVED for c in report.certificates)
    # beyond x = 100 the bounds' quadratics prove them, not a certificate
    assert [c.target for c in report.certificates] == ["scalar-1", "scalar-2"]
    # certified minima really clear the constant
    assert all(c.threshold > 4.0 / (3.0 * math.sqrt(3.0)) - 1e-15
               for c in report.certificates)


def test_claims_use_every_chart_once():
    targets = [t for claim in CLAIMS.values() for t in claim]
    assert sorted(targets) == sorted(CHARTS) and len(set(targets)) == len(targets)
    # a chart is claimed with the charts its notes cite
    for claim in CLAIMS.values():
        assert all(set(CHARTS[t].cites) <= set(claim) for t in claim)


def _covered(boxes, pts):
    inside = ((boxes[:, 0] <= pts[:, :1]) & (pts[:, :1] <= boxes[:, 1])
              & (boxes[:, 2] <= pts[:, 1:]) & (pts[:, 1:] <= boxes[:, 3]))
    return inside.any(axis=1)


def test_lemma4_certificate_small_eps(rng):
    # B1 has no excluded strip: its boxes cover the closed triangle, up to
    # the edge x = 0 and the corner (1, 1) where b1 blows up, and replay
    cert = certify_lemma4()
    assert cert.status is CertStatus.PROVED and cert.epsilon == 0.0
    x = np.concatenate([rng.uniform(0, 1, 4000), rng.uniform(0, 1e-4, 1000),
                        1 - rng.uniform(0, 5e-5, 1000), [0.0, 1.0, 1.0, 0.5]])
    y = np.concatenate([x[:-4] * rng.uniform(0, 1, x.size - 4), [0.0, 0.0, 1.0, 0.5]])
    y[5000:6000] = x[5000:6000] - rng.uniform(0, 5e-5, 1000)
    pts = np.column_stack([x, y])
    assert np.all((0 <= y) & (y <= x) & (x <= 1))
    assert (x < 1e-4).sum() >= 1000 and (x + y > 2 - 1e-4).sum() >= 500
    assert _covered(cert.retained_boxes, pts).all()
    assert replay_certificate(cert, b1_expr)


@pytest.mark.parametrize("box", [(1.5, 1.6, 0.9, 1.0), (0.6, 0.5, 0.2, 0.3),
                                 (math.nan, 0.5, 0.2, 0.3)],
                         ids=["evaluator-raises", "unordered", "nan"])
def test_replay_of_a_bad_box_is_false(box):
    # B1's certificate with one more box: off the domain, where the scalar
    # evaluator raises IntervalDomainError, unordered, or NaN; the replay
    # says False instead of raising, and each valid box before it called
    # the evaluator once
    cert = certify_lemma4()
    calls = []

    def counted(x, y):
        calls.append(1)
        return b1_expr(x, y)

    assert replay_certificate(cert, counted) is True
    assert len(calls) == cert.retained_count
    calls.clear()
    bad = dataclasses.replace(cert, retained_boxes=np.vstack([cert.retained_boxes, box]))
    assert replay_certificate(bad, counted) is False
    assert len(calls) == cert.retained_count + (box[0] <= box[1])


def test_lemma4_fails_at_higher_threshold():
    cert, = certify_charts(CLAIMS["B1"], threshold=1.2)
    assert cert.status is CertStatus.FAILED
    assert cert.witness is not None
    x, y, val = cert.witness
    assert 0.0 <= y <= x <= 1.0
    # the witness value is a proved upper bound of b1 at the witness
    assert b1_expr(x, y) <= val < 1.2


def test_lemma5_certificate_small_eps():
    cert, *strips = certify_charts(CLAIMS["B2"])
    assert cert.status is CertStatus.PROVED and cert.epsilon == BAND_EPS
    assert replay_certificate(cert, b2_expr)
    assert all(c.status is CertStatus.PROVED for c in strips)
    # the notes cite the band certificates of the same run, and a run
    # that returns only B2 cites them alike
    for strip in strips:
        assert any(strip.box_digest()[:16] in n for n in cert.notes)
    assert certify_charts(["B2"])[0].notes == cert.notes


def test_band_charts_cover_the_band_up_to_a_quarter(rng):
    # a band point with x > 7/8 has s = 2 - x - y < 1/4 + eps, so for
    # eps = BAND_EPS <= 1/4 each band point is in the strip chart (x, d/x),
    # x <= 7/8, or the corner chart (s, d/s), s <= 1/2
    assert 0 < BAND_EPS <= 0.25
    strip, corner = lemma5_strip_certificates()
    assert strip.status is corner.status is CertStatus.PROVED
    x = rng.uniform(0, 1, 20000)
    d = rng.uniform(0, BAND_EPS, x.size) * np.minimum(1.0, x / BAND_EPS)
    x, d = x[d > 0], d[d > 0]
    s = 2 - x - (x - d)
    assert (x > 0.875).sum() >= 1000
    assert (_covered(strip.retained_boxes, np.column_stack([x, d / x]))
            | _covered(corner.retained_boxes, np.column_stack([s, d / s]))).all()


def test_lemma5_certificate_at_the_defaults():
    # the box count is pinned: boxes reaching the band prove unsplit
    cert = certify_lemma5()
    assert cert.status is CertStatus.PROVED
    assert (cert.boxes_examined, cert.retained_count) == (1007, 504)
    assert replay_certificate(cert, b2_expr)
    assert [c.target for c in lemma5_strip_certificates()] == [
        "B2-diagonal-strip", "B2-diagonal-strip-corner"]


def test_lemma5_fails_at_higher_threshold():
    cert = certify_charts(CLAIMS["B2"], threshold=1.0)[0]
    assert cert.status is CertStatus.FAILED
    assert cert.witness is not None
    x, y, val = cert.witness
    assert 0.0 <= y <= x - BAND_EPS and x <= 1.0
    # the witness value is a proved upper bound of b2 at the witness
    assert b2_expr(x, y) <= val < 1.0


# SHA-256 of the scalar enclosures (lo, hi as little-endian doubles) of up
# to 300 seeded retained boxes of each certificate, drawn in the order
# listed below (the order of the claims)
PINNED_REPLAY_DIGESTS = {
    "B1": "c3a09bf127d9313b64f2e41fa0f574cb32bad905719377ba78a77cc2f7847ece",
    "B2": "3fc826221649c53705daee33159342c84f4b3517121c02b4140390aabaf5a0c1",
    "B2-diagonal-strip":
        "d4f0e2206b7cadf35044a26d9504dd3c0c53a132617f28b042e4c8d23b08adec",
    "B2-diagonal-strip-corner":
        "d3e13c7117ea94300a75d06c623b5025b0f71b8784512d338b8b322f5ac141f8",
    "scalar-1": "c5b325a668aee8334b97f31d34a7a2b83a5973324c92384a7d0a0ed507dacce3",
    "scalar-2": "83ac8ea405c455755db249326edcd4791384be98b7d220f199e4d9b06415da02",
}


def test_replay_enclosures_are_pinned():
    # every certificate `verify` makes, replayed on a sample of its boxes
    # with the expression of its chart: the scalar path gives these
    # enclosures bit for bit, not only the same verdict
    certs = certify_charts([t for claim in CLAIMS.values() for t in claim])
    rng = np.random.default_rng(1788)
    digests = {}
    for cert in certs:
        boxes = cert.retained_boxes
        pick = np.sort(rng.choice(len(boxes), size=min(300, len(boxes)), replace=False))
        digest = hashlib.sha256()
        for xlo, xhi, ylo, yhi in boxes[pick]:
            enc = CHARTS[cert.target].expr(Interval(xlo, xhi), Interval(ylo, yhi))
            digest.update(struct.pack("<2d", enc.lo, enc.hi))
        digests[cert.target] = digest.hexdigest()
    assert digests == PINNED_REPLAY_DIGESTS


# SHA-256 of the scalar enclosures (lo, hi as little-endian doubles) of
# every retained box of every certificate, certificates in the order of
# the claims and boxes in their retained order
PINNED_ALL_BOX_DIGEST = "a5696830e4b78450574d86ce6e3d7cbc7665f462f32512ec83f0f1da0d6b8147"


def test_replay_enclosures_of_every_box_are_pinned():
    certs = certify_charts([t for claim in CLAIMS.values() for t in claim])
    digest = hashlib.sha256()
    for cert in certs:
        for xlo, xhi, ylo, yhi in cert.retained_boxes:
            enc = CHARTS[cert.target].expr(Interval(xlo, xhi), Interval(ylo, yhi))
            digest.update(struct.pack("<2d", enc.lo, enc.hi))
    assert sum(cert.retained_count for cert in certs) == 634
    assert digest.hexdigest() == PINNED_ALL_BOX_DIGEST


# what the array engine decided for each certificate `verify` makes (its
# retained boxes' digest, boxes examined, depth reached, status), and the
# bits of the witness that disproves B1 > 1.2
PINNED_ENGINE_DECISIONS = {
    "B1": ("b96903ddaa10abbc73c9209c52f31efce12ac584d4ea51fba6fbe26236f4ed0b",
           17, 5, "proved"),
    "B2": ("18a86183c1f7deb1ad4ac5a420d3e5182e78d27726ad05ebc4f855d08b291f81",
           1007, 23, "proved"),
    "B2-diagonal-strip":
        ("d9939dcde59c1b08efe37f4fb2e0022dfe8b83398aaae027ecd45759f6473d77",
         43, 8, "proved"),
    "B2-diagonal-strip-corner":
        ("3efa6dc538d475cd683086adaa287accba598d63c07bede80c2a4a60ed6c481d",
         13, 6, "proved"),
    "scalar-1": ("a7a52b409fb6a767a88521f10567fe82bdd7bad8e2e83bf0b5f26f9b0cd3ec83",
                 149, 11, "proved"),
    "scalar-2": ("91f7a65637ba6aaba352989ffae830e10c2c0a032d239b398219a8180931310e",
                 61, 9, "proved"),
}
PINNED_B1_WITNESS_AT_1_2 = ["0x1.c000000000000p-1", "0x1.0000000000000p-2",
                            "0x1.1fd66904040fcp+0"]
# the upper bound on the witness's box [3/4, 1] x [0, 1/2] from the expanded
# numerator 16 + 8x + 8y - 7x^2 - 14xy - 7y^2 over 16 sqrt((2-x)(2-x-y)x),
# each operation rounded outward on the array engine
B1_WITNESS_UPPER_EXPANDED = "0x1.3a59e72c1274ep+1"


def test_array_engine_decisions_are_pinned(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--out-dir", str(tmp_path / "all")]) == EXIT_OK
        assert main(["verify", "--target", "B1", "--threshold", "1.2",
                     "--out-dir", str(tmp_path / "b1")]) == EXIT_NOT_PROVED
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    decisions = {}
    for target in PINNED_ENGINE_DECISIONS:
        data = json.loads((tmp_path / "all" / f"{target}.json").read_text())
        decisions[target] = (data["box_digest"], data["boxes_examined"],
                             data["max_depth_reached"], data["status"])
    assert decisions == PINNED_ENGINE_DECISIONS
    data = json.loads((tmp_path / "b1" / "B1.json").read_text())
    assert data["status"] == "failed"
    assert [float(v).hex() for v in data["witness"]] == PINNED_B1_WITNESS_AT_1_2
    assert data["witness"][2] <= float.fromhex(B1_WITNESS_UPPER_EXPANDED)


def _b1_plain(x, y):
    # b1 as the paper displays it, with plain / and sqrt and no clamp
    u = x + y
    return (16.0 + 8.0 * u - 7.0 * u * u) / (16.0 * sqrt((2.0 - x) * (2.0 - u) * x))


def test_b1_with_plain_division_proves_and_replays():
    # its denominator vanishes on x = 0 and at (1, 1): the scalar replay
    # divides there by the same rule as the proof, so it neither raises
    # nor fails
    cert = certify_lower_bound("B1", _b1_plain, (0.0, 1.0, 0.0, 1.0),
                               1.0, clip=clip_triangle(0.0))
    assert cert.status is CertStatus.PROVED
    assert replay_certificate(cert, _b1_plain)


def test_b1_factors_into_monotone_pieces_in_exact_arithmetic():
    # b1 = g(u) h(x), u = x + y, g = N(u)/sqrt(2-u), h = 1/sqrt(x(2-x)), with
    # 16 N(u) = 16 + 8u - 7u^2; g' = (N'(u)(2-u) + N(u)/2) / (2-u)^(3/2)
    def agree(lhs, rhs, degree):
        # polynomials of degree <= n that agree at n + 1 points are equal
        return all(lhs(Fraction(k)) == rhs(Fraction(k)) for k in range(degree + 1))

    def derivative(p):
        # the central difference, exact for polynomials of degree <= 2
        return lambda t: (p(t + 1) - p(t - 1)) / 2

    N = lambda u: 1 + u / 2 - Fraction(7, 16) * u * u
    dN = derivative(N)
    assert agree(lambda u: 16 * N(u), lambda u: 16 + 8 * u - 7 * u * u, 2)
    assert agree(lambda u: 32 * (dN(u) * (2 - u) + N(u) / 2),
                 lambda u: (3 * u - 4) * (7 * u - 12), 2)
    # so g' has the roots 4/3 < 12/7 and a positive leading coefficient:
    # g rises on [0, 4/3], falls on [4/3, 12/7] and rises on [12/7, 2)
    assert Fraction(4, 3) < Fraction(12, 7) < 2
    # N is concave (N'' = -7/8) with N(0), N(2) > 0, so N > 0 on [0, 2]
    assert agree(derivative(dN), lambda u: Fraction(-7, 8), 0)
    assert N(Fraction(0)) == 1 and N(Fraction(2)) == Fraction(1, 4)
    # d/dx x(2-x) = 2 - 2x, which is >= 0 on [0, 1], so h falls there
    assert agree(derivative(lambda x: x * (2 - x)), lambda x: 2 - 2 * x, 1)
    assert all(2 - 2 * Fraction(x) >= 0 for x in (0, 1))
    # the float enclosures of the turning points that b1_expr clamps
    assert Fraction(_G_PEAK.lo) < Fraction(4, 3) < Fraction(_G_PEAK.hi)
    assert Fraction(_G_DIP.lo) < Fraction(12, 7) < Fraction(_G_DIP.hi)


def _b1_exact(x, y):
    u = mpmath.mpf(x) + mpmath.mpf(y)
    return (16 + 8 * u - 7 * u * u) / (16 * mpmath.sqrt((2 - x) * (2 - u) * mpmath.mpf(x)))


def _triangle_boxes(rng, n, fixed=None, u_inside=None):
    """n boxes of the triangle 0 <= y <= x <= 1, widths up to 0.3, after
    the B1 clip; ``fixed`` pins endpoints as in ``_edge_boxes`` and
    ``u_inside`` keeps the boxes whose x + y range contains it."""
    xlo, ylo = rng.uniform(0, 1, (2, n))
    wx, wy = rng.uniform(1e-9, 0.3, (2, n))
    boxes = np.array([xlo, xlo + wx, ylo, ylo + wy])
    for col, val in (fixed or {}).items():
        boxes[col] = val
    xlo, xhi, ylo, yhi, keep = clip_triangle(0.0)(*boxes)
    if u_inside is not None:
        keep &= (xlo + ylo < u_inside) & (u_inside < xhi + yhi)
    return xlo[keep], xhi[keep], ylo[keep], yhi[keep]


@pytest.mark.parametrize("fixed, u_inside", [
    (None, None), (None, 4 / 3), (None, 12 / 7), ({0: 0.0}, None), ({1: 1.0, 3: 1.0}, None)],
    ids=["triangle", "u-straddles-4/3", "u-straddles-12/7", "on-x=0", "at-(1,1)"])
def test_b1_enclosures_contain_b1_on_both_engines(fixed, u_inside):
    # every enclosure holds b1 at random points of its box, and the scalar
    # enclosure lies inside the array one
    rng = np.random.default_rng(1710)
    xlo, xhi, ylo, yhi = _triangle_boxes(rng, 3000, fixed, u_inside)
    assert xlo.size >= 100
    arr = b1_expr(IntervalArray(xlo, xhi), IntervalArray(ylo, yhi))
    assert np.isfinite(arr.lo).all() and (arr.lo > 1.0).any()
    for i in range(xlo.size):
        enc = b1_expr(Interval(xlo[i], xhi[i]), Interval(ylo[i], yhi[i]))
        assert arr.lo[i] <= enc.lo <= enc.hi <= arr.hi[i]
        for _ in range(3):
            px = rng.uniform(xlo[i], xhi[i])
            py = rng.uniform(ylo[i], min(yhi[i], px))
            if px > 0.0:
                assert enc.lo <= _b1_exact(px, py) <= enc.hi


@pytest.mark.parametrize("xs, ys", [
    ((0.9, 1.5), (0.0, 0.0)), ((1.2, 1.9), (-0.5, 0.0)), ((0.5, 0.6), (-3.0, -2.0))],
    ids=["x-beyond-1", "x-near-2", "g-negative"])
def test_b1_encloses_b1_off_the_triangle(xs, ys):
    # beyond x = 1 h rises again, and below u = -1.04 N and g are negative:
    # both engines still enclose b1 on a grid of the box
    enc = b1_expr(Interval(*xs), Interval(*ys))
    arr = b1_expr(IntervalArray([xs[0]], [xs[1]]), IntervalArray([ys[0]], [ys[1]]))
    for px in np.linspace(*xs, 9):
        for py in np.linspace(*ys, 9):
            v = _b1_exact(px, py)
            assert enc.lo <= v <= enc.hi and arr.lo[0] <= v <= arr.hi[0]


def test_b1_takes_a_number_with_an_interval():
    # a number operand is the thin interval at it, on either side and on
    # both engines
    cases = [(0.5, Interval(0.1, 0.2), [(0.5, 0.1), (0.5, 0.2)]),
             (Interval(0.5, 0.6), 0.1, [(0.5, 0.1), (0.6, 0.1)]),
             (0.5, IntervalArray([0.1, 0.2], [0.2, 0.3]), [(0.5, 0.1), (0.5, 0.3)])]
    for x, y, (p0, p1) in cases:
        enc = b1_expr(x, y)
        lo, hi = np.min(enc.lo), np.max(enc.hi)
        assert lo <= _b1_exact(*p0) <= hi and lo <= _b1_exact(*p1) <= hi
        assert np.all(enc.lo <= enc.hi)


# SHA-256 of b2_expr's float64 values at the points of ``_b2_float_points``,
# from the cleared (x, y) form
B2_FLOAT_DIGEST = "372ab8b97f90f445afeefdc6399d3054237052bbd6c3f0f4176a44133b761df2"


def _b2_float_points():
    """Seeded points of the triangle, 500 of them at x = 1 and 500 at y = 0."""
    rng = np.random.default_rng(2033)
    x = np.concatenate([rng.uniform(0, 1, 3000), np.ones(500), rng.uniform(0, 1, 500)])
    y = x * rng.uniform(0, 1, x.size)
    y[-500:] = 0.0
    return x, y


def test_b2_floats_keep_the_cleared_form_bit_for_bit():
    # only a box's enclosure is taken in (s, t): a float and an array of
    # floats are evaluated in the cleared (x, y) form, whose rounding error
    # is smaller, and give the same bits
    x, y = _b2_float_points()
    values = b2_expr(x, y)
    assert hashlib.sha256(values.tobytes()).hexdigest() == B2_FLOAT_DIGEST
    scalars = np.array([b2_expr(float(a), float(b)) for a, b in zip(x, y)])
    assert scalars.tobytes() == values.tobytes()


def test_b2_in_s_and_t_is_the_cleared_form_in_exact_arithmetic():
    # with s = 2 - x - y, d = x - y = s t and u = x + y = 2 - s, the s^4
    # factors of the cleared numerator cancel, the radicand takes out x s,
    # and the ratio form of t names x and y once each
    rng = np.random.default_rng(33)
    points = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 2)),
              (Fraction(1, 10 ** 6), Fraction(0)), (Fraction(1), Fraction(999_999, 10 ** 6))]
    for _ in range(300):
        q = int(rng.integers(2, 10 ** 9))
        j, i = sorted(int(v) for v in rng.choice(q + 1, 2, replace=False))
        points.append((Fraction(i, q), Fraction(j, q)))  # 0 <= y < x <= 1
        points.append((Fraction(i, q), Fraction(0)))
        points.append((Fraction(1), Fraction(j, q)))
    for x, y in points:
        u, s, d = x + y, 2 - x - y, x - y
        t = d / s
        assert 2 / (1 + (1 - x) / (1 - y)) - 1 == t and 0 < t <= 1
        assert (u * d + 2 * (u * s ** 2 - d ** 2) ** 2 / (s * d * (4 * s ** 2 - d ** 2))
                == (2 - s) * s * t + 2 * (2 - s - t ** 2) ** 2 / (t * (4 - t ** 2)))
        assert (x * d ** 2 + x * y * (4 * s ** 2 - d ** 2) / (2 * s)
                == x * s * (s * t ** 2 + y * (4 - t ** 2) / 2))


def _b2_exact(x, y):
    """b2 in the cleared (x, y) form at 40 digits, for 0 <= y < x <= 1."""
    with mpmath.workdps(40):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        u, s, d = x + y, 2 - x - y, x - y
        num = u * d + 2 * (u * s * s - d * d) ** 2 / (s * d * (4 * s * s - d * d))
        return num / mpmath.sqrt(x * d * d + x * y * (4 * s * s - d * d) / (2 * s))


def _log_widths(rng, width, size):
    """Widths log-uniform in [1e-12, width]: narrow boxes, whose enclosures
    are tight, as well as wide ones."""
    return 10.0 ** rng.uniform(-12, math.log10(width), size)


def _b2_boxes(rng, n, corner, width, fixed=None):
    """n boxes with lower-left corners uniform in ``corner`` = (x range,
    y range) and widths log-uniform in [1e-12, width], pinned as in
    ``_edge_boxes`` by ``fixed``, after the B2 clip."""
    (x0, x1), (y0, y1) = corner
    xlo, ylo = rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)
    wx, wy = _log_widths(rng, width, (2, n))
    boxes = np.array([xlo, xlo + wx, ylo, ylo + wy])
    for col, val in (fixed or {}).items():
        boxes[col] = val
    xlo, xhi, ylo, yhi, keep = CHARTS["B2"].clip(*boxes)
    return xlo[keep], xhi[keep], ylo[keep], yhi[keep]


B2_BOXES = {
    "triangle": (((0, 1), (0, 1)), 0.3, None),
    # the cut x - y = eps runs through the box
    "straddles-the-cut": (((0, 1), (0, 1)), 0.02, "cut"),
    "on-y=0": (((0, 1), (0, 1)), 0.1, {2: 0.0}),
    "at-x=1": (((0.5, 1), (0, 1)), 0.1, {1: 1.0}),
    "near-the-origin": (((0, 1e-3), (0, 1e-3)), 1e-3, None),
    "near-(1,1)": (((0.98, 1), (0.98, 1)), 0.02, {1: 1.0, 3: 1.0}),
}


@pytest.mark.parametrize("kind", B2_BOXES)
def test_b2_enclosures_contain_b2_on_both_engines(kind):
    # every enclosure holds b2 at random points of its box's domain, by
    # mpmath at 40 digits, with a finite lower end; the scalar enclosure
    # lies inside the array one
    corner, width, fixed = B2_BOXES[kind]
    rng = np.random.default_rng(1789)
    if fixed == "cut":
        x = rng.uniform(BAND_EPS, 1, 3000)
        w = _log_widths(rng, width, (2, x.size))
        boxes = np.array([x - w[0], x + w[0], x - BAND_EPS - w[1], x - BAND_EPS + w[1]])
        xlo, xhi, ylo, yhi, keep = CHARTS["B2"].clip(*boxes)
        keep &= (xlo - yhi < BAND_EPS) & (BAND_EPS < xhi - ylo)
        xlo, xhi, ylo, yhi = xlo[keep], xhi[keep], ylo[keep], yhi[keep]
    else:
        xlo, xhi, ylo, yhi = _b2_boxes(rng, 3000, corner, width, fixed)
    assert xlo.size >= 100
    arr = b2_expr(IntervalArray(xlo, xhi), IntervalArray(ylo, yhi))
    assert np.isfinite(arr.lo).all()
    checked = 0
    for i in range(0, xlo.size, max(1, xlo.size // 400)):
        enc = b2_expr(Interval(xlo[i], xhi[i]), Interval(ylo[i], yhi[i]))
        assert math.isfinite(enc.lo)
        assert arr.lo[i] <= enc.lo <= enc.hi <= arr.hi[i]
        for _ in range(3):
            px = rng.uniform(max(xlo[i], ylo[i] + BAND_EPS), xhi[i])
            py = rng.uniform(ylo[i], max(ylo[i], min(yhi[i], px - BAND_EPS)))
            if py < px:
                assert enc.lo <= _b2_exact(px, py) <= enc.hi
                checked += 1
    assert checked >= 300


def _certificate_fields(cert):
    """Every field but ``elapsed_s`` as JSON, which also rejects a numpy
    count, and the retained boxes' bytes."""
    fields = cert.to_json_dict()
    del fields["elapsed_s"]
    return json.dumps(fields), cert.retained_boxes.tobytes()


def test_windowed_bisection_matches_the_level_by_level_oracle():
    # one evaluator call covers a window of levels, and each box's clip and
    # enclosure depend on that box alone, so every certificate is the one
    # that one call per level gives: at each chart's threshold, at a raised
    # one, and under a depth cap and a box cap
    kinds = set()
    for target, chart in CHARTS.items():
        for threshold, caps in [(chart.threshold, {}), (3.0, {}),
                                (chart.threshold, {"max_depth": 4}),
                                (chart.threshold, {"max_boxes": 20})]:
            args = (target, chart.expr, chart.root, threshold)
            kwargs = dict(clip=chart.clip, epsilon=chart.eps, notes=("a chart note",),
                          **caps)
            want = certify_level_by_level(*args, **kwargs)
            assert (_certificate_fields(certify_lower_bound(*args, **kwargs))
                    == _certificate_fields(want)), (target, threshold, caps)
            kinds.add(want.notes[-1][:10] if want.status is CertStatus.INCONCLUSIVE
                      else want.status.value)
    assert kinds == {"proved", "failed", "max depth ", "box budget"}


def test_a_window_stops_at_the_box_budget():
    # a window grows only while its boxes fit the boxes left in the
    # budget, so at max_boxes=8 B1 and B2 enclose fewer than 64 boxes
    # between them, not a 511-box window each
    enclosed = 0
    for target in ("B1", "B2"):
        chart = CHARTS[target]

        def counted(x, y, expr=chart.expr):
            nonlocal enclosed
            enclosed += x.lo.shape[0]
            return expr(x, y)

        cert = certify_lower_bound(target, counted, chart.root, chart.threshold,
                                   clip=chart.clip, epsilon=chart.eps, max_boxes=8)
        assert cert.status is CertStatus.INCONCLUSIVE
        assert cert.notes[-1].startswith("box budget 8 exhausted")
    assert enclosed < 64


def _edge_boxes(rng, n, fixed):
    """n boxes in [0, 1]^2 with widths up to 0.05; ``fixed`` pins
    endpoints, e.g. {0: 0.0} for boxes on the edge x = 0."""
    xlo, ylo = rng.uniform(0, 0.95, (2, n))
    wx, wy = rng.uniform(1e-9, 0.05, (2, n))
    boxes = np.array([xlo, xlo + wx, ylo, ylo + wy])
    for col, val in fixed.items():
        boxes[col] = val
    return boxes


# each bound on boxes touching where its denominator vanishes: x = 0 and
# the corner (1, 1) for b1, y = 0 for b2, rho = 0 for the band charts
ZERO_LOCUS_BOXES = [
    (b1_expr, clip_triangle(0.0), {0: 0.0, 2: 0.0}),
    (b1_expr, clip_triangle(0.0), {1: 1.0, 3: 1.0}),
    (b2_expr, clip_triangle(1e-4), {2: 0.0}),
    (b2_strip_lower_expr, clip_band(1e-4, 0.875), {2: 0.0}),
    (b2_strip_corner_expr, clip_band(1e-4, 0.5), {2: 0.0}),
]


@pytest.mark.parametrize("expr, clip, fixed", ZERO_LOCUS_BOXES)
def test_bounds_on_both_engines_at_their_zero_loci(expr, clip, fixed):
    rng = np.random.default_rng(11)
    xlo, xhi, ylo, yhi, keep = clip(*_edge_boxes(rng, 400, fixed))
    xlo, xhi, ylo, yhi = xlo[keep], xhi[keep], ylo[keep], yhi[keep]
    assert xlo.size >= 50
    arr = expr(IntervalArray(xlo, xhi), IntervalArray(ylo, yhi))
    for i in range(xlo.size):
        enc = expr(Interval(xlo[i], xhi[i]), Interval(ylo[i], yhi[i]))
        assert arr.lo[i] <= enc.lo and enc.hi <= arr.hi[i]


def _random_boxes(rng, n):
    """Boxes in [0, 1]^2 of widths up to 0.05, many crossing the diagonal."""
    xlo = rng.uniform(0, 1, n)
    ylo = np.clip(xlo + rng.uniform(-0.05, 0.02, n), 0, 1)
    return xlo, xlo + rng.uniform(0, 0.05, n), ylo, ylo + rng.uniform(0, 0.05, n)


@pytest.mark.parametrize("gap", [0.0, 1e-4])
def test_triangle_clip_rounds_outward(gap):
    # every clipped limit against the exact limit of the triangle
    # {0 <= y <= x - gap, x <= 1}: never inside it, at most one ulp outside
    rng = np.random.default_rng(5)
    boxes = _random_boxes(rng, 20_000)
    xlo, xhi, ylo, yhi, keep = clip_triangle(gap)(*boxes)
    g = Fraction(gap)
    kept = 0
    for x0, x1, y0, y1, c0, c1, c2, c3, k in zip(*boxes, xlo, xhi, ylo, yhi, keep):
        ex_ylo = max(Fraction(y0), Fraction(0))
        ex_xhi = min(Fraction(x1), Fraction(1))
        ex_xlo = max(Fraction(x0), ex_ylo + g)
        ex_yhi = min(Fraction(y1), ex_xhi - g)
        nonempty = ex_xlo <= ex_xhi and ex_ylo <= ex_yhi
        assert k or not nonempty
        if not nonempty:
            continue
        kept += 1
        assert (Fraction(c2), Fraction(c1)) == (ex_ylo, ex_xhi)
        assert Fraction(c0) <= ex_xlo <= Fraction(c0) + Fraction(math.ulp(c0))
        assert Fraction(c3) - Fraction(math.ulp(c3)) <= ex_yhi <= Fraction(c3)
    assert kept > 10_000


def test_band_clip_keeps_every_box_meeting_the_band():
    eps = 1e-4
    rng = np.random.default_rng(5)
    tlo = rng.uniform(2e-4, 0.5, 20_000)
    rlo = eps / tlo * rng.uniform(0.999, 1.001, tlo.size)
    keep = clip_band(eps, 0.5)(tlo, tlo + 1e-3, rlo, rlo + 1e-3)[4]
    exact = np.array([Fraction(t) * Fraction(r) <= Fraction(eps)
                      for t, r in zip(tlo, rlo)])
    assert keep[exact].all()
    assert not keep[tlo * rlo > eps * (1 + 1e-12)].any()


# ----------------------------------------------------------------------
# Chain audits
# ----------------------------------------------------------------------

POSITIVE_TRIPLES = [(2, 1, -1), (3, 1, -1), (3, 2, -1)]
DEGENERATE_TRIPLES = [(1, 0, -1), (2, 0, -1)]


def test_case_classification_trichotomy(rng):
    al = AlphaTriple(2, 1, -1)
    seen = set()
    for a1, a2 in grid_points(al, 12):
        d = derive_constants(al, ModuliPoint(a1, a2, Branch.MINUS))
        seen.add(classify_case(al, d))
    assert seen <= {1, 2, 3} and len(seen) >= 2


@pytest.mark.parametrize("weights", POSITIVE_TRIPLES)
def test_case_chain_holds_everywhere(weights):
    al = AlphaTriple(*weights)
    for a1, a2 in grid_points(al, 8):
        for br in (Branch.MINUS, Branch.PLUS):
            rep = case_chain_check(al, a1, a2, br)
            assert rep.all_hold, (
                f"{weights} {br.value} ({a1:.3f}, {a2:.3f}): "
                f"{[s.name for s in rep.failing]}")


def _case_3_points():
    """(t = a2/a1, the case-3 step's value) at each case-3 point of the sweep."""
    for weights in POSITIVE_TRIPLES:
        al = AlphaTriple(*weights)
        for a1, a2 in grid_points(al, 8):
            for br in (Branch.MINUS, Branch.PLUS):
                rep = case_chain_check(al, a1, a2, br)
                if rep.case_label == "case-3":
                    yield a2 / a1, next(s.lhs for s in rep.steps if "(63/8)" in s.name)


def test_final_steps_hold_in_exact_arithmetic():
    # each final step f > 4/(3 sqrt 3), f = n/sqrt(q) with n, q > 0 for
    # x >= 0, squares to 27 n^2 - 16 q > 0, a polynomial P with integer
    # coefficients: a quadratic with a negative discriminant, or (case 3) a
    # cubic with P(0) > 0 whose derivative has one, so P > 0 on x >= 0
    def agree(lhs, rhs, degree):
        # polynomials of degree <= n that agree at n + 1 points are equal
        return all(lhs(Fraction(k)) == rhs(Fraction(k)) for k in range(degree + 1))

    def disc(a, b, c):
        return b * b - 4 * a * c

    case_3_q = lambda t: 1 + Fraction(11, 4) * t + Fraction(63, 8) * t * t
    case_3 = lambda t: 27 * t ** 3 - 45 * t ** 2 + 37 * t + 11
    assert agree(lambda t: 27 * (1 + t) ** 3 - 16 * case_3_q(t), case_3, 3)
    assert disc(81, -90, 37) == -3888 and case_3(0) == 11
    scalar_1 = lambda x: 2187 * x * x - 14602 * x + 26411
    assert agree(lambda x: 2401 * (27 * (1 + Fraction(9, 49) * x) ** 2 - 16 * (1 + x)),
                 scalar_1, 2)
    assert disc(2187, -14602, 26411) == -17_825_024
    scalar_2 = lambda x: 27 * x * x - 120 * x + 208
    assert agree(lambda x: 27 * (4 + x) ** 2 - 16 * (14 + 21 * x), scalar_2, 2)
    assert disc(27, -120, 208) == -8064

    # the quadratics that `verify` checks are these: each is the scale
    # times 27 n^2 - 16 q for the bound's own numerator n and radicand q
    own = {"scalar-1": (2401, lambda x: 1 + Fraction(9, 49) * x, lambda x: 1 + x,
                        scalar_bound_1, -17_825_024),
           "scalar-2": (1, lambda x: 4 + x, lambda x: 14 + 21 * x,
                        scalar_bound_2, -8064)}
    assert sorted(SCALAR_QUADRATICS) == sorted(own)
    for target, (a, b, c) in SCALAR_QUADRATICS.items():
        scale, n, q, bound, want = own[target]
        assert agree(lambda x: scale * (27 * n(x) ** 2 - 16 * q(x)),
                     lambda x: a * x * x + b * x + c, 2)
        assert a > 0 and disc(a, b, c) == want
        assert all(type(v) is int for v in (a, b, c))
        # and n / sqrt(q) is the bound the certificate encloses
        assert all(bound(x) == pytest.approx(n(x) / math.sqrt(q(x)), rel=1e-14)
                   for x in (0.0, 0.5, 7.0, 100.0, 1e6))

    # and the code evaluates these f: 27 f^2 - 16 = P/q up to rounding
    def close(f, exact):
        return abs(27 * f * f - 16 - float(exact)) <= 1e-12 * 27 * f * f

    xs = [0.0, 1e-3, 0.5, 1.0, 3.3, 7.0, 42.0, 100.0]
    assert all(close(scalar_bound_1(x), scalar_1(Fraction(x)) / (2401 * (1 + Fraction(x))))
               for x in xs)
    assert all(close(scalar_bound_2(x), scalar_2(Fraction(x)) / (14 + 21 * Fraction(x)))
               for x in xs)
    points = list(_case_3_points())
    assert len(points) >= 20
    assert all(close(val, case_3(Fraction(t)) / case_3_q(Fraction(t))) for t, val in points)


def test_case_chain_rejects_degenerate_alpha():
    with pytest.raises(ValueError):
        case_chain_check(AlphaTriple(1, 0, -1), 0.9, 0.4, Branch.MINUS)
    # alpha3 = 0 makes p = -alpha1 alpha3 vanish: refused, not divided by
    with pytest.raises(ValueError, match="requires normalized alpha with alpha2 = 0"):
        degenerate_c2_bounds_check(AlphaTriple(1, 0, 0), 0.5, 0.2, Branch.MINUS)
    # the alpha2 = 0 audit takes only points of the open triangle
    for a1, a2 in [(0.5, 0.5), (0.5, 0.6), (1.2, 0.5), (0.5, 0.0)]:
        with pytest.raises(ValueError):
            degenerate_c2_bounds_check(AlphaTriple(1, 0, -1), a1, a2, Branch.MINUS)


@pytest.mark.parametrize("weights", DEGENERATE_TRIPLES)
def test_degenerate_chain_sound_steps_hold(weights):
    """Every step except the three documented sign-slip displays holds at
    every sampled point, and the enclosing conclusions always hold."""
    al = AlphaTriple(*weights)
    for a1, a2 in grid_points(al, 8):
        for br in (Branch.MINUS, Branch.PLUS):
            rep = degenerate_c2_bounds_check(al, a1, a2, br)
            for step in rep.steps:
                if step.name in SIGN_SLIP_STEPS:
                    continue
                assert step.holds, (
                    f"{weights} {br.value} ({a1:.3f}, {a2:.3f}): {step.name}")


def test_degenerate_chain_gap_is_the_predicted_sign_slip():
    """The documented failing display: dividing the negative slope-bound
    numerator by the upper end of the c2 sandwich.  At the constructed
    point the slope vanishes while the displayed Willmore bound is
    positive, so the gap is real; the enclosing E >= pi^2 B1 holds."""
    al = AlphaTriple(1, 0, -1)
    u = 1.2
    dd = math.sqrt(u * (4.0 - 3.0 * u))  # locus where the slope crosses zero
    x, y = (u + dd) / 2.0, (u - dd) / 2.0
    rep = degenerate_c2_bounds_check(al, x, y, Branch.MINUS)
    d = derive_constants(al, ModuliPoint(x, y, Branch.MINUS))
    assert abs(d.slope_x) < 1e-9  # the slope really vanishes here
    failing = {s.name for s in rep.failing}
    assert "W >= 2 pi^2 sqrt(p) beta^2 s/sqrt(x+xy/s)" in failing
    assert ("((a1+a2) p xy/(2s) - a1 a2)/c2 >= sqrt(p) beta sqrt(s)"
            in failing)
    held = {s.name: s.holds for s in rep.steps}
    assert held["E >= pi^2 B1 (using p >= 1)"]
    assert held["E > E_Cl"]
    assert held["A >= pi^2 sqrt(p)(x+y)/sqrt(x+xy/s)"]


def test_degenerate_gap_only_when_bracket_negative():
    """Where x + y >= 4/3 (nonnegative bracket) the displayed chain is
    sound and must hold entirely."""
    al = AlphaTriple(1, 0, -1)
    for (x, y) in [(0.9, 0.7), (0.95, 0.55), (0.85, 0.62)]:
        assert x + y >= 4.0 / 3.0
        rep = degenerate_c2_bounds_check(al, x, y, Branch.MINUS)
        assert rep.all_hold, [s.name for s in rep.failing]


def test_degenerate_plus_branch_chain_holds(rng):
    al = AlphaTriple(2, 0, -1)
    for a1, a2 in grid_points(al, 6):
        rep = degenerate_c2_bounds_check(al, a1, a2, Branch.PLUS)
        assert rep.all_hold, [s.name for s in rep.failing]
