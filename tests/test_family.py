import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.integrate import quad

from cp2tori.errors import (DegenerateParameters, InfeasibleParameters,
                            SingularIntegrand)
from cp2tori.family import (AlphaTriple, Branch, ModuliPoint, _p_discriminant,
                            _quartic_p_r,
                            conformal_factor, derive_constants, derive_grid,
                            feasibility_check, g_phases, lemma3_box, lift,
                            lift_data, q_cubic, quartic_coefficients, solve_c2)
from conftest import CANONICAL_TRIPLES, grid_points, quad_g_phases


def test_alpha_derived_quantities():
    al = AlphaTriple(2, 1, -1)
    assert (al.b, al.c, al.c1, al.p) == (-2, -1, 2, 2)
    assert al.is_normalized and al.weights_coprime


def test_alpha_normalized_constructor():
    al, rec = AlphaTriple.normalized((-2, 1, -1))  # sign flip + sort
    assert al.weights == (2, 1, -1) and rec["flipped_sign"] in (True, False)
    al2, _ = AlphaTriple.normalized((1, -1, 2))
    assert al2.weights == (2, 1, -1)
    with pytest.raises(ValueError):
        AlphaTriple.normalized((1, 2, 3))  # all one sign
    with pytest.raises(ValueError):
        AlphaTriple.normalized((2, 0, -2))  # gcd(4, 2) != 1


@pytest.mark.parametrize("weights", [(2.7, 1, -1), ("2", 1, -1), (2, 1, -0.5)])
def test_normalized_rejects_what_the_constructor_rejects(weights):
    # int() would truncate 2.7 and parse "2"; the constructor refuses both
    with pytest.raises(ValueError, match="weights must be integers"):
        AlphaTriple(*weights)
    with pytest.raises(ValueError, match="weights must be integers"):
        AlphaTriple.normalized(weights)
    assert AlphaTriple.normalized((2.0, 1, -1))[0].weights == (2, 1, -1)


def test_normalized_rule_on_every_small_triple():
    # every triple of [-7, 7]^3: the result is the descending sort of the
    # triple or of its negation, whichever is in strict normal form; both
    # are only when alpha2 = 0, and then alpha1 + alpha3 >= 0 decides
    counts = {"normal": 0, "both": 0, "no normal form": 0, "not coprime": 0}
    for w in itertools.product(range(-7, 8), repeat=3):
        kept = AlphaTriple(*sorted(w, reverse=True))
        flipped = AlphaTriple(*sorted((-v for v in w), reverse=True))
        forms = [f for f in (kept, flipped) if f.is_normalized]
        if not forms or not forms[0].weights_coprime:
            # the difference weights of the two forms have the same gcd
            error = "not coprime" if forms else "no normal form"
            with pytest.raises(ValueError, match=error):
                AlphaTriple.normalized(w)
            counts[error] += 1
            continue
        al, rec = AlphaTriple.normalized(w)
        assert al.is_normalized and al.weights_coprime
        assert rec == {"flipped_sign": al != kept, "sorted_descending": True}
        assert al == (flipped if rec["flipped_sign"] else kept)
        if len(forms) == 2:
            assert al.alpha2 == 0 and al.alpha1 + al.alpha3 >= 0
            counts["both"] += 1
        counts["normal"] += 1
    assert sum(counts.values()) - counts["both"] == 15 ** 3
    assert min(counts.values()) > 0
    # a tie keeps the triple unflipped
    assert AlphaTriple.normalized((-1, 0, 1)) == (AlphaTriple(1, 0, -1), {
        "flipped_sign": False, "sorted_descending": True})


@pytest.mark.parametrize("weights, expected, flipped", [
    ((-1, 2, 0), (2, 0, -1), False),
    ((1, -2, 0), (2, 0, -1), True),
    ((-3, -1, 2), (3, 1, -2), True),
    ((-3, 1, 1), None, None),  # (1, 1, -3) repeats its lead, (3, -1, -1) has alpha2 < 0
    ((1, 1, -2), None, None),  # (1, 1, -2) and (2, -1, -1) likewise
])
def test_normalized_examples(weights, expected, flipped):
    if expected is None:
        with pytest.raises(ValueError, match="no normal form"):
            AlphaTriple.normalized(weights)
        return
    al, rec = AlphaTriple.normalized(weights)
    assert al.weights == expected and rec["flipped_sign"] is flipped


def test_lemma3_box_values():
    assert lemma3_box(AlphaTriple(2, 1, -1)) == (1.0, 2.0)
    assert lemma3_box(AlphaTriple(1, 0, -1)) == (0.0, 1.0)
    assert lemma3_box(AlphaTriple(3, 2, -1)) == (2.0, 3.0)
    with pytest.raises(ValueError):
        lemma3_box(AlphaTriple(1, 2, -1))


def test_feasibility_examples():
    al = AlphaTriple(2, 1, -1)
    assert feasibility_check(al, 1.8, 1.2).feasible
    assert not feasibility_check(al, 3.0, 2.5).feasible


def test_feasibility_same_sign_always_false(rng):
    for al in (AlphaTriple(1, 2, 3), AlphaTriple(-1, -2, -4)):
        for _ in range(200):
            a2, a1 = np.sort(rng.uniform(0.01, 10.0, 2))
            if a1 == a2:
                continue
            assert not feasibility_check(al, a1, a2).feasible


def test_feasibility_equivalent_to_box(rng):
    # Lemma 3: feasibility iff (a2, a1) inside [-alpha2 alpha3, -alpha1 alpha3]
    triples = [AlphaTriple(*t) for t in CANONICAL_TRIPLES]
    for _ in range(2000):
        al = triples[rng.integers(len(triples))]
        lo, hi = lemma3_box(al)
        a2, a1 = np.sort(rng.uniform(max(lo - 1.0, 0.01), hi + 1.0, 2))
        if a1 <= a2:
            continue
        expected = lo <= a2 and a1 <= hi
        assert feasibility_check(al, a1, a2).feasible == expected


def test_feasibility_is_decided_exactly_on_the_box_edges():
    # on the edges a2 = -alpha2 alpha3 and a1 = -alpha1 alpha3 one Q is 0,
    # so the exact discriminant is 0 (a double root); the float one is a
    # rounding error of either sign (-2.6e-16 at the first point below)
    al = AlphaTriple(2, 1, -1)
    assert feasibility_check(al, 1.0344827586206897, 1.0)
    for weights in CANONICAL_TRIPLES:
        al = AlphaTriple(*weights)
        lo, hi = lemma3_box(al)
        inner = np.linspace(lo, hi, 30)[1:-1].tolist()
        edges = [(hi, a2) for a2 in inner] + [(a1, lo) for a1 in inner if lo > 0]
        for a1, a2 in edges:
            assert feasibility_check(al, a1, a2), (weights, a1, a2)
            roots = solve_c2(al, ModuliPoint(a1, a2))
            assert roots.minus == roots.plus > 0, (weights, a1, a2)
        # one ulp outside the box
        above = math.nextafter(hi, math.inf)
        below = math.nextafter(lo, 0.0)
        outside = [(above, a2) for a2 in inner] + [(a1, below) for a1 in inner if lo > 0]
        for a1, a2 in outside:
            assert not feasibility_check(al, a1, a2), (weights, a1, a2)


def test_quartic_p_r_satisfy_the_vieta_identities(rng):
    # P = -(a1^2 Q(a2) + a2^2 Q(a1)) and P^2 - (a1-a2)^2 R^2 =
    # 4 a1^2 a2^2 Q(a1) Q(a2) exactly, so Q(a1), Q(a2) >= 0 imply the
    # quartic's P <= 0 and disc >= 0.  At moduli k/16 below 22 every float
    # operation of P and R is exact, so the code's P and R are the exact ones
    for weights in CANONICAL_TRIPLES + [(7, 1, -3), (5, 3, -2), (5, 0, -2)]:
        al = AlphaTriple(*weights)
        for _ in range(16):
            k2, k1 = sorted(rng.choice(np.arange(1, 16 * 22), 2, replace=False).tolist())
            a1, a2 = Fraction(k1, 16), Fraction(k2, 16)
            P, R = (Fraction(v) for v in _quartic_p_r(al, float(a1), float(a2)))
            Q1, Q2 = q_cubic(a1, al), q_cubic(a2, al)
            assert P == -(a1 * a1 * Q2 + a2 * a2 * Q1), (weights, a1, a2)
            assert P * P - (a1 - a2) ** 2 * R * R == 4 * a1 * a1 * a2 * a2 * Q1 * Q2


def test_degenerate_triples_have_empty_feasible_set(rng):
    # alpha3 = 0 or alpha1 = alpha2 kill feasibility for a1 > a2
    for al in (AlphaTriple(2, 1, 0), AlphaTriple(1, 1, -1), AlphaTriple(3, 3, -2)):
        for _ in range(300):
            a2, a1 = np.sort(rng.uniform(0.01, 5.0, 2))
            if a1 == a2:
                continue
            assert not feasibility_check(al, a1, a2).feasible


def test_q_cubic_values():
    al = AlphaTriple(2, 1, -1)
    assert q_cubic(-al.alpha1 * al.alpha2, al) == 0.0
    assert q_cubic(1.2, al) == pytest.approx(0.512, abs=1e-15)
    assert q_cubic(1.8, al) == pytest.approx(0.608, abs=1e-15)


def test_solve_c2_frozen_values():
    al = AlphaTriple(2, 1, -1)
    roots = solve_c2(al, ModuliPoint(1.8, 1.2))
    assert roots.minus == pytest.approx(0.5871381632303639, abs=1e-12)
    assert roots.plus == pytest.approx(3.7061123535692317, abs=1e-12)
    assert abs(roots.minus - 0.5871) < 1e-4 and abs(roots.plus - 3.7061) < 1e-4


def test_solve_c2_boundary_coincidence():
    # a1 = -alpha1 alpha3 exactly: Q(a1) = 0, branches coincide
    al = AlphaTriple(2, 1, -1)
    roots = solve_c2(al, ModuliPoint(2.0, 1.5))
    assert roots.minus == pytest.approx(roots.plus, rel=1e-12)
    expected = 2.0 * math.sqrt(q_cubic(1.5, al)) / 0.5
    assert roots.plus == pytest.approx(expected, rel=1e-12)


def test_solve_c2_infeasible_raises():
    with pytest.raises(InfeasibleParameters):
        solve_c2(AlphaTriple(2, 1, -1), ModuliPoint(3.0, 2.5))


def test_quartic_beyond_the_float_range_is_nan():
    # a float product in P overflows above a1 of about 5e102: P and R, and
    # so the discriminant and the quartic's q2 and q0, are NaN there, which
    # no feasibility test passes, and nothing raises
    al = AlphaTriple(2, 1, -1)
    q4, q2, q0 = quartic_coefficients(al, 1e300, 1.2)
    assert q4 == math.inf and math.isnan(q2) and math.isnan(q0)
    res = feasibility_check(al, 1e300, 1.2)
    assert not res and math.isnan(res.p_value) and math.isnan(res.discriminant)
    # q4 is (a1 - a2)^2 rounded once, as a grid squares it; a float ** 2
    # may round it differently (libm pow, off by one ulp here)
    a1, a2 = 1.567948, 0.957085
    assert quartic_coefficients(al, a1, a2)[0] == ((np.array([a1]) - a2) ** 2)[0]
    assert quartic_coefficients(al, a1, a2)[0] == (a1 - a2) * (a1 - a2)


def test_a_point_and_a_grid_give_the_same_p_and_discriminant(rng):
    # P and the discriminant are written in products, which round alike on
    # floats and on numpy arrays, so feasibility_check at a point and the
    # scan's mask on a grid cannot disagree there
    for weights in CANONICAL_TRIPLES:
        al = AlphaTriple(*weights)
        hi = lemma3_box(al)[1]
        a2, a1 = np.sort(rng.uniform(0.0, 1.5 * hi, (2, 2000)), axis=0)
        keep = (a1 > a2) & (a2 > 0)
        a1, a2 = a1[keep], a2[keep]
        P, disc = _p_discriminant(al, a1, a2)
        for i in range(a1.size):
            res = feasibility_check(al, float(a1[i]), float(a2[i]))
            assert (res.p_value, res.discriminant) == (P[i], disc[i]), (weights, a1[i], a2[i])


def test_quartic_residual_and_companion_oracle(rng):
    triples = [AlphaTriple(*t) for t in CANONICAL_TRIPLES]
    for _ in range(300):
        al = triples[rng.integers(len(triples))]
        lo, hi = lemma3_box(al)
        pad = 0.02 * (hi - lo)
        a2, a1 = np.sort(rng.uniform(lo + pad, hi - pad, 2))
        if a1 - a2 < pad:
            continue
        roots = solve_c2(al, ModuliPoint(a1, a2))
        q4, q2, q0 = quartic_coefficients(al, a1, a2)
        for r in (roots.minus, roots.plus):
            res = q4 * r ** 4 + q2 * r ** 2 + q0
            assert abs(res) <= 1e-9 * max(abs(q4 * r ** 4), abs(q0), 1.0)
        # companion-matrix oracle on the expanded quartic
        numeric = np.roots([q4, 0.0, q2, 0.0, q0])
        pos = sorted(r.real for r in numeric if abs(r.imag) < 1e-9 and r.real > 0)
        assert len(pos) == 2
        assert pos[0] == pytest.approx(roots.minus, abs=1e-9 * max(1, pos[0]))
        assert pos[1] == pytest.approx(roots.plus, abs=1e-9 * max(1, pos[1]))


def test_derive_constants_invariants(sample_derived):
    d = sample_derived
    assert d.a3 > 0
    assert 0 < d.modulus.k < 1
    assert d.period > math.pi / math.sqrt(d.a1 + d.a3)
    assert d.slope_y == d.alpha.b


def test_conformal_factor_endpoints_and_period(sample_derived):
    d = sample_derived
    assert conformal_factor(0.0, d) == pytest.approx(d.a1, abs=1e-12)
    assert conformal_factor(d.period / 2, d) == pytest.approx(d.a2, abs=1e-10)
    assert conformal_factor(d.period, d) == pytest.approx(d.a1, abs=1e-10)
    xs = np.linspace(0, d.period, 64)
    cf = conformal_factor(xs, d)
    assert np.all(cf <= d.a1 + 1e-12) and np.all(cf >= d.a2 - 1e-12)
    assert np.allclose(conformal_factor(xs + d.period, d), cf, atol=1e-10)


def test_conformal_factor_does_no_phase_work(sample_derived, monkeypatch):
    # 2 e^v is sn alone: no Carlson R_J, and no phase-denominator check,
    # so it is defined where the phase integrals are singular
    from cp2tori import family

    def refused(*args):
        raise AssertionError("conformal_factor called _carlson_rj")

    monkeypatch.setattr(family, "_carlson_rj", refused)
    d = derive_constants(AlphaTriple(2, 1, -1), ModuliPoint(1.8, 1.0 + 1e-12, Branch.MINUS))
    assert conformal_factor(0.0, d) == pytest.approx(d.a1, abs=1e-12)
    cf = conformal_factor(np.linspace(0.0, d.period, 9), d)
    assert np.all(cf <= d.a1 + 1e-12) and np.all(cf >= d.a2 - 1e-12)
    with pytest.raises(AssertionError, match="_carlson_rj"):
        lift_data(0.5, sample_derived)  # the patch is where the lift reads it


def test_conformal_factor_prime_fd(sample_derived):
    d = sample_derived
    h = 1e-6
    for x in np.linspace(0.05, d.period * 0.95, 17):
        fd = (conformal_factor(x + h, d) - conformal_factor(x - h, d)) / (2 * h)
        assert lift_data(x, d).cf_prime == pytest.approx(fd, abs=5e-9)


def _lagrange_basis_identity_oracle(al):
    """Independent oracle: the quadratic Lagrange basis at the weight nodes
    reproduces 1, t, t^2 exactly (coefficient comparison)."""
    nodes = np.array(al.weights, dtype=float)
    total = {0: np.zeros(3), 1: np.zeros(3), 2: np.zeros(3)}
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        denom = (nodes[i] - nodes[j]) * (nodes[i] - nodes[k])
        li = P.polyfromroots([nodes[j], nodes[k]]) / denom  # coeffs of ell_i
        total[0] += li
        total[1] += nodes[i] * li
        total[2] += nodes[i] ** 2 * li
    assert np.allclose(total[0], [1, 0, 0], atol=1e-12)
    assert np.allclose(total[1], [0, 1, 0], atol=1e-12)
    assert np.allclose(total[2], [0, 0, 1], atol=1e-12)


@pytest.mark.parametrize("weights", CANONICAL_TRIPLES)
def test_f_coefficient_identities(weights, rng):
    al = AlphaTriple(*weights)
    _lagrange_basis_identity_oracle(al)
    lo, hi = lemma3_box(al)
    pad = 0.05 * (hi - lo)
    d = derive_constants(al, ModuliPoint(hi - pad, lo + pad, Branch.MINUS))
    alphas = np.array(al.weights, dtype=float)
    for x in rng.uniform(0, d.period, 20):
        F = lift_data(x, d).F
        cf = conformal_factor(x, d)
        assert np.all(F >= 0)
        assert abs(F @ F - 1.0) <= 1e-12
        assert abs(alphas @ (F * F)) <= 1e-12
        assert abs(alphas ** 2 @ (F * F) - cf) <= 1e-12 * max(1.0, cf)


def test_g_phase_zero_cases(sample_derived):
    assert np.all(g_phases(0.0, sample_derived) == 0.0)


def test_g_phase_zero_weight_limit(degenerate_derived):
    # alpha_i = 0 forces c1 = 0, so the raw integrand is 0/0; the family
    # limit divides out alpha_i: integrand = (c2 - a e^v)/(2 e^v + a1 a3).
    # The naive "prefactor alpha_i makes G_i vanish" reading would break
    # horizontality and conformality of the lift (README, "Zero weights").
    d = degenerate_derived
    off = float(d.alpha.alpha1 * d.alpha.alpha3)
    val, _ = quad(lambda z: (d.c2 - 0.5 * d.slope_x * conformal_factor(z, d))
                  / (conformal_factor(z, d) + off),
                  0.0, 0.7, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert g_phases(0.7, degenerate_derived)[1] == pytest.approx(val, abs=1e-10)
    assert abs(val) > 1e-3  # genuinely nonzero


def test_g_phase_against_high_precision_oracle(sample_derived):
    import mpmath
    d = sample_derived
    mpmath.mp.dps = 30

    def integrand(i):
        ai = d.alpha.weights[i]
        def f(z):
            cf = conformal_factor(float(z), d)
            return ai * (d.c2 - 0.5 * d.slope_x * cf) / (ai * cf - d.alpha.c1)
        return f

    for i in range(3):
        for x in (0.3, 1.1, d.period):
            ours = g_phases(x, d)[i]
            ref = float(mpmath.quad(integrand(i), [0, x / 2, x]))
            assert ours == pytest.approx(ref, abs=1e-9)


def test_g_phases_closed_form_matches_quadrature():
    # feasible_grid(alpha, 6) of every canonical triple, alpha2 = 0
    # included, both branches, at x from 0 to 3.5 T in shuffled order
    rng = np.random.default_rng(6)
    fractions = rng.permutation([0.0, 0.13, 0.5, 0.77, 1.0, 1.6, 2.45, 3.5])
    worst, n = 0.0, 0
    for weights in CANONICAL_TRIPLES:
        al = AlphaTriple(*weights)
        for a1, a2 in grid_points(al, 6):
            for br in (Branch.MINUS, Branch.PLUS):
                d = derive_constants(al, ModuliPoint(a1, a2, br))
                xs = fractions * d.period
                closed = g_phases(xs, d)
                assert closed.shape == (3, xs.size)
                for j, x in enumerate(xs):
                    ref = quad_g_phases(x, d)
                    worst = max(worst, np.max(np.abs(closed[:, j] - ref)
                                              / np.maximum(1.0, np.abs(ref))))
                n += 1
    assert n == 150
    assert worst <= 1e-12
    assert g_phases(0.5, d).shape == (3,)


def test_g_phase_singular_guard():
    # boundary a2 = -alpha2 alpha3 puts a zero of the i=0 denominator in range
    al = AlphaTriple(2, 1, -1)
    d = derive_constants(al, ModuliPoint(1.8, 1.0 + 1e-12, Branch.MINUS))
    with pytest.raises(SingularIntegrand):
        g_phases(0.5, d)


@pytest.mark.parametrize("a1, a2, message", [
    (1.8, 1.0 + 1e-12, "(i = 1) ranges over [1e-12, 0.8]"),
    (2.0 - 1e-12, 1.5, "(i = 2) ranges over [-0.5, -1e-12]"),
    (2.0 - 1e-9, 1.0 + 1e-9, "(i = 1) ranges over [1e-09, 1]"),  # i = 2 too
])
def test_g_phase_singular_guard_names_the_first_singular_offset(a1, a2, message):
    # (2, 1, -1) has the offsets alpha_j alpha_k = (-1, -2, 2), so
    # 2 e^v + o nears zero at the a2 = 1 edge for i = 1 and at the a1 = 2
    # edge for i = 2 (near the corner, both: the first is named); a
    # SingularIntegrand is a DegenerateParameters (exit 4)
    d = derive_constants(AlphaTriple(2, 1, -1), ModuliPoint(a1, a2, Branch.MINUS))
    with pytest.raises(DegenerateParameters) as info:
        g_phases(np.linspace(0.0, d.period, 5), d)
    assert type(info.value) is SingularIntegrand
    assert str(info.value) == (f"phase denominator 2 e^v + alpha_j alpha_k {message}; "
                               "too close to zero for the phase integral")


def test_derive_grid_checks_its_points_and_keeps_the_branch_order():
    al = AlphaTriple(2, 1, -1)
    with pytest.raises(ValueError, match=r"^need a1 > a2 > 0, got a1=1\.2, a2=1\.5$"):
        derive_grid(al, np.array([1.8, 1.2, 1.0]), np.array([1.2, 1.5, 1.1]),
                    np.array(["minus"] * 3))
    # a name other than "minus" or "plus" is refused, even at an infeasible point
    for names in (["minus", "MINUS", "plus"], ["plus", "plus", "up"]):
        with pytest.raises(ValueError, match=r"^'(MINUS|up)' is not a valid Branch$"):
            derive_grid(al, np.array([1.8, 1.8, 3.0]), np.array([1.2, 1.2, 2.5]),
                        np.array(names))
    d, rows = derive_grid(al, np.empty(0), np.empty(0), np.array([], dtype=str))
    assert d.c2.shape == d.branch.shape == d.period.shape == rows.shape == (0,)
    # (3, 2.5) is outside the box [1, 2]: its c2 roots are not real, no row
    d, rows = derive_grid(al, np.array([1.8, 1.8, 3.0, 3.0, 1.5, 1.5]),
                          np.array([1.2, 1.2, 2.5, 2.5, 1.1, 1.1]),
                          np.array(["plus", "minus"] * 3))
    assert d.branch.tolist() == ["plus", "minus", "plus", "minus"]
    assert d.a1.tolist() == [1.8, 1.8, 1.5, 1.5]
    assert rows.tolist() == [0, 1, 4, 5]
    for i in range(4):
        ref = derive_constants(al, ModuliPoint(d.a1[i], d.a2[i], Branch(d.branch[i])))
        assert (d.c2[i], d.a3[i], d.slope_x[i], d.period[i], d.K[i], d.D[i]) == (
            ref.c2, ref.a3, ref.slope_x, ref.period, ref.K, ref.D)


def test_lift_unit_norm(sample_derived, rng):
    d = sample_derived
    for _ in range(100):
        x = rng.uniform(0, d.period)
        y = rng.uniform(0, 2 * math.pi)
        v = lift(x, y, d)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10


def test_lift_y_periodicity(sample_derived):
    d = sample_derived
    u = lift(0.4, 0.9, d)
    w = lift(0.4, 0.9 + 2 * math.pi, d)
    # same projective point: phases shift by 2 pi alpha_i
    assert abs(abs(np.vdot(u, w)) - 1.0) <= 1e-12


def test_lift_real_at_origin(sample_derived):
    v = lift(0.0, 0.0, sample_derived)
    assert np.allclose(v.imag, 0.0, atol=1e-14)
    assert np.allclose(v.real, lift_data(0.0, sample_derived).F, atol=1e-14)


def test_degenerate_c2_error():
    # the minus root vanishes where Q(a1)/a1^2 = Q(a2)/a2^2 with a1 != a2;
    # there the angle slope a = (...)/c2 is undefined and must be rejected
    al = AlphaTriple(2, 1, -1)
    a1 = 1.5689744598438513  # root of Q(t)/t^2 = Q(1.2)/1.2^2 in (1.5, 1.9)
    assert solve_c2(al, ModuliPoint(a1, 1.2)).minus == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegenerateParameters):
        derive_constants(al, ModuliPoint(a1, 1.2, Branch.MINUS))


def test_c2_vanishes_below_a1_scaled_threshold():
    # c2 <= 1e-12 max(1, a1^2), the same test for one point and, as
    # arrays, for the scan's grid
    from cp2tori.family import _c2_vanishes
    cases = [(3e-12, 2.0, True), (4e-12, 2.0, True), (5e-12, 2.0, False),
             (1e-12, 0.5, True), (1.1e-12, 0.5, False), (0.0, 0.5, True)]
    assert [bool(_c2_vanishes(c2, a1)) for c2, a1, _ in cases] == [v for *_, v in cases]
    c2, a1, expected = (np.array(v) for v in zip(*cases))
    assert np.array_equal(_c2_vanishes(c2, a1), expected)
