"""Verification operations: trivial collapses, frozen brute-force values,
domain errors, and the cross-rule consistency web."""

import math
import re

import pytest
import scipy.special as sc

import besselsums.rules as rules_mod
from besselsums import backend, series
from besselsums import (
    DEFAULT_TOLERANCES,
    RuleId,
    Tolerances,
    Verdict,
    appendix_derivative_check,
    rule_ascending_gen,
    rule_bessel_laguerre,
    rule_descending_gen,
    rule_fractional_order,
    rule_graf,
    rule_graf_phase,
    rule_laguerre_hermite,
    rule_multiple_order,
    rule_neumann_ext,
    sum_bilateral,
    weighted_sum_E,
    weighted_sum_S,
)

# 60-term brute sums over scipy Bessel values, frozen by the oracle script
ASC_LHS_05_3_07 = 0.5133463822745722  # sum t^n/n! J_{n+1/2}(3), t = 0.7
DESC_LHS_15_4_1 = 0.2991002943863918  # sum (-t)^n/n! J_{3/2-n}(4), t = 1
MULT_LHS_2_15_04 = 0.6056066258114438
FRAC_LHS_2_1_03 = 0.9875401176954574
BL_LHS = 0.31229571393357103  # z=2, x=0.5, y=1, t=0.3
LH_LHS = 1.1011883678299197  # x=0.4, y=0.8, z=1, w=-0.3, t=0.25
GRAF_LHS_1_5_1_2 = 0.07901415664859311
GRAF_PHASE_LHS = 0.4325809044912468 + 0.14985042099258794j  # nu=1, th=pi/3, x=3, y=1
NEUMANN_LHS = 0.34866251537308635  # x=1, y=1.5, t=0.8
J0_2 = 0.22389077914123567
J0_SQRT2 = 0.5591341444189799
J1_2 = 0.5767248077568734
E_BRUTE_0_2_15 = 1.12178972438165  # E_0^(2)(1.5)


@pytest.mark.parametrize("t", [0.0, -0.0, 0.1, -0.45, 1.125, 2.5, -7.0])
def test_taylor_weight_is_the_recip_gamma_product_bit_for_bit(t):
    # 1/n! comes from a table up to n = 33 and from recip_gamma past it
    for n in range(41):
        want = math.pow(t, n) * backend.recip_gamma(n + 1.0)
        assert rules_mod._taylor_weight(t, n).hex() == want.hex(), n


class TestAscendingGen:
    def test_t_zero_collapse(self):
        rec = rule_ascending_gen(1.0, 2.0, 0.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.abs_err <= 1e-14
        assert rec.lhs == pytest.approx(float(sc.jv(1, 2.0)), rel=1e-13)

    def test_derived_point(self):
        rec = rule_ascending_gen(0.5, 3.0, 0.7)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(ASC_LHS_05_3_07, rel=1e-10)
        assert rec.rhs == pytest.approx(ASC_LHS_05_3_07, rel=1e-10)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            rule_ascending_gen(2.0, 1.0, 0.6)  # |2t| = 1.2 > x

    def test_certificates_attached(self):
        rec = rule_ascending_gen(0.0, 2.0, 0.3)
        assert rec.lhs_certificate.converged
        assert rec.rhs_certificate.converged


class TestDescendingGen:
    def test_t_zero_collapse(self):
        rec = rule_descending_gen(1.0, 2.0, 0.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.abs_err <= 1e-14

    def test_derived_point(self):
        rec = rule_descending_gen(1.5, 4.0, 1.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(DESC_LHS_15_4_1, rel=1e-10)

    def test_nu_zero_kills_prefactor(self):
        rec = rule_descending_gen(0.0, 2.0, 0.5)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.rhs == pytest.approx(J0_SQRT2, rel=1e-12)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            rule_descending_gen(1.0, 1.0, 0.8)


class TestMultipleOrder:
    def test_m1_matches_ascending_bitwise(self):
        for x, t in ((2.0, 0.45), (5.0, 1.125), (1.0, -0.225)):
            asc = rule_ascending_gen(0.0, x, t)
            mul = rule_multiple_order(1, x, t)
            assert mul.lhs == asc.lhs  # identical term sequence

    def test_derived_point(self):
        rec = rule_multiple_order(2, 1.5, 0.4)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(MULT_LHS_2_15_04, rel=1e-10)

    def test_x_zero(self):
        rec = rule_multiple_order(3, 0.0, 0.9)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(1.0, rel=1e-14)
        assert rec.rhs == pytest.approx(1.0, rel=1e-14)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            rule_multiple_order(0, 1.0, 0.1)


class TestFractionalOrder:
    def test_m1_matches_ascending(self):
        asc = rule_ascending_gen(0.0, 2.0, 0.5)
        fra = rule_fractional_order(1, 2.0, 0.5)
        assert fra.lhs == asc.lhs

    def test_derived_point(self):
        rec = rule_fractional_order(2, 1.0, 0.3)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(FRAC_LHS_2_1_03, rel=1e-9)

    def test_t_zero(self):
        rec = rule_fractional_order(2, 1.0, 0.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(float(sc.jv(0, 1.0)), rel=1e-12)

    def test_x_nonpositive(self):
        with pytest.raises(ValueError):
            rule_fractional_order(2, 0.0, 0.1)


def _order_grid(rule_id, orders):
    cases = [
        {"m": m, "x": x, "t": t}
        for m in orders
        for x in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0)
        for t in (-0.9, -0.5, 0.3, 0.5, 0.9)
    ]
    return rules_mod.run_cases(rule_id, cases, DEFAULT_TOLERANCES)


class TestHermiteStride:
    """A Hermite table of order m takes its next power of v only at every m-th
    degree, so its sum must not stop on fewer than m small terms in a row."""

    def test_fractional_order_grid_has_no_discrepant(self):
        # 893 of these 1,200 were DISCREPANT while h_wright stopped after three
        # small terms at any m; past the tables' degree-170 ceiling a point is
        # INCONCLUSIVE, never judged
        records = _order_grid(RuleId.FRACTIONAL_ORDER, range(1, 41))
        assert len(records) == 1200
        for rec in records:
            assert rec.verdict is not Verdict.DISCREPANT, rec.params
            if rec.verdict is Verdict.INCONCLUSIVE:
                assert rec.note.startswith("evaluation failed: EvaluationDomainError: "), rec.note

    @pytest.mark.parametrize("m, x, t", [(10, 1.0, 0.5), (15, 2.0, -0.5)])
    def test_fractional_right_side_against_mpmath(self, m, x, t):
        mpmath = pytest.importorskip("mpmath")
        # the identity holds, so the left side at 30 digits is the right side's
        # value; n < 60 leaves out terms below 1e-80
        with mpmath.workdps(30):
            exact = mpmath.fsum(
                mpmath.mpf(t) ** n / mpmath.factorial(n) * mpmath.besselj(mpmath.mpf(n) / m, x)
                for n in range(60)
            )
        rhs = rule_fractional_order(m, x, t).rhs
        assert abs(rhs - float(exact)) <= 1e-12

    def test_laguerre_hermite_left_side_waits_out_the_odd_zeros(self, monkeypatch):
        # H_n^(2)(0, w) vanishes at odd n: on a run of one small term the left
        # side stopped at n = 1, its value the first term alone
        default = rule_laguerre_hermite(0.4, 0.8, 0.0, -0.3, 0.25)
        monkeypatch.setattr(series, "CONSECUTIVE_SMALL", 1)
        rec = rule_laguerre_hermite(0.4, 0.8, 0.0, -0.3, 0.25)
        assert rec.lhs_certificate.terms_used > 2
        assert rec.lhs == pytest.approx(default.lhs, rel=1e-12)

    def test_multiple_order_grid_is_verified_tightly(self):
        # the worst rel_err over these orders was 1.1e-9 while h_tricomi
        # stopped after three small terms at any m
        records = _order_grid(RuleId.MULTIPLE_ORDER, range(4, 41))
        assert all(rec.verdict is Verdict.VERIFIED for rec in records)
        assert max(rec.rel_err for rec in records) < 1e-11


class TestBesselLaguerre:
    def test_x_zero_collapse(self):
        rec = rule_bessel_laguerre(1.0, 0.0, 1.0, 0.5)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(1.0, rel=1e-12)  # J_0(sqrt(z^2-2zyt)) = J_0(0)

    def test_derived_point(self):
        rec = rule_bessel_laguerre(2.0, 0.5, 1.0, 0.3)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(BL_LHS, rel=1e-9)
        assert rec.note == ""

    def test_t_zero(self):
        rec = rule_bessel_laguerre(2.0, 0.5, 1.0, 0.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(J0_2, rel=1e-12)

    def test_sign_swapped_closed_form_is_discrepant(self, monkeypatch):
        # a closed form with the printed sign of -xtz/2 swapped no longer fits:
        # the record is DISCREPANT as stated, not rescued by trying the other sign
        true_l_tricomi = rules_mod.l_tricomi

        def swapped(nu, u, v):
            return true_l_tricomi(nu, -u, v)

        monkeypatch.setattr(rules_mod, "l_tricomi", swapped)
        rec = rule_bessel_laguerre(2.0, 0.5, 1.0, 0.3)
        assert rec.verdict is Verdict.DISCREPANT
        assert rec.note == ""
        assert rec.lhs == pytest.approx(BL_LHS, rel=1e-9)


class TestLaguerreHermite:
    def test_t_zero(self):
        rec = rule_laguerre_hermite(0.4, 0.8, 1.0, -0.3, 0.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == 1.0

    def test_x_zero_collapses_to_exponential(self):
        rec = rule_laguerre_hermite(0.0, 1.0, 1.0, 0.5, 0.2)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(math.exp(1.0 * 0.2 + 0.5 * 0.04), rel=1e-12)

    def test_derived_point(self):
        rec = rule_laguerre_hermite(0.4, 0.8, 1.0, -0.3, 0.25)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(LH_LHS, rel=1e-8)

    def test_t_restriction(self):
        with pytest.raises(ValueError):
            rule_laguerre_hermite(0.4, 0.8, 1.0, -0.3, 0.3)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: rule_bessel_laguerre(1.0, math.nan, 0.5, 0.1), "x"),
        (lambda: rule_bessel_laguerre(1.0, 0.5, math.inf, 0.1), "y"),
        (lambda: rule_laguerre_hermite(math.inf, 0.5, 1.0, 0.2, 0.1), "x"),
        (lambda: rule_laguerre_hermite(0.5, 0.5, math.nan, 0.2, 0.1), "z"),
        (lambda: rule_laguerre_hermite(0.5, 0.5, 1.0, -math.inf, 0.1), "w"),
    ],
)
def test_polynomial_rules_name_a_non_finite_argument(call, name):
    # the left sides' weight tables take finite arguments only
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


class TestGrafReal:
    def test_t_one_collapse(self):
        rec = rule_graf(0.0, 5.0, 1.0, 1.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.rhs == pytest.approx(float(sc.jv(0, 4.0)), rel=1e-13)

    def test_derived_point(self):
        rec = rule_graf(1.0, 5.0, 1.0, 2.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(GRAF_LHS_1_5_1_2, rel=1e-10)

    def test_regime_violation(self):
        with pytest.raises(ValueError):
            rule_graf(0.5, 2.0, 3.0, 1.0)  # x > y/t violated

    def test_regime_violation_yt(self):
        with pytest.raises(ValueError):
            rule_graf(0.0, 4.0, 2.0, 2.0)  # x > y*t violated

    @pytest.mark.parametrize(
        "x, y, t, message",
        [
            (5.0, 1.0, 0.0, "requires t > 0, got t=0.0"),
            (5.0, 1.0, -1.0, "requires t > 0, got t=-1.0"),
            # x > y/t and x > y*t hold, but x^2 + y^2 and xy(t + 1/t) both round to 2 + 2^-51
            (1.0 + 2.0**-52, 1.0, 1.0, re.escape("requires x^2 + y^2 - xy(t + 1/t) > 0")),
        ],
        ids=["t=0", "t<0", "rounding"],
    )
    def test_refused_points(self, x, y, t, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            rule_graf(0.0, x, y, t)


class TestGrafPhase:
    def test_theta_zero(self):
        rec = rule_graf_phase(0.0, 2.0, 1.0, 0.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs.real == pytest.approx(float(sc.jv(0, 1.0)), rel=1e-12)
        assert abs(rec.lhs.imag) < 1e-14

    def test_theta_pi(self):
        rec = rule_graf_phase(2.0, 2.0, 1.0, math.pi)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.rhs.real == pytest.approx(float(sc.jv(2, 3.0)), rel=1e-10)
        assert abs(rec.lhs.imag) < 1e-12

    def test_derived_point(self):
        rec = rule_graf_phase(1.0, 3.0, 1.0, math.pi / 3.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs.real == pytest.approx(GRAF_PHASE_LHS.real, abs=1e-9)
        assert rec.lhs.imag == pytest.approx(GRAF_PHASE_LHS.imag, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            rule_graf_phase(0.5, 2.0, 3.0, 1.0)

    def test_matches_real_form_at_t_one(self):
        real = rule_graf(1.0, 5.0, 1.0, 1.0)
        phase = rule_graf_phase(1.0, 5.0, 1.0, 0.0)
        assert abs(phase.lhs - real.lhs) <= 1e-12
        assert abs(phase.rhs - real.rhs) <= 1e-12


class TestNeumannExt:
    def test_x_zero_collapse(self):
        rec = rule_neumann_ext(0.0, 1.0, 0.5)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(float(sc.jv(0, 1.0)), rel=1e-12)
        assert rec.rhs == pytest.approx(float(sc.jv(0, 1.0)), rel=1e-12)

    def test_derived_point(self):
        rec = rule_neumann_ext(1.0, 1.5, 0.8)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(NEUMANN_LHS, rel=1e-8)

    def test_negative_t(self):
        rec = rule_neumann_ext(0.5, 1.0, -0.6)
        assert rec.verdict is Verdict.VERIFIED

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            rule_neumann_ext(1.0, 1.0, 0.0)

    # DISCREPANT at 4.6e-5 and 2.0e-8 while hybrid_k summed its double sum
    # nested, the outer sum stopping on three small terms; one series now
    @pytest.mark.parametrize("x,y,t", [(8.105, 1.393, -0.0633), (3.705, 0.954, -0.0464)])
    def test_right_side_against_mpmath(self, x, y, t):
        mpmath = pytest.importorskip("mpmath")
        # the identity holds, so the left side at 30 digits is the right side's
        # value; |n| <= 40 leaves out terms below 1e-40
        with mpmath.workdps(30):
            exact = mpmath.fsum(
                mpmath.mpf(t) ** n * mpmath.besselj(n, x) * mpmath.besselj(2 * n, y)
                for n in range(-40, 41)
            )
        rec = rule_neumann_ext(x, y, t)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.rhs == pytest.approx(float(exact), rel=1e-13)


class TestPairedSum:
    """A sum over n in Z is term(0) plus the pairs term(k) + term(-k)."""

    # at x = 30 and 40 the J kernel loses its digits (ROADMAP item 2): the sums
    # come out 1 + 4.6e-6 and 1.109, both "converged"
    @pytest.mark.parametrize(
        "x",
        [0.5, 2.0, 5.0, 10.0]
        + [
            pytest.param(x, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2"))
            for x in (30.0, 40.0)
        ],
    )
    def test_neumann_identity(self, x):
        # sum_n J_n(x)^2 = 1, Graf's sum at nu = 0, x = y, unit weight
        ev = rules_mod._graf_sum(lambda n: 1.0, 0.0, x, x, x / 2, x / 2)
        assert ev.tail_bound is not None
        assert abs(ev.value - 1.0) <= ev.tail_bound + 1e-14

    @pytest.mark.parametrize("t", [1.0, -1.0])
    def test_zero_pairs_do_not_stop_a_proved_sum(self, t):
        # J_-n = (-1)^n J_n, so every odd pair is exactly 0 at t = +-1
        rec = rule_neumann_ext(0.8, 1.3, t)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs_certificate.tail_bound is not None

    @pytest.mark.parametrize("given", ["upper", "lower"])
    def test_one_bound_given_stops_on_the_streak(self, given):
        r = 0.4
        tail = lambda n: r ** (n + 1) / (1.0 - r)
        bounds = (tail, None) if given == "upper" else (None, tail)
        ev = sum_bilateral(lambda n: r ** abs(n), bounds)
        assert ev.converged and ev.tail_bound is None


class TestWeightedS:
    def test_m0_is_graf_at_theta_zero(self):
        deriv, closed = weighted_sum_S(0, 0, 3.0, 1.0)
        assert deriv.lhs == pytest.approx(J0_2, rel=1e-12)
        assert deriv.abs_err <= 1e-12
        assert closed.abs_err <= 1e-12

    def test_m1_l0_vanishes(self):
        # n J_n(x) J_n(y) is odd under n -> -n
        deriv, closed = weighted_sum_S(0, 1, 3.0, 1.0)
        assert abs(deriv.lhs) < 1e-14
        assert deriv.rhs == 0.0  # the phi^1 coefficient of (a/d)^0 J_0(d) is exactly 0
        assert abs(closed.rhs) < 1e-14

    @pytest.mark.parametrize("xy", [(3.0, 1.0), (5.0, 2.0)])
    def test_exact_zero_sides_are_verified(self, xy):
        # both sides below tol_abs, but equal: rel_err is 0, so the relative test holds
        for rec in weighted_sum_S(0, 1, *xy):
            assert rec.lhs == rec.rhs == 0.0
            assert rec.verdict is Verdict.VERIFIED

    def test_brute_vs_deriv(self):
        deriv, _ = weighted_sum_S(1, 1, 3.0, 1.0)
        assert deriv.verdict is Verdict.VERIFIED
        assert deriv.abs_err <= 1e-12

    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("xy", [(3.0, 1.0), (5.0, 2.0)])
    def test_cross_consistency_grid(self, l, m, xy):
        deriv, _ = weighted_sum_S(l, m, *xy)
        assert deriv.lhs_certificate.converged
        assert deriv.verdict is Verdict.VERIFIED
        assert deriv.abs_err <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            weighted_sum_S(0, 5, 3.0, 1.0)
        with pytest.raises(ValueError):
            weighted_sum_S(0, 1, 1.0, 2.0)


class TestWeightedE:
    def test_x_zero(self):
        rec = weighted_sum_E(0, 1, 0.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == 0.0
        assert rec.rhs == 0.0

    def test_forced_point(self):
        rec = weighted_sum_E(1, 1, 2.0)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.rhs == pytest.approx(0.5, abs=1e-12)
        assert rec.lhs == pytest.approx(0.5, rel=1e-10)

    def test_derived_point(self):
        rec = weighted_sum_E(0, 2, 1.5)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.lhs == pytest.approx(E_BRUTE_0_2_15, rel=1e-10)

    @pytest.mark.parametrize("l", [12, 15, 20, 30])
    def test_sides_within_tol_abs_need_the_relative_test(self, l):
        # at l >= 15 the left side is 0.0: its sum stops after the n = 0 term
        rec = weighted_sum_E(l, 2, 1.5)
        tol = rules_mod.DEFAULT_TOLERANCES
        assert max(abs(rec.lhs), abs(rec.rhs)) <= tol.tol_abs
        assert rec.rel_err > tol.tol_rel
        assert rec.verdict is Verdict.INCONCLUSIVE

    def test_domain(self):
        with pytest.raises(ValueError):
            weighted_sum_E(0, 0, 1.0)
        with pytest.raises(ValueError):
            weighted_sum_E(0, 11, 1.0)


class TestAppendixDerivative:
    @pytest.mark.parametrize("nu,x", [(1.0, 2.0), (0.5, 1.0), (0.0, 2.0), (2.0, 1.0)])
    def test_derivative_ladder(self, nu, x):
        rec = appendix_derivative_check(nu, x)
        assert rec.verdict is Verdict.VERIFIED
        assert rec.abs_err <= 1e-12

    def test_nu_zero_reduces_to_j1(self):
        rec = appendix_derivative_check(0.0, 2.0)
        assert rec.rhs == pytest.approx(-J1_2 / 2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            appendix_derivative_check(1.0, 0.0)


# Both derivative rules against mpmath at 40 digits.  At l = 0, m = 3 the
# summand of S is odd in n: S is 0, and the route gives exactly 0.0.
WEIGHTED_S_POINTS = [
    *((l, m, x, y) for l in (0, 1, 2, 3, 5) for m in (3, 4) for x, y in ((3, 1), (5, 2), (4, 1.5))),
    (3, 4, 2.01, 2.0), (0, 2, 1.001, 1.0), (5, 4, 3.0, 2.9),  # near the diagonal x = y
    (30, 4, 3.0, 1.0), (30, 2, 5.0, 2.0),
]


@pytest.mark.parametrize("l, m, x, y", WEIGHTED_S_POINTS)
def test_weighted_s_derivative_route_against_mpmath(l, m, x, y):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        term = lambda n: n**m * mpmath.besselj(n + l, x) * mpmath.besselj(n, y)
        exact = float(mpmath.nsum(term, [-mpmath.inf, mpmath.inf]))
    deriv, _ = weighted_sum_S(l, m, float(x), float(y))
    assert deriv.params["route"] == "derivative"
    # at l = 30 both sides are below 1e-24, inside tol_abs: INCONCLUSIVE by design
    assert deriv.verdict is (Verdict.VERIFIED if l < 30 else Verdict.INCONCLUSIVE)
    assert abs(deriv.rhs - exact) <= 1e-11 * abs(exact) + 1e-15


@pytest.mark.parametrize("x", [1e-4, 0.01, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("nu", [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 3.0])
def test_appendix_series_against_mpmath(nu, x):
    # the left side starts past the poles of 1/Gamma(k + nu) at nu = 0, -1, -2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(mpmath.mpf(x) ** (nu - 1) * mpmath.besselj(nu - 1, x))
    rec = appendix_derivative_check(nu, x)
    assert rec.verdict is Verdict.VERIFIED
    assert rec.lhs_certificate.tail_bound is not None
    assert abs(rec.lhs - exact) <= 1e-10 * abs(exact)


class TestConsistencyWeb:
    @pytest.mark.parametrize("x,t", [(2.0, 0.45), (5.0, 1.125), (1.0, 0.225)])
    def test_three_rules_share_lhs(self, x, t):
        asc = rule_ascending_gen(0.0, x, t).lhs
        mul = rule_multiple_order(1, x, t).lhs
        fra = rule_fractional_order(1, x, t).lhs
        assert abs(asc - mul) <= 1e-12
        assert abs(mul - fra) <= 1e-12

    def test_verdict_gate_requires_convergence(self, monkeypatch):
        # an unconverged lhs must never produce VERIFIED
        monkeypatch.setattr(series, "MAX_TERMS", 8)
        rec = rule_graf(0.0, 5.0, 1.0, 2.0)
        assert rec.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize(
    "lhs, rhs, verdict",
    [
        (1.0, 1.0 + 5e-9, Verdict.VERIFIED),  # rel_err 5e-9 <= tol_rel
        (1e-6, 1e-6 + 5e-13, Verdict.VERIFIED),  # rel_err 5e-7, abs_err 5e-13 <= tol_abs
        (1e-10, 2e-10, Verdict.INCONCLUSIVE),  # both sides within tol_abs of 0
        (1.0, 1.001, Verdict.DISCREPANT),
    ],
    ids=["relative", "absolute", "both-tiny", "discrepant"],
)
def test_verdict_of_a_finite_pair(lhs, rhs, verdict):
    rec = rules_mod._record(rules_mod.RuleId.ASCENDING_GEN, {}, lhs, rhs, DEFAULT_TOLERANCES)
    assert rec.verdict is verdict


@pytest.mark.parametrize(
    "lhs, rhs",
    [(math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf), (math.nan, 1.0),
     (math.nan, math.nan), (complex(math.inf, 0.0), 1.0), (complex(0.0, math.nan), 0.0)],
)
def test_a_non_finite_side_is_inconclusive(lhs, rhs):
    # with tolerances that any finite pair would meet or miss alike
    for tol in (Tolerances(0.0, 0.0), Tolerances(1e300, 1e300)):
        rec = rules_mod._record(rules_mod.RuleId.ASCENDING_GEN, {}, lhs, rhs, tol)
        assert rec.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize(
    "majorant, n",
    [
        (rules_mod._gamma_majorant(1.0, 0.0, 1.0, -1.3), 0),  # 0.0 ** -0.3 raises ZeroDivisionError
        (rules_mod._gamma_majorant(1e300, 1.0), 5),  # (1e300) ** 6 raises OverflowError
    ],
    ids=["zero to a negative power", "overflow"],
)
def test_a_majorant_that_cannot_be_computed_bounds_nothing(majorant, n):
    assert majorant(n) == math.inf
