"""Verification operations: trivial collapses, frozen brute-force values,
domain errors, and the cross-rule consistency web."""

import math

import pytest
import scipy.special as sc

import besselsums.rules as rules_mod
from besselsums import (
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

        def swapped(nu, u, v, policy=None, **kw):
            return true_l_tricomi(nu, -u, v, policy)

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
        assert abs(deriv.rhs) < 1e-10
        assert abs(closed.rhs) < 1e-14

    def test_brute_vs_deriv(self):
        deriv, _ = weighted_sum_S(1, 1, 3.0, 1.0)
        assert deriv.abs_err <= 1e-6

    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("xy", [(3.0, 1.0), (5.0, 2.0)])
    def test_cross_consistency_grid(self, l, m, xy):
        deriv, _ = weighted_sum_S(l, m, *xy)
        assert deriv.lhs_certificate.converged
        assert deriv.abs_err <= 1e-6

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

    def test_domain(self):
        with pytest.raises(ValueError):
            weighted_sum_E(0, 0, 1.0)
        with pytest.raises(ValueError):
            weighted_sum_E(0, 11, 1.0)


class TestAppendixDerivative:
    @pytest.mark.parametrize("nu,x", [(1.0, 2.0), (0.5, 1.0), (0.0, 2.0), (2.0, 1.0)])
    def test_derivative_ladder(self, nu, x):
        rec = appendix_derivative_check(nu, x, tolerances=Tolerances(1e-6, 1e-6))
        assert rec.verdict is Verdict.VERIFIED
        assert rec.abs_err <= 1e-7

    def test_nu_zero_reduces_to_j1(self):
        rec = appendix_derivative_check(0.0, 2.0)
        assert rec.rhs == pytest.approx(-J1_2 / 2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            appendix_derivative_check(1.0, 0.0)


class TestConsistencyWeb:
    @pytest.mark.parametrize("x,t", [(2.0, 0.45), (5.0, 1.125), (1.0, 0.225)])
    def test_three_rules_share_lhs(self, x, t):
        asc = rule_ascending_gen(0.0, x, t).lhs
        mul = rule_multiple_order(1, x, t).lhs
        fra = rule_fractional_order(1, x, t).lhs
        assert abs(asc - mul) <= 1e-12
        assert abs(mul - fra) <= 1e-12

    def test_verdict_gate_requires_convergence(self):
        # an unconverged lhs must never produce VERIFIED
        from besselsums import SummationPolicy

        rec = rule_graf(0.0, 5.0, 1.0, 2.0, policy=SummationPolicy(max_terms=8))
        assert rec.verdict is Verdict.INCONCLUSIVE


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
