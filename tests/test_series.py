"""The adaptive summation engine and the finite-difference differentiator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums import (
    DEFAULT_POLICY,
    EvaluationDomainError,
    SummationPolicy,
    central_derivative,
    sum_bilateral,
    sum_series,
)

# frozen via a 30-term direct sum (see oracle helpers below)
J0_1 = 0.7651976865579666
E = 2.718281828459045


class TestPolicy:
    def test_defaults(self):
        p = SummationPolicy()
        assert p.abs_tol == 1e-14 and p.rel_tol == 1e-12
        assert p.max_terms == 400 and p.consecutive_small == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": 1.5},
            {"rel_tol": -1e-3},
            {"max_terms": 4},
            {"consecutive_small": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SummationPolicy(**kwargs)

    def test_tightened(self):
        t = DEFAULT_POLICY.tightened(10.0)
        assert t.abs_tol == 1e-15 and t.rel_tol == 1e-13
        assert t.max_terms == DEFAULT_POLICY.max_terms


class TestSumSeries:
    def test_exponential(self):
        ev = sum_series(lambda k: 1.0 / math.factorial(k))
        assert ev.converged
        assert ev.value == pytest.approx(E, rel=1e-15)

    def test_all_zero(self):
        ev = sum_series(lambda k: 0.0)
        assert ev.value == 0.0
        assert ev.converged
        assert ev.terms_used == DEFAULT_POLICY.consecutive_small

    def test_bessel_terms(self):
        # term_k = (-1)^k (x/2)^(2k) / (k!)^2 at x=1 sums to J_0(1)
        ev = sum_series(lambda k: (-1) ** k * 0.25**k / math.factorial(k) ** 2)
        assert ev.value == pytest.approx(J0_1, rel=1e-14)

    def test_non_finite_term(self):
        with pytest.raises(EvaluationDomainError) as err:
            sum_series(lambda k: math.inf if k == 5 else 1.0 / (k + 1) ** 2)
        assert err.value.index == 5

    def test_overflowing_term(self):
        # math.pow raises OverflowError at 10^(40 k) for k = 8
        with pytest.raises(EvaluationDomainError) as err:
            sum_series(lambda k: math.pow(10.0, 40 * k))
        assert err.value.index == 8

    def test_budget_exhaustion(self):
        ev = sum_series(lambda k: 1.0 / (k + 1), SummationPolicy(max_terms=50))
        assert not ev.converged
        assert ev.terms_used == 50

    def test_certificate_bound(self):
        ev = sum_series(lambda k: 0.5**k)
        assert ev.converged
        assert ev.last_term_magnitude <= DEFAULT_POLICY.abs_tol + DEFAULT_POLICY.rel_tol * abs(
            ev.value
        )

    @settings(max_examples=50)
    @given(st.floats(min_value=-0.9, max_value=0.9), st.floats(min_value=0.1, max_value=100.0))
    def test_linearity(self, ratio, scale):
        # summing doubled terms then halving matches within 2x rel_tol
        base = sum_series(lambda k: scale * ratio**k).value
        doubled = sum_series(lambda k: 2.0 * scale * ratio**k).value / 2.0
        assert doubled == pytest.approx(base, rel=2 * DEFAULT_POLICY.rel_tol, abs=1e-13)

    def test_honesty_under_doubled_budget(self):
        policy = SummationPolicy(max_terms=400)
        relaxed = SummationPolicy(max_terms=800)
        for ratio in (0.3, -0.7, 0.9):
            a = sum_series(lambda k: ratio**k, policy)
            b = sum_series(lambda k: ratio**k, relaxed)
            assert a.converged
            bound = 10 * (policy.abs_tol + policy.rel_tol * abs(a.value))
            assert abs(a.value - b.value) <= bound


class TestSumBilateral:
    def test_delta(self):
        c = 3.25
        ev = sum_bilateral(lambda n: c if n == 0 else 0.0)
        assert ev.value == c
        assert ev.converged

    def test_matches_one_sided_when_negative_vanishes(self):
        term = lambda n: 0.35**n / math.factorial(n) if n >= 0 else 0.0
        one = sum_series(lambda k: 0.35**k / math.factorial(k))
        two = sum_bilateral(term)
        assert two.value == one.value  # identical additions, bit for bit

    def test_geometric_both_directions(self):
        # sum_{n in Z} r^|n| = (1+r)/(1-r)
        r = 0.5
        ev = sum_bilateral(lambda n: r ** abs(n))
        assert ev.converged
        assert ev.value == pytest.approx((1 + r) / (1 - r), rel=1e-12)

    def test_complex_terms(self):
        # sum_{n in Z} e^{in theta} r^|n| is real: Poisson-kernel-like
        r, theta = 0.4, 0.9
        import cmath

        ev = sum_bilateral(lambda n: (r ** abs(n)) * cmath.exp(1j * n * theta))
        expected = (1 - r * r) / (1 - 2 * r * math.cos(theta) + r * r)
        assert ev.value.real == pytest.approx(expected, rel=1e-12)
        assert abs(ev.value.imag) < 1e-14

    def test_unit_weight_bessel_sum(self):
        # sum_{n in Z} J_n(1) = exp((z/2)(t - 1/t)) at t = 1, i.e. exactly 1
        import scipy.special as sc

        ev = sum_bilateral(lambda n: float(sc.jv(n, 1.0)))
        assert ev.converged
        assert ev.value == pytest.approx(1.0, rel=1e-12)

    def test_bessel_product_sum(self):
        # sum_{n in Z} J_n(2) J_n(1) = J_0(1)
        import scipy.special as sc

        ev = sum_bilateral(lambda n: float(sc.jv(n, 2.0)) * float(sc.jv(n, 1.0)))
        assert ev.value == pytest.approx(J0_1, rel=1e-12)

    def test_budget_split(self):
        ev = sum_bilateral(lambda n: 1.0 / (abs(n) + 1), SummationPolicy(max_terms=41))
        assert not ev.converged
        assert ev.terms_used == 41

    def test_non_finite_carries_index(self):
        with pytest.raises(EvaluationDomainError) as err:
            sum_bilateral(lambda n: math.nan if n == -3 else 0.5 ** abs(n))
        assert err.value.index == -3

    def test_overflowing_term_carries_index(self):
        with pytest.raises(EvaluationDomainError) as err:
            sum_bilateral(lambda n: math.pow(10.0, -40 * n))
        assert err.value.index == -8


class TestCentralDerivative:
    def test_quadratic_second(self):
        assert central_derivative(lambda t: t * t, 1.3, 2, 1e-3) == pytest.approx(2.0, abs=1e-8)

    def test_exp_first(self):
        assert central_derivative(math.exp, 0.0, 1, 1e-3) == pytest.approx(1.0, abs=1e-9)

    def test_third_and_fourth(self):
        f = lambda t: t**4
        assert central_derivative(f, 1.0, 3, 5e-3) == pytest.approx(24.0, abs=1e-6)
        assert central_derivative(f, 1.0, 4, 5e-3) == pytest.approx(24.0, abs=1e-4)

    def test_complex_function(self):
        import cmath

        d = central_derivative(lambda t: cmath.exp(1j * t), 0.0, 1, 1e-3)
        assert d == pytest.approx(1j, abs=1e-9)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            central_derivative(math.exp, 0.0, 5, 1e-3)

    def test_non_finite_sample(self):
        with pytest.raises(EvaluationDomainError):
            central_derivative(lambda t: math.nan if t < 0 else t, 0.0, 1, 1e-3)
