"""Base function families against independent oracles (direct truncated sums
computed in this file, plus scipy as a second implementation)."""

import math
import random

import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums import (
    EvaluationDomainError,
    bessel_j,
    hermite_m,
    laguerre2,
    series,
    tricomi_c,
    wright,
)

# frozen from 30-term direct sums
J0_1 = 0.7651976865579666
J1_1 = 0.44005058574493355
I0_2 = 2.2795853023360673  # wright(1, 1, 1)


def bessel_series_oracle(nu, x, terms=30):
    """Direct truncated sum, independent of the package internals."""
    total = 0.0
    for k in range(terms):
        g = sc.rgamma(nu + k + 1)
        total += (-1) ** k * (x / 2.0) ** (2 * k + nu) * g / math.factorial(k)
    return total


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0, 0.0).value == 1.0
        assert bessel_j(1, 0.0).value == 0.0
        assert bessel_j(3, 0.0).value == 0.0

    def test_j0_of_one(self):
        ev = bessel_j(0, 1.0)
        assert ev.converged
        assert ev.value == pytest.approx(J0_1, rel=1e-14)

    def test_derived_oracle_grid(self):
        for nu in (0.0, 0.5, 1.0, 2.5, -0.5):
            for x in (0.5, 1.0, 3.0, 7.0):
                assert bessel_j(nu, x).value == pytest.approx(
                    bessel_series_oracle(nu, x, 60), rel=1e-12, abs=1e-14
                )

    def test_against_scipy(self):
        for nu in (-2.0, -0.5, 0.0, 1.0, 4.5):
            for x in (0.3, 2.0, 6.0):
                assert bessel_j(nu, x).value == pytest.approx(float(sc.jv(nu, x)), rel=1e-11)

    def test_negative_integer_parity_example(self):
        assert bessel_j(-2, 1.3).value == pytest.approx(bessel_j(2, 1.3).value, rel=1e-15)

    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=8),
        st.sampled_from([0.5, 1.0, 5.0]),
    )
    def test_parity_property(self, n, x):
        left = bessel_j(-n, x).value
        right = (-1) ** n * bessel_j(n, x).value
        assert left == pytest.approx(right, rel=1e-12, abs=1e-15)

    def test_negative_x_integer_order(self):
        # J_n(-x) = (-1)^n J_n(x)
        assert bessel_j(3, -2.0).value == pytest.approx(-bessel_j(3, 2.0).value, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(0.5, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_j(math.inf, 1.0)

    def test_negative_integer_order_at_zero(self):
        assert bessel_j(-3, 0.0).value == 0.0


class TestTricomi:
    def test_at_origin(self):
        assert tricomi_c(0.0, 0.0).value == 1.0

    def test_k0_term_only(self):
        for alpha in (0.5, 2.0, 3.25):
            assert tricomi_c(alpha, 0.0).value == pytest.approx(
                float(sc.rgamma(alpha + 1)), rel=1e-14
            )

    def test_bessel_relation(self):
        # C_alpha(x) = x^(-alpha/2) J_alpha(2 sqrt x)
        assert tricomi_c(1.0, 0.25).value == pytest.approx(2.0 * J1_1, rel=1e-13)
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for x in (0.25, 1.0, 4.0):
                expected = x ** (-alpha / 2.0) * bessel_j(alpha, 2.0 * math.sqrt(x)).value
                assert tricomi_c(alpha, x).value == pytest.approx(expected, rel=1e-11)

    def test_negative_argument(self):
        # C_0(-x) = I-type series, all terms positive
        oracle = sum(1.0**k / math.factorial(k) ** 2 for k in range(30))
        assert tricomi_c(0.0, -1.0).value == pytest.approx(oracle, rel=1e-14)

    def test_negative_integer_order(self):
        # C_{-n}(x): first n terms vanish at gamma poles
        oracle = sum(
            (-2.0) ** k / math.factorial(k) * float(sc.rgamma(-2 + k + 1)) for k in range(40)
        )
        assert tricomi_c(-2.0, 2.0).value == pytest.approx(oracle, rel=1e-13)


class TestLaguerre2:
    def test_x_zero(self):
        for n in (0, 1, 4):
            assert laguerre2(n, 0.0, 1.7) == pytest.approx(1.7**n, rel=1e-15)

    def test_hand_expanded(self):
        # n=2: y^2 - 2xy + x^2/2 at (1, 1)
        assert laguerre2(2, 1.0, 1.0) == -0.5

    def test_reduces_to_ordinary_laguerre(self):
        for x in (0.3, 1.7, 4.0):
            assert laguerre2(3, x, 1.0) == pytest.approx(float(sc.eval_laguerre(3, x)), rel=1e-12)

    def test_homogeneity(self):
        # L_n(x, y) = y^n L_n(x/y)
        x, y, n = 0.8, 1.3, 5
        assert laguerre2(n, x, y) == pytest.approx(
            y**n * float(sc.eval_laguerre(n, x / y)), rel=1e-12
        )

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            laguerre2(-1, 1.0, 1.0)


class TestHermiteM:
    def test_y_zero(self):
        for n in (0, 1, 5):
            assert hermite_m(n, 2, 1.5, 0.0) == pytest.approx(1.5**n, rel=1e-15)

    def test_hand_expanded(self):
        # n=2, m=2: x^2 + 2y at (1, 1)
        assert hermite_m(2, 2, 1.0, 1.0) == 3.0

    def test_classical_hermite(self):
        # H_n(x) (physicists') = hermite_m(n, 2, 2x, -1)
        for n in (0, 1, 2, 3, 4):
            for x in (0.3, 1.1):
                assert hermite_m(n, 2, 2 * x, -1.0) == pytest.approx(
                    float(sc.eval_hermite(n, x)), rel=1e-12
                )

    @settings(max_examples=80)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        st.sampled_from([0.25, 1.0, 1.5]),
    )
    def test_parity_exact(self, n, m, x, y):
        # H_n(-x, y) == (-1)^n H_n(x, (-1)^m y), exactly in floating point
        assert hermite_m(n, m, -x, y) == (-1) ** n * hermite_m(n, m, x, (-1) ** m * y)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("x", [-1.0, 1.0])
    @pytest.mark.parametrize("y", [-1.0, 1.0])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_generating_function(self, m, x, y, t):
        total = sum(t**n / math.factorial(n) * hermite_m(n, m, x, y) for n in range(40))
        assert total == pytest.approx(math.exp(x * t + y * t**m), rel=1e-10)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            hermite_m(2, 0, 1.0, 1.0)

    def test_large_degree_fails_fast(self, monkeypatch):
        # n! has about a million digits at n = 200000, and a coefficient
        # divided down from it costs another such factorial, (n-k)!, per term:
        # the overflow at term 81 must come without forming any of them
        real = math.factorial

        def small_factorial(k):
            if k > 10_000:
                raise AssertionError(f"factorial({k}) formed")
            return real(k)

        monkeypatch.setattr(math, "factorial", small_factorial)
        with pytest.raises(EvaluationDomainError) as info:
            hermite_m(200_000, 1, 1.0, 1.0)
        assert str(info.value) == "overflow in term 81 of H_200000^(1)(1.0, 1.0)"
        assert info.value.index == 81
        # the coefficients are the same integers, summed in the same order:
        # the values do not move
        for n, m, x, y in ((60, 1, 0.9, -0.3), (97, 2, -1.1, 0.4), (150, 5, 0.7, 2.5)):
            expected = 0.0
            for k in range(n // m + 1):
                coeff = real(n) // (real(n - m * k) * real(k))
                expected += coeff * math.pow(x, n - m * k) * math.pow(y, k)
            assert hermite_m(n, m, x, y) == expected


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: laguerre2(0, math.nan, 1.0), "x"),
        (lambda: laguerre2(2, 1.0, -math.inf), "y"),
        (lambda: hermite_m(4, 2, math.inf, 1.0), "x"),
        (lambda: hermite_m(0, 1, 1.0, math.nan), "y"),
        # the Tricomi kernel would raise on a non-finite term, naming no argument
        (lambda: tricomi_c(math.nan, 1.0), "alpha"),
        (lambda: tricomi_c(1.0, math.inf), "x"),
    ],
)
def test_polynomials_name_a_non_finite_argument(call, name):
    # n = 0 has no term that could overflow, so only the check can refuse nan
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: laguerre2(1, -1.5e308, 1.5e308), "L_1(-1.5e+308, 1.5e+308) overflows float range"),
        (lambda: hermite_m(1, 1, 1.5e308, 1.5e308), "H_1^(1)(1.5e+308, 1.5e+308) overflows float range"),
    ],
    ids=["laguerre2", "hermite_m"],
)
def test_polynomial_sum_past_float_range(call, message):
    # each term is finite, and their sum is inf without raising OverflowError
    with pytest.raises(EvaluationDomainError) as info:
        call()
    assert str(info.value) == message


class TestWright:
    def test_at_zero(self):
        for nu in (0.5, 1.0, 2.5):
            assert wright(nu, 1.0, 0.0).value == pytest.approx(float(sc.rgamma(nu)), rel=1e-14)

    def test_i0_relation(self):
        assert wright(1.0, 1.0, 1.0).value == pytest.approx(I0_2, rel=1e-14)

    def test_matches_tricomi_series(self):
        # W_1(x | 1) = sum x^r/(r! Gamma(1+r)) = C_0(-x)
        for x in (0.3, 1.0, 2.5):
            assert wright(1.0, 1.0, x).value == pytest.approx(
                tricomi_c(0.0, -x).value, rel=1e-13
            )

    def test_pole_weights_skipped(self):
        # nu a negative integer with mu=1: leading gamma poles kill terms r <= -nu
        oracle = sum(
            0.7**r / math.factorial(r) * float(sc.rgamma(-3.0 + r)) for r in range(40)
        )
        assert wright(-3.0, 1.0, 0.7).value == pytest.approx(oracle, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            wright(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            wright(1.0, -0.5, 1.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 11 and 17")
    def test_tiny_value_keeps_its_relative_accuracy(self):
        # W(0, 1e-300; 1) = sum_(r >= 1) 1/(r! Gamma(1e-300 r)) = e * 1e-300 to
        # rounding; every term is below abs_tol, so three in a row stop the sum
        # at 2.5e-300 (-8%), reported converged
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            mu = mpmath.mpf(1e-300)
            exact = float(mpmath.fsum(mpmath.rgamma(mu * r) / mpmath.factorial(r) for r in range(60)))
        assert abs(wright(0.0, 1e-300, 1.0).value - exact) <= 1e-8 * exact

    def test_tight_policy_still_converges(self, monkeypatch):
        monkeypatch.setattr(series, "ABS_TOL", 1e-15)
        monkeypatch.setattr(series, "REL_TOL", 1e-13)
        ev = wright(0.5, 0.5, 2.0)
        assert ev.converged

    @pytest.mark.parametrize(
        "nu, mu, x, ulps",
        [
            # next to the pole at -2; forming the argument as (mu r + (nu - 1)) + 1
            # was off by a relative 3.2e-14
            (-2.0, 0.9973345846400632, -0.1552461593670751, 2),
            # 1e-20 - 1 rounds to the pole -1, which returned 0.0; the 5 ulps
            # are 1/Gamma(1e-20) = exp(-lgamma(1e-20)) rounding
            (1e-20, 1.0, 0.0, 6),
        ],
    )
    def test_gamma_argument_rounded_once(self, nu, mu, x, ulps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            terms = (
                mpmath.mpf(x) ** r / mpmath.factorial(r) * mpmath.rgamma(nu + mpmath.mpf(mu) * r)
                for r in range(60)
            )
            exact = float(mpmath.fsum(terms))
        assert abs(wright(nu, mu, x).value - exact) <= ulps * math.ulp(exact)

    def test_seeded_sample_within_rounding_of_exact_sum(self):
        # against a 30-digit direct sum, on points mixing integer and non-integer
        # nu and mu (leading Gamma poles included): |error| <= 1e-14 sum_r |t_r|,
        # plus for each term the change of 1/Gamma across the float rounding of
        # its argument nu + mu r, which is steep next to a pole
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20121)
        with mpmath.workdps(30):
            for _ in range(100):
                nu = rng.choice([rng.uniform(-6.0, 4.0), float(rng.randint(-6, 2))])
                mu = rng.choice([rng.uniform(0.1, 3.0), float(rng.randint(1, 3)), 0.5])
                x = rng.uniform(-5.0, 5.0)
                exact = scale = rounding = mpmath.mpf(0)
                for r in range(60):  # 5^60/60! < 1e-39
                    power = mpmath.mpf(x) ** r / mpmath.factorial(r)
                    arg = nu + mpmath.mpf(mu) * r
                    delta = 2.0**-51 * (abs(mu * r) + abs(nu) + 2.0)
                    t = power * mpmath.rgamma(arg)
                    exact, scale = exact + t, scale + abs(t)
                    rounding += abs(power * (mpmath.rgamma(arg + delta) - mpmath.rgamma(arg - delta)))
                ev = wright(nu, mu, x)
                assert ev.converged, (nu, mu, x)
                assert abs(ev.value - exact) <= 1e-14 * scale + rounding, (nu, mu, x)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bessel_j(1e306, 1.0),
        lambda: tricomi_c(1e306, 1.0),
        lambda: wright(1e308, 1.0, 1.0),
    ],
    ids=["bessel_j", "tricomi_c", "wright"],
)
def test_order_past_lgamma_range_sums_to_zero(call):
    # every 1/Gamma weight underflows to 0.0, so the sum is 0, not a non-finite term
    result = call()
    assert result.value == 0.0
    assert result.converged
