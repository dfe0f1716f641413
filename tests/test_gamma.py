"""Reciprocal gamma and the Stirling numbers of the second kind."""

import math
import random

import pytest
import scipy.special as sc

from besselsums import EXACTNESS_BOUND, reciprocal_gamma, stirling2


class TestReciprocalGamma:
    def test_at_one(self):
        assert reciprocal_gamma(1.0) == 1.0

    def test_pole_at_zero(self):
        assert reciprocal_gamma(0.0) == 0.0

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize("n", range(0, 51))
    def test_poles_exact_zero(self, n):
        assert reciprocal_gamma(-float(n)) == 0.0

    @pytest.mark.parametrize("n", range(1, 21))
    def test_factorial_consistency(self, n):
        # 1/Gamma(n) * (n-1)! == 1 to within a couple of ulps
        prod = reciprocal_gamma(float(n)) * float(math.factorial(n - 1))
        assert abs(prod - 1.0) <= 4 * math.ulp(1.0)

    def test_against_scipy_grid(self):
        # relative error <= 1e-13 on [-30, 30], at least 0.05 away from poles
        a = -30.0 + 0.0625
        while a < 30.0:
            if abs(a - round(a)) > 0.05 or a > 0.5:
                assert reciprocal_gamma(a) == pytest.approx(
                    float(sc.rgamma(a)), rel=1e-13, abs=1e-300
                ), f"mismatch at a={a}"
            a += 0.125

    def test_near_pole_sign(self):
        assert reciprocal_gamma(-0.5) == pytest.approx(-0.28209479177387814, rel=1e-13)
        assert reciprocal_gamma(-1.5) == pytest.approx(0.42314218766081724, rel=1e-13)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_gamma(math.inf)
        with pytest.raises(ValueError):
            reciprocal_gamma(math.nan)

    @pytest.mark.parametrize("a", [2.56e305, 3e305, 1e306, 1.7e308])
    def test_zero_where_lgamma_overflows(self, a):
        # math.lgamma(a) overflows from a = 2.56e305; 1/Gamma(a) is 0.0 there, not inf
        assert reciprocal_gamma(a) == 0.0


def _ulps(a, mpmath):
    got = reciprocal_gamma(a)
    return float(abs(mpmath.mpf(got) - mpmath.rgamma(a))) / math.ulp(got)


@pytest.mark.parametrize("a", [1e-20, 40.5, 100.5, 150.5])
def test_reciprocal_gamma_within_two_ulps(a):
    # exp(-lgamma(a)) was off by 5, 24, 41 and 729 ulps here
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert _ulps(a, mpmath) <= 2.0


def test_reciprocal_gamma_within_seven_ulps_where_gamma_is_normal():
    # the docstring's claim, on seeded points across -170.5 <= a < 171.6
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    points = [rng.uniform(-170.5, 171.6) for _ in range(400)]
    points += [rng.uniform(-20.0, 20.0) for _ in range(400)]
    with mpmath.workdps(30):
        assert max(_ulps(a, mpmath) for a in points) <= 7.0


def _partitions_into_blocks(m, k):
    """Brute-force count of set partitions of {0..m-1} into k nonempty blocks."""
    if m == 0:
        return 1 if k == 0 else 0
    count = 0

    def extend(element, blocks):
        nonlocal count
        if element == m:
            if len(blocks) == k:
                count += 1
            return
        for b in blocks:
            b.append(element)
            extend(element + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([element])
            extend(element + 1, blocks)
            blocks.pop()

    extend(0, [])
    return count


class TestStirling2:
    def test_base_cases(self):
        assert stirling2(0, 0) == 1
        assert stirling2(1, 1) == 1
        assert stirling2(4, 0) == 0
        assert stirling2(2, 3) == 0

    @pytest.mark.parametrize("m,k", [(3, 2), (4, 2), (5, 3), (6, 3)])
    def test_against_enumeration(self, m, k):
        assert stirling2(m, k) == _partitions_into_blocks(m, k)

    def test_recurrence_exact(self):
        for m in range(1, 31):
            for k in range(1, m + 1):
                assert stirling2(m, k) == k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            stirling2(EXACTNESS_BOUND + 1, 2)
        with pytest.raises(ValueError):
            stirling2(-1, 0)
