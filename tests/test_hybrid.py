"""Hermite- and Laguerre-based composite families.

Frozen expected values come from direct truncated double sums computed with
scipy's rgamma and explicitly expanded polynomials (independent of the package
code); the generators live in this file for auditability.
"""

import functools
import math
import random

import pytest
import scipy.special as sc

from besselsums import (
    functions,
    h_tricomi,
    h_wright,
    hermite_m,
    hybrid,
    hybrid_k,
    l_tricomi,
    laguerre2,
    reciprocal_gamma,
    rules,
    series,
    tricomi_c,
)
from besselsums.plan import default_plan_path, load_plan, run_plan
from besselsums.series import EvaluationDomainError, sum_series

# 50-term brute sum of (-1)^k H_k^(2)(1, 0.5) / (k! Gamma(k+1))
H_TRICOMI_0_2_1_05 = 0.4045823668533772
# 50-term brute sum of (-1)^k L_k(0.3, 0.7) / (k! Gamma(k+1))
L_TRICOMI_0_03_07 = 0.6288868509939026
# 60-term brute sum of H_k^(2)(0.4, -0.25) / (k! Gamma(0.5 k + 1))
H_WRIGHT_0_2_05 = 1.2231699363978736


def hermite_oracle(n, m, x, y):
    total = 0.0
    for k in range(n // m + 1):
        c = math.factorial(n) // (math.factorial(n - m * k) * math.factorial(k))
        total += c * x ** (n - m * k) * y**k
    return total


def laguerre_oracle(n, x, y):
    return sum(
        math.comb(n, k) * (-x) ** k * y ** (n - k) / math.factorial(k) for k in range(n + 1)
    )


class TestHTricomi:
    def test_origin(self):
        assert h_tricomi(0.0, 2, 0.0, 0.0).value == pytest.approx(1.0, rel=1e-15)

    def test_frozen_value(self):
        ev = h_tricomi(0.0, 2, 1.0, 0.5)
        assert ev.converged
        assert ev.value == pytest.approx(H_TRICOMI_0_2_1_05, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("u", [0.3, 1.0, 2.0])
    def test_reduction_to_tricomi(self, nu, m, u):
        # v = 0 collapses the Hermite kernel to u^k
        assert h_tricomi(nu, m, u, 0.0).value == pytest.approx(
            tricomi_c(nu, u).value, rel=1e-12
        )

    def test_sparse_kernel_guard(self):
        # u = 0 with m = 4 leaves only every 4th term; the structural zeros
        # between them must not trip the stop rule
        oracle = sum(
            (-1) ** k * hermite_oracle(k, 4, 0.0, 0.3) / math.factorial(k) * float(sc.rgamma(k + 1))
            for k in range(60)
        )
        ev = h_tricomi(0.0, 4, 0.0, 0.3)
        assert ev.value == pytest.approx(oracle, rel=1e-12)
        assert abs(ev.value - 1.0) > 0.01  # genuinely not the k=0 term alone

    def test_negative_integer_order(self):
        # leading terms vanish at gamma poles; compare against a brute sum
        oracle = sum(
            (-1) ** k
            * hermite_oracle(k, 2, 0.7, 0.2)
            / math.factorial(k)
            * float(sc.rgamma(-4 + k + 1))
            for k in range(60)
        )
        assert h_tricomi(-4.0, 2, 0.7, 0.2).value == pytest.approx(oracle, rel=1e-12)

    def test_umbral_moment_restatement(self):
        # sum_n H_n^(m)(-x, y)/n! * moment(n) == h_tricomi(0, m, x, (-1)^m y)
        for m in (2, 3):
            for x in (0.3, 0.8):
                for y in (0.3, 0.8):
                    lhs = sum(
                        hermite_oracle(n, m, -x, y)
                        / math.factorial(n)
                        * reciprocal_gamma(n + 1.0)
                        for n in range(50)
                    )
                    rhs = h_tricomi(0.0, m, x, (-1) ** m * y).value
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestLTricomi:
    def test_frozen_value(self):
        ev = l_tricomi(0.0, 0.3, 0.7)
        assert ev.converged
        assert ev.value == pytest.approx(L_TRICOMI_0_03_07, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("v", [0.4, 1.0, 2.5])
    def test_reduction_to_tricomi(self, nu, v):
        # u = 0 collapses the Laguerre kernel to v^k
        assert l_tricomi(nu, 0.0, v).value == pytest.approx(tricomi_c(nu, v).value, rel=1e-12)

    def test_origin(self):
        assert l_tricomi(0.0, 0.0, 0.0).value == pytest.approx(1.0, rel=1e-15)


class TestHWright:
    def test_origin(self):
        for nu in (0.0, 0.5, 1.5):
            assert h_wright(nu, 2, 0.5, 0.0, 0.0).value == pytest.approx(
                float(sc.rgamma(nu + 1)), rel=1e-14
            )

    def test_frozen_value(self):
        ev = h_wright(0.0, 2, 0.5, 0.4, -0.25)
        assert ev.converged
        assert ev.value == pytest.approx(H_WRIGHT_0_2_05, rel=1e-12)

    def test_reduction_at_v_zero(self):
        # H_k(u, 0) = u^k: matches a direct power series with shifted gamma
        u, mu, nu = 0.6, 0.5, 0.25
        oracle = sum(
            u**k / math.factorial(k) * float(sc.rgamma(mu * k + nu + 1)) for k in range(50)
        )
        assert h_wright(nu, 2, mu, u, 0.0).value == pytest.approx(oracle, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            h_wright(0.0, 2, 0.0, 0.1, 0.1)

    @pytest.mark.parametrize(
        "nu, m, mu, u, v",
        [
            (-4, 1, 1.0, 0.7, 0.0),
            (-3, 2, 1.0, 0.7, 0.2),
            (-5, 1, 2.0, 1.5, 0.0),
            (-3, 2, 0.5, 0.4, 0.1),  # non-integer step: only k = 0 is skipped
        ],
    )
    def test_leading_gamma_poles_skipped(self, nu, m, mu, u, v):
        # a leading run of zero terms must not read as convergence to 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.fsum(
                hermite_oracle(k, m, mpmath.mpf(u), mpmath.mpf(v))
                / mpmath.factorial(k)
                * mpmath.rgamma(mpmath.mpf(mu) * k + nu + 1)
                for k in range(80)
            )
        ev = h_wright(nu, m, mu, u, v)
        assert ev.converged
        assert abs(ev.value - exact) <= 4 * math.ulp(float(exact))


class TestHybridK:
    def test_xi_zero_reduces_to_inner(self):
        for m in (-1, -2):
            for mu in (0.0, 2.0, -1.0):
                assert hybrid_k(mu, m, 0.7, 0.2, 0.0).value == pytest.approx(
                    h_tricomi(mu, 2, 0.7, 0.2).value, rel=1e-12
                )

    def test_descending_orders(self):
        # negative m steps the inner order downward; brute double sum oracle
        def inner(nu):
            return sum(
                (-1) ** j
                * hermite_oracle(j, 2, 0.5625, 0.15)
                / math.factorial(j)
                * float(sc.rgamma(nu + j + 1))
                for j in range(80)
            )

        oracle = sum((-0.4) ** k / math.factorial(k) * inner(-2 * k) for k in range(30))
        assert hybrid_k(0.0, -2, 0.5625, 0.15, -0.4).value == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("xi", [-1.0, 5.0])
    def test_waits_out_the_stride_of_its_outer_table(self, xi):
        # g_n = H_n^(20)(1, xi)/n! takes its first power of xi at degree 20,
        # so a sum stopped after three small terms missed every xi term
        # (1.9e-8 and 9.5e-8 off, relative); it waits for a run of 20
        h = hybrid._hermite_table(2, 1.0, 0.5)
        g = hybrid._hermite_table(20, 1.0, xi)
        full = math.fsum((-1) ** j * h(j) * g(j) for j in range(160))
        assert abs(hybrid_k(0.0, -20, 1.0, 0.5, xi).value - full) <= 1e-13

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            hybrid_k(0.0, 0, 1.0, 1.0, 0.5)

    def test_inner_nonconvergence_propagates(self, monkeypatch):
        # a budget too small for the one series must not report converged
        monkeypatch.setattr(series, "MAX_TERMS", 8)
        ev = hybrid_k(0.0, -2, 4.0, 3.0, 1.5)
        assert not ev.converged

    @pytest.mark.parametrize(
        "mu, m, message",
        [(0.0, 1, "m must be <= -1, got 1"), (0.5, -2, "mu must be integer, got 0.5")],
        ids=["m=1", "mu=0.5"],
    )
    def test_outside_the_one_series_domain_is_refused(self, mu, m, message):
        # only m <= -1 with integer mu is one series; nothing else is summed
        with pytest.raises(ValueError) as info:
            hybrid_k(mu, m, 1.0, 1.0, 0.5)
        assert str(info.value) == message
        assert not isinstance(info.value, EvaluationDomainError)


@pytest.mark.parametrize("x,y", [(0.3, 0.5), (0.8, 0.2), (1.0, 1.0)])
def test_laguerre_based_exponential(x, y):
    # with unit series coefficients, sum_n L_n(x,y)/n! = e^y C_0(x)
    from besselsums import laguerre2

    total = sum(laguerre2(n, x, y) / math.factorial(n) for n in range(60))
    assert total == pytest.approx(math.exp(y) * tricomi_c(0.0, x).value, rel=1e-12)


# ---------------------------------------------------------------------------
# per-call weight tables against the definitions
#
# Running-error bounds c g(n) eps sum|terms|, from a per-step rounding count
# (unit roundoff eps/2):
# - Hermite: a step n h_n = u h_(n-1) + m v h_(n-m) rounds at most four times
#   (m v, the two products and their sum, the division) and every monomial of
#   h_n passes through at most n steps: c = 2, g(n) = n.
# - Laguerre: a step (n+1)^2 l_(n+1) = ((2n+1) v - u) l_n - v^2 l_(n-1) rounds
#   at most twice on each product and twice on their difference, and at u = 0
#   the two products add up to less than 3 |(n+1)^2 l_(n+1)|, so each step
#   errs by at most 12 (eps/2) relative.  At u = 0 the scaled recurrence is
#   solved by 1 and the harmonic numbers H_n, so an error made at degree j
#   reaches degree n multiplied by j (H_n - H_(j-1)); summed over j <= n that
#   is n (n + 3) / 4: c = 6, g(n) = n (n + 3) / 4.  The seeded points away
#   from u = 0 check that the bound carries over.
# Where eps sum|terms| is subnormal the relative rounding model fails; those
# points are skipped.

_EPS = 2.0**-52
_SUBNORMAL_SCALE = 2.0**-1022 / _EPS


def _hermite_bound(n):
    return 2.0 * n * _EPS


def _laguerre_bound(n):
    return 6.0 * (n * (n + 3) / 4.0) * _EPS


def _exact_hermite(mpmath, m, u, v, n):
    """h_n = H_n^(m)(u, v)/n! and its sum|terms|, by the defining sum."""
    u, v = mpmath.mpf(u), mpmath.mpf(v)
    terms = [
        u ** (n - m * k) * v**k / (mpmath.factorial(n - m * k) * mpmath.factorial(k))
        for k in range(n // m + 1)
    ]
    return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)


def _exact_laguerre(mpmath, u, v, n):
    """l_n = L_n(u, v)/n! and its sum|terms|, by the defining sum."""
    u, v = mpmath.mpf(u), mpmath.mpf(v)
    terms = [
        (-u) ** k * v ** (n - k) / (mpmath.factorial(n - k) * mpmath.factorial(k) ** 2)
        for k in range(n + 1)
    ]
    return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)


def _signed_log_uniform(rng, lo, hi):
    return rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(lo, hi)


def test_weight_tables_within_running_error_of_exact_sums():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(8)
    checked = 0
    with mpmath.workdps(40):
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(0, 170)
            u = rng.choice([0.0, -0.0, _signed_log_uniform(rng, -3, 1.3)])
            v = rng.choice([0.0, _signed_log_uniform(rng, -3, 1.3)])
            exact, scale = _exact_hermite(mpmath, m, u, v, n)
            if scale >= _SUBNORMAL_SCALE:
                got = hybrid._hermite_table(m, u, v)(n)
                assert abs(got - exact) <= _hermite_bound(n) * scale, (m, u, v, n)
                checked += 1
            # u/v near 0 is where the Laguerre recurrence loses most
            v = _signed_log_uniform(rng, -3, 0.5)
            u = v * rng.choice([0.0, _signed_log_uniform(rng, -8, 0), rng.uniform(-15.0, 15.0)])
            exact, scale = _exact_laguerre(mpmath, u, v, n)
            if scale >= _SUBNORMAL_SCALE:
                got = hybrid._laguerre_table(u, v)(n)
                assert abs(got - exact) <= _laguerre_bound(n) * scale, (u, v, n)
                checked += 1
    assert checked >= 200


@pytest.mark.parametrize("u,v", [(0.0, 1.5), (1e-6, -2.0), (0.45, 1.5), (-2.5, 1.5), (30.0, 3.0)])
def test_laguerre_table_past_degree_97(u, v):
    # (k!)^2 is past float range from k = 98: no weight may be built from it
    mpmath = pytest.importorskip("mpmath")
    ratio = hybrid._laguerre_table(u, v)
    with mpmath.workdps(40):
        for n in range(98, 171):
            got = ratio(n)
            exact, scale = _exact_laguerre(mpmath, u, v, n)
            assert math.isfinite(got) and scale >= _SUBNORMAL_SCALE
            assert abs(got - exact) <= _laguerre_bound(n) * scale, n


def test_weight_tables_match_the_direct_definitions():
    # at the workloads' parameter ranges; laguerre2 and hermite_m sum the
    # definition in floats, about n + 8 roundings per term
    rng = random.Random(9)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(0, 60)
        u, v = rng.uniform(-1.0, 2.25), rng.uniform(-1.5, 1.5)
        fact = float(math.factorial(n))
        slack = (n + 8) * _EPS
        scale = hermite_m(n, m, abs(u), abs(v)) / fact
        tol = (_hermite_bound(n) + slack) * scale
        assert abs(hybrid._hermite_table(m, u, v)(n) - hermite_m(n, m, u, v) / fact) <= tol
        scale = laguerre2(n, -abs(u), abs(v)) / fact
        tol = (_laguerre_bound(n) + slack) * scale
        assert abs(hybrid._laguerre_table(u, v)(n) - laguerre2(n, u, v) / fact) <= tol


def test_rule_sides_read_tables_not_the_direct_sums(monkeypatch):
    calls = []
    for name in ("laguerre2", "hermite_m"):
        assert not hasattr(rules, name)

        def spy(*args, _name=name, _real=getattr(functions, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(functions, name, spy)
    run_plan(load_plan(default_plan_path()))
    assert calls == []


@pytest.mark.parametrize("mu", [0.0, 0.5, -1.5])
@pytest.mark.parametrize("m", [-2, -1, 1, 3])
@pytest.mark.parametrize("x", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("y", [0.0, 1.0, -1.5])
@pytest.mark.parametrize("xi", [-2.0, 0.3])
def test_hybrid_k_shared_table_matches_fresh_inner_sums(mu, m, x, y, xi):
    if m > 0 or mu != int(mu):
        # not one series: refused by name, never summed nested
        with pytest.raises(ValueError, match="^mu? must be ") as info:
            hybrid_k(mu, m, x, y, xi)
        assert not isinstance(info.value, EvaluationDomainError)
        return
    # the one series on two shared tables against the double sum of fresh
    # h_tricomi calls, one per inner order: equal within the summation
    # tolerances, not bit for bit
    fresh = sum_series(lambda k: xi**k / math.factorial(k) * h_tricomi(m * k + mu, 2, x, y).value)
    shared = hybrid_k(mu, m, x, y, xi)
    assert shared.converged and fresh.converged
    assert shared.value == pytest.approx(fresh.value, rel=1e-12, abs=1e-14)


@functools.lru_cache(maxsize=None)
def _exact_orders(x, y):
    """n -> HC_n(x, y) = sum_j (-1)^j h_j / (j + n)! at 40 digits, for the
    integer orders -93 <= n <= 2, with h_j = H_j^(2)(x, y)/j! summed from its
    definition sum_i x^(j-2i) y^i / (i! (j-2i)!)."""
    import mpmath

    with mpmath.workdps(40):
        inv = [1 / mpmath.factorial(n) for n in range(140)]
        px = [mpmath.mpf(x) ** n * inv[n] for n in range(140)]
        py = [mpmath.mpf(y) ** n * inv[n] for n in range(70)]
        h = [mpmath.fsum(px[j - 2 * i] * py[i] for i in range(j // 2 + 1)) for j in range(140)]
        return {
            n: mpmath.fsum((-1) ** j * h[j] * inv[j + n] for j in range(max(0, -n), 40 - min(n, 0)))
            for n in range(-93, 3)
        }


@pytest.mark.parametrize("m", [-1, -2, -3])
@pytest.mark.parametrize("mu", [-1, 0, 1, 2])
@pytest.mark.parametrize("x", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("y", [0.0, 1.0, -1.5])
@pytest.mark.parametrize("xi", [-2.0, 0.3, 0.0])
def test_collapsed_hybrid_k_matches_the_nested_definition(m, mu, x, y, xi):
    # m < 0 with integer mu is summed as one series of two Hermite tables; the
    # oracle is the nested double sum sum_k xi^k/k! HC_(mu + m k)(x, y), with
    # k <= 30 (xi^k/k! HC is below 1e-20 past it) and 40 terms past each pole
    mpmath = pytest.importorskip("mpmath")
    orders = _exact_orders(x, y)
    with mpmath.workdps(40):
        exact = mpmath.fsum(
            mpmath.mpf(xi) ** k / mpmath.factorial(k) * orders[mu + m * k] for k in range(31)
        )
    ev = hybrid_k(float(mu), m, x, y, xi)
    assert ev.converged
    assert ev.value == pytest.approx(float(exact), rel=1e-13, abs=1e-15)
    if xi == 0.0:
        # g_n = 1/n!, so the one series is h_tricomi's with factorials from
        # the table in place of 1/Gamma: equal to rounding
        inner = h_tricomi(float(mu), 2, x, y).value
        assert ev.value == pytest.approx(inner, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("mu", [200.0, -200.0])
@pytest.mark.parametrize("m", [-1, -2])
def test_collapsed_hybrid_k_past_the_table_ceiling_is_a_domain_error(mu, m):
    # the first term reads g_200 (mu = 200) or h_200 (mu = -200), past 170
    with pytest.raises(EvaluationDomainError) as info:
        hybrid_k(mu, m, 0.5, 1.0, 0.3)
    assert info.value.index == 0


def test_default_plan_hermite_ratio_evaluations(monkeypatch):
    calls = []
    real = hybrid._hermite_ratio

    def spy(n, m, u, v):
        calls.append(n)
        return real(n, m, u, v)

    monkeypatch.setattr(hybrid, "_hermite_ratio", spy)
    run_plan(load_plan(default_plan_path()))
    # one call per degree n >= 1 and per table: 1,137 from the composites
    # (NEUMANN_EXT's hybrid_k fills two tables) and 206 from the
    # LAGUERRE_HERMITE left sides
    assert 0 < len(calls) <= 1343


def test_hermite_ratio_past_factorial_range_overflows():
    assert math.isfinite(hybrid._hermite_table(2, 0.5, 0.5)(170))
    with pytest.raises(OverflowError):
        hybrid._hermite_table(2, 0.5, 0.5)(171)
    with pytest.raises(OverflowError):  # before any power is tabled
        hybrid._hermite_table(2, 0.5, 0.5)(10**12)


def _first_overflow(powers):
    """The first degree whose direct-sum powers overflow, or 171, past every table."""
    for n in range(171):
        try:
            for x, k in powers(n):
                math.pow(x, k)
        except OverflowError:
            return n
    return 171


@pytest.mark.parametrize(
    "m,u,v", [(1, 3000.0, 0.0), (2, 0.5, -1e30), (3, -1e10, 1e100), (1, 1e300, 2.0), (2, 70.0, 65.0)]
)
def test_tables_overflow_where_the_direct_sums_powers_do(m, u, v):
    tables = [
        (hybrid._hermite_table(m, u, v), _first_overflow(lambda n: [(u, n), (v, n // m)])),
        (hybrid._laguerre_table(u, v), _first_overflow(lambda n: [(u, n), (v, n)])),
    ]
    for ratio, top in tables:
        ratio(top - 1)
        with pytest.raises(OverflowError):
            ratio(top)


@pytest.mark.parametrize(
    "call",
    [
        lambda: h_tricomi(0.0, 1, 3000.0, 0.0),
        lambda: hybrid_k(0.0, -1, 3000.0, 0.0, 1.0),
        lambda: h_wright(0.0, 1, 1.0, 1e6, 0.0),
        lambda: l_tricomi(0.0, 1e200, 1.0),
    ],
    ids=["h_tricomi", "hybrid_k", "h_wright", "l_tricomi"],
)
def test_composite_overflow_is_a_domain_error(call):
    with pytest.raises(EvaluationDomainError) as info:
        call()
    assert isinstance(info.value.index, int)
