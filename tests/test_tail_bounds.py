"""Proved tail bounds against mpmath: the Bessel and Tricomi kernels, and the
J-weighted rule sides that stop on a majorant.

Each check splits a returned value's error into the terms left out, which the
certificate's ``tail_bound`` must cover, and the rounding of the terms that
were summed, which gets an allowance derived from a per-step rounding count
(u = 2^-53 is the unit roundoff):

* kernels: the leading term comes from one ``pow`` (<= 1 ulp), two reciprocal
  gammas (<= 7 ulps each) and two products, at most 32u relative; each ratio
  step adds at most 6u (the step constant c, a + k, + 1, the product, the
  multiplication by c and the division).  Term i is then off by at most
  (32 + 6i)u relative, and the compensated sum adds 2u|S|.
* rule sides: the summed terms are compared one by one with their exact
  values, so the allowance is the sum of those differences plus 4u of each
  term for the engine's compensated sum.
"""

import cmath
import math

import pytest

from besselsums import backend, bessel_j, rules, series, tricomi_c
from besselsums.series import DEFAULT_POLICY

mpmath = pytest.importorskip("mpmath")

U = 2.0**-53
ORDERS = (-3.0, 0.0, 0.5, 1.0, 2.5, 5.0)


def _kernel_case(a, c, k0, first, value, cert, exact):
    """|value - exact| <= tail_bound + rounding allowance, and the bound is
    the one the stop rule accepted: within both tolerances."""
    assert cert.converged and cert.tail_bound is not None
    assert cert.tail_bound <= min(DEFAULT_POLICY.abs_tol, DEFAULT_POLICY.rel_tol * abs(value))
    terms = [first]
    for k in range(k0, k0 + cert.terms_used - 1):
        terms.append(terms[-1] * c / ((k + 1) * (a + k + 1)))
    allowance = U * (
        mpmath.fsum((32 + 6 * i) * abs(t) for i, t in enumerate(terms)) + 2 * abs(value)
    )
    assert abs(value - exact) <= cert.tail_bound + allowance


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0])
def test_bessel_kernel_error_within_tail_bound(nu, x):
    cert = bessel_j(nu, x)
    with mpmath.workdps(40):
        k0 = backend.leading_pole_shift(nu + 1.0)
        half = mpmath.mpf(x) / 2
        first = (-1) ** k0 * half ** (2 * k0 + nu) * mpmath.rgamma(nu + k0 + 1)
        first /= mpmath.factorial(k0)
        _kernel_case(nu, -half * half, k0, first, cert.value, cert, mpmath.besselj(nu, x))


@pytest.mark.parametrize("alpha", ORDERS)
@pytest.mark.parametrize("x", [-2.0, 0.1, 0.5, 1.0, 3.0, 5.0, 10.0])
def test_tricomi_kernel_error_within_tail_bound(alpha, x):
    cert = tricomi_c(alpha, x)
    with mpmath.workdps(40):
        k0 = backend.leading_pole_shift(alpha + 1.0)
        mx = -mpmath.mpf(x)
        exact = mpmath.fsum(
            mx**k * mpmath.rgamma(k + 1) * mpmath.rgamma(alpha + k + 1) for k in range(120)
        )
        first = mx**k0 * mpmath.rgamma(alpha + k0 + 1) / mpmath.factorial(k0)
        _kernel_case(alpha, mx, k0, first, cert.value, cert, exact)


@pytest.mark.parametrize("function", [bessel_j, tricomi_c])
@pytest.mark.parametrize(
    "order, x", [(0.5, 1.0), (-3.0, 2.5), (-5.0, -4.2), (2.0, -1.7), (11.25, 6.0)]
)
def test_certificate_carries_the_bound_the_loop_accepted(function, order, x, monkeypatch):
    bounds = []
    real = backend._tail

    def spy(*args):
        bounds.append(real(*args))
        return bounds[-1]

    monkeypatch.setattr(backend, "_tail", spy)
    cert = function(order, x)
    # the loop's last bound is the one that stopped it
    assert bounds[-1] == cert.tail_bound


def test_tiny_value_keeps_its_relative_digits():
    # J_-16(2) ~ 4.5e-14 meets J_-13.5(4) ~ -6.5e4 in GRAF_PHASE at nu = 2.5, so it
    # needs its relative digits: abs_tol alone would allow a 20% error
    cert = bessel_j(-16, 2.0)
    with mpmath.workdps(30):
        exact = mpmath.besselj(-16, 2.0)
        assert abs(cert.value - exact) <= 1e-12 * abs(exact)


def test_kernel_tail_bound_is_none_out_of_budget():
    cert = bessel_j(0.0, 9.5, series.SummationPolicy(max_terms=8))
    assert not cert.converged and cert.tail_bound is None


# ---------------------------------------------------------------------------
# rule sides


@pytest.fixture
def recorded(monkeypatch):
    """The terms each engine call made from ``rules`` summed, index -> value."""
    calls = []

    def wrap(engine):
        def recording(term, policy=DEFAULT_POLICY, majorant=None):
            seen = {}
            calls.append(seen)

            def record(n):
                seen[n] = term(n)
                return seen[n]

            return engine(record, policy, majorant)

        return recording

    monkeypatch.setattr(rules, "sum_series", wrap(series.sum_series))
    monkeypatch.setattr(rules, "sum_bilateral", wrap(series.sum_bilateral))
    return calls


def _j(nu, x):
    return mpmath.besselj(nu, x)


def _laguerre(n, x, y):  # L_n(x, y) / n!
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    return mpmath.fsum(
        (-x) ** k * y ** (n - k) / (mpmath.factorial(n - k) * mpmath.factorial(k) ** 2)
        for k in range(n + 1)
    )


# side, a call returning a record with that left side, the exact n-th term, bilateral
SIDES = {
    "ASCENDING_GEN": (
        lambda: rules.rule_ascending_gen(0.5, 3.0, 0.6),
        lambda n: mpmath.mpf(0.6) ** n / mpmath.factorial(n) * _j(0.5 + n, 3.0),
        False,
    ),
    "ASCENDING_GEN nu < -1/2": (
        lambda: rules.rule_ascending_gen(-1.75, 2.0, -0.4),
        lambda n: mpmath.mpf(-0.4) ** n / mpmath.factorial(n) * _j(-1.75 + n, 2.0),
        False,
    ),
    "DESCENDING_GEN": (
        lambda: rules.rule_descending_gen(2, 5.0, 1.1),
        lambda n: mpmath.mpf(-1.1) ** n / mpmath.factorial(n) * _j(2 - n, 5.0),
        False,
    ),
    "MULTIPLE_ORDER": (
        lambda: rules.rule_multiple_order(3, 2.5, 0.8),
        lambda n: mpmath.mpf(0.8) ** n / mpmath.factorial(n) * _j(3 * n, 2.5),
        False,
    ),
    "FRACTIONAL_ORDER": (
        lambda: rules.rule_fractional_order(3, 1.5, -0.35),
        lambda n: mpmath.mpf(-0.35) ** n / mpmath.factorial(n) * _j(mpmath.mpf(n) / 3, 1.5),
        False,
    ),
    "BESSEL_LAGUERRE": (
        lambda: rules.rule_bessel_laguerre(1.7, 0.6, 0.9, -0.22),
        lambda n: mpmath.mpf(-0.22) ** n * _j(n, 1.7) * _laguerre(n, 0.6, 0.9),
        False,
    ),
    "NEUMANN_EXT": (
        lambda: rules.rule_neumann_ext(0.8, 1.3, -0.55),
        lambda n: mpmath.mpf(-0.55) ** n * _j(n, 0.8) * _j(2 * n, 1.3),
        True,
    ),
    "GRAF_REAL": (
        lambda: rules.rule_graf(1, 5.0, 1.0, 1.7),
        lambda n: mpmath.mpf(1.7) ** n * _j(n + 1, 5.0) * _j(n, 1.0),
        True,
    ),
    "GRAF_PHASE": (
        lambda: rules.rule_graf_phase(2, 4.0, 2.0, 1.3),
        lambda n: mpmath.expj(n * mpmath.mpf(1.3)) * _j(n + 2, 4.0) * _j(n, 2.0),
        True,
    ),
    "WEIGHTED_S": (
        lambda: rules.weighted_sum_S(2, 3, 5.0, 2.0)[0],
        lambda n: mpmath.mpf(n) ** 3 * _j(n + 2, 5.0) * _j(n, 2.0),
        True,
    ),
    "WEIGHTED_E": (
        lambda: rules.weighted_sum_E(1, 3, 4.0),
        lambda n: mpmath.mpf(n) ** 3 / mpmath.factorial(n) * _j(n + 1, 4.0),
        False,
    ),
}


@pytest.mark.parametrize("side", list(SIDES))
def test_rule_side_error_within_tail_bound(side, recorded):
    call, exact_term, bilateral = SIDES[side]
    rec = call()
    value, cert = rec.lhs, rec.lhs_certificate
    seen = recorded[0]
    assert cert.converged and cert.tail_bound is not None
    assert cert.terms_used == len(seen)
    assert cert.tail_bound <= max(DEFAULT_POLICY.abs_tol, DEFAULT_POLICY.rel_tol * abs(value))
    with mpmath.workdps(30):
        top = max(seen)
        left_out = list(range(top + 1, top + 60))
        if bilateral:
            bottom = min(seen)
            left_out += list(range(bottom - 59, bottom))
        left_out_exact = [exact_term(n) for n in left_out]
        summed_exact = {n: exact_term(n) for n in seen}
        # the proof: everything left out is covered (up to the bound's own rounding)
        assert mpmath.fsum(abs(t) for t in left_out_exact) <= cert.tail_bound * (1 + 64 * U)
        exact = mpmath.fsum(summed_exact.values()) + mpmath.fsum(left_out_exact)
        rounding = mpmath.fsum(abs(seen[n] - summed_exact[n]) + 4 * U * abs(seen[n]) for n in seen)
        assert abs(value - exact) <= cert.tail_bound + rounding


def test_m1_certificates_match_ascending():
    asc = rules.rule_ascending_gen(0.0, 2.0, 0.5).lhs_certificate
    for rec in (rules.rule_multiple_order(1, 2.0, 0.5), rules.rule_fractional_order(1, 2.0, 0.5)):
        cert = rec.lhs_certificate
        got = (cert.value, cert.terms_used, cert.tail_bound)
        assert got == (asc.value, asc.terms_used, asc.tail_bound)


@pytest.mark.parametrize(
    "call",
    [
        # |J_(nu-n)| has no bound at hand for non-integer nu
        lambda: rules.rule_descending_gen(0.5, 3.0, 0.6),
        # nor |J_(2.5-k)| in the n < 0 direction
        lambda: rules.rule_graf_phase(2.5, 4.0, 2.0, 1.3),
        lambda: rules.rule_graf(2.5, 5.0, 1.0, 1.7),
    ],
    ids=["DESCENDING_GEN nu=0.5", "GRAF_PHASE nu=2.5", "GRAF_REAL nu=2.5"],
)
def test_non_integer_descending_orders_stop_heuristically(call):
    cert = call().lhs_certificate
    assert cert.converged and cert.tail_bound is None


def _closed_form_j(rule, params):
    """(factor, J evaluation) of the ASCENDING_GEN or GRAF_PHASE right side;
    GRAF_PHASE's factor is complex."""
    nu, x = params["nu"], params["x"]
    if rule == "ASCENDING_GEN":
        t = params["t"]
        return (x / (x - 2 * t)) ** (0.5 * nu), bessel_j(nu, math.sqrt(x * x - 2 * x * t))
    y, theta = params["y"], params["theta"]
    ratio = (x - y * cmath.exp(-1j * theta)) / (x - y * cmath.exp(1j * theta))
    arg = math.sqrt(x * x + y * y - 2 * x * y * math.cos(theta))
    return ratio ** (0.5 * nu), bessel_j(nu, arg)


def test_default_plan_j_sides_stop_on_a_proof():
    from besselsums.plan import default_plan_path, load_plan, run_plan

    proved = {"ASCENDING_GEN", "MULTIPLE_ORDER", "FRACTIONAL_ORDER", "BESSEL_LAGUERRE",
              "NEUMANN_EXT", "WEIGHTED_S", "WEIGHTED_E"}
    integer_order = {"DESCENDING_GEN", "GRAF_REAL", "GRAF_PHASE"}
    checked = scaled = 0
    for rec in run_plan(load_plan(default_plan_path())).records:
        rule, params = rec.case.rule_id.value, rec.case.params
        if rule in proved or (rule in integer_order and float(params["nu"]).is_integer()):
            assert rec.lhs_certificate.tail_bound is not None, (rule, params)
            checked += 1
        elif rule in integer_order:
            assert rec.lhs_certificate.tail_bound is None, (rule, params)
        if rule in ("ASCENDING_GEN", "GRAF_PHASE"):  # the right side is a factor times one J
            factor, j = _closed_form_j(rule, params)
            assert rec.rhs_certificate.tail_bound == abs(factor) * j.tail_bound, (rule, params)
            scaled += 1
    assert checked > 150
    assert scaled > 50
