"""Base function families, each evaluated from its defining series.

Series evaluation is deliberately the only strategy here: the harness targets
desk-scale arguments (|x| <= 10 or so) where the ascending series converge in
a few dozen terms, and a single auditable code path is worth more than
asymptotic switchovers.

The series loops themselves are the kernels in ``besselsums.backend``; this
layer checks the arguments and turns a kernel's raw tuple into a
``SeriesEval`` certificate, raising ``EvaluationDomainError`` on the kernels'
non-finite sentinel.
"""

import math

from besselsums import backend
from besselsums.series import (
    DEFAULT_POLICY,
    EvaluationDomainError,
    SeriesEval,
    SummationPolicy,
)


def _wrap(raw, what: str) -> SeriesEval:
    value, terms, last_mag, converged = raw
    if not math.isfinite(value):
        raise EvaluationDomainError(f"non-finite term while summing {what}", index=terms - 1)
    return SeriesEval(value, terms, last_mag, bool(converged))


def _require_finite(**kwargs):
    for name, v in kwargs.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def bessel_j(nu: float, x: float, policy: SummationPolicy = DEFAULT_POLICY) -> SeriesEval:
    """Bessel function of the first kind J_nu(x) by its ascending series.

    Negative integer orders come out of the same series: the leading terms
    vanish at the reciprocal-gamma poles, which is exactly what makes
    J_{-n}(x) = (-1)^n J_n(x) hold.

    x < 0 is allowed only for integer nu (the (x/2)^(2k+nu) factor is then
    single-valued); x = 0 with negative non-integer nu diverges.
    """
    nu, x = float(nu), float(x)
    _require_finite(nu=nu, x=x)
    nu_is_int = nu == math.floor(nu)
    if x < 0.0 and not nu_is_int:
        raise ValueError(f"bessel_j with non-integer nu={nu} requires x >= 0, got x={x}")
    if x == 0.0 and nu < 0.0 and not nu_is_int:
        raise ValueError(f"bessel_j diverges at x=0 for negative non-integer nu={nu}")
    raw = backend.bessel_j_series(
        nu, x, policy.abs_tol, policy.rel_tol, policy.max_terms, policy.consecutive_small
    )
    return _wrap(raw, f"J_{nu}({x})")


def tricomi_c(alpha: float, x: float, policy: SummationPolicy = DEFAULT_POLICY) -> SeriesEval:
    """Tricomi function C_alpha(x) = sum_k (-x)^k / (k! Gamma(alpha+k+1)).

    Entire in x; related to the Bessel family by C_alpha(x) = x^(-alpha/2) J_alpha(2 sqrt x).
    """
    alpha, x = float(alpha), float(x)
    _require_finite(alpha=alpha, x=x)
    raw = backend.tricomi_series(
        alpha, x, policy.abs_tol, policy.rel_tol, policy.max_terms, policy.consecutive_small
    )
    return _wrap(raw, f"C_{alpha}({x})")


def wright(nu: float, mu: float, x: float, policy: SummationPolicy = DEFAULT_POLICY) -> SeriesEval:
    """Wright function sum_r x^r / (r! Gamma(nu + mu r)) for mu > 0."""
    nu, mu, x = float(nu), float(mu), float(x)
    _require_finite(nu=nu, mu=mu, x=x)
    if mu <= 0.0:
        raise ValueError(f"wright requires mu > 0, got mu={mu}")
    raw = backend.wright_series(
        nu, mu, x, policy.abs_tol, policy.rel_tol, policy.max_terms, policy.consecutive_small
    )
    return _wrap(raw, f"W_{nu}({x}|{mu})")


def laguerre2(n: int, x: float, y: float) -> float:
    """Two-variable Laguerre polynomial n! sum_k (-x)^k y^(n-k) / ((n-k)! (k!)^2).

    Equals y^n L_n(x/y) with L_n the ordinary Laguerre polynomial; exact
    integer coefficients, summed in increasing k for reproducibility.
    """
    n = _check_index(n)
    out = 0.0
    for k in range(n + 1):
        out += math.comb(n, k) * math.pow(-x, k) * math.pow(y, n - k) / float(math.factorial(k))
    return out


def hermite_m(n: int, m: int, x: float, y: float) -> float:
    """Higher-order Hermite polynomial n! sum_k x^(n-mk) y^k / ((n-mk)! k!).

    The generating function is sum_n t^n/n! H_n = exp(x t + y t^m); m = 2
    gives the usual two-variable Hermite polynomials.
    """
    n = _check_index(n)
    if m != int(m) or int(m) < 1:
        raise ValueError(f"order m must be an integer >= 1, got {m!r}")
    m = int(m)
    out = 0.0
    fact_n = math.factorial(n)
    for k in range(n // m + 1):
        coeff = fact_n // (math.factorial(n - m * k) * math.factorial(k))
        out += coeff * math.pow(x, n - m * k) * math.pow(y, k)
    return out


def _check_index(n) -> int:
    if n != int(n) or int(n) < 0:
        raise ValueError(f"degree n must be a nonnegative integer, got {n!r}")
    return int(n)
