"""Base function families, each evaluated from its defining series.

Series evaluation is deliberately the only strategy here: a single auditable
code path is worth more than asymptotic switchovers.  The ascending series
converge in a few dozen terms at desk-scale arguments, but the J series loses
its digits to cancellation well before its term budget ends near x = 285:
``bessel_j(0, 40)`` returns 0.3252 (true value 0.007367) with
``converged=True``.  A certificate bounds only the truncated tail, not that
rounding error, so it cannot show such a failure yet (see README).

Reciprocal gamma and the Bessel and Tricomi series loops are the kernels in
``besselsums.backend``; this layer checks the arguments and returns the
``SeriesEval`` certificate that a series kernel built.  Every sum here runs
under the fixed summation policy of ``besselsums.series``, so a value depends
on its arguments alone.  The kernels raise ``EvaluationDomainError``
themselves on a term or sum that is not finite.  The Wright function is the
Hermite-based Wright composite at v = 0, summed by ``besselsums.hybrid``.
The two polynomial families refuse a non-finite argument with ``ValueError``
naming it, and raise ``EvaluationDomainError`` when a term overflows float
range.
"""

import math

from besselsums import backend, hybrid
from besselsums.series import EvaluationDomainError, SeriesEval, require_finite, require_int


def reciprocal_gamma(a: float) -> float:
    """1/Gamma(a) for any finite real a.

    Exactly 0.0 when a is a non-positive integer, so series over shifted orders
    drop their leading terms with no rounding residue.  Where Gamma(a) is a
    normal float, -170.5 <= a < 171.6, it is 1/math.gamma(a) (the correctly
    rounded 1/(a-1)! at integers up to 34), within 7 ulps of 1/Gamma: the
    worst of 12,000 points checked against mpmath was 6.0 ulps, where
    exp(-lgamma(a)) was off by up to 1,500.  Outside that range it is
    exp(-lgamma(a)): subnormal, then 0.0, above; inf from about -171.5 down.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"reciprocal_gamma requires a finite argument, got {a!r}")
    return backend.recip_gamma(a)


def bessel_j(nu: float, x: float) -> SeriesEval:
    """Bessel function of the first kind J_nu(x) by its ascending series.

    Negative integer orders come out of the same series: the leading terms
    vanish at the reciprocal-gamma poles, which is exactly what makes
    J_{-n}(x) = (-1)^n J_n(x) hold.

    x < 0 is allowed only for integer nu (the (x/2)^(2k+nu) factor is then
    single-valued); x = 0 with negative non-integer nu diverges.
    """
    nu, x = float(nu), float(x)
    if nu - nu != 0.0 or x - x != 0.0:  # inf or nan; skip the keyword call otherwise
        require_finite(nu=nu, x=x)
    if x <= 0.0 and nu != math.floor(nu):
        if x < 0.0:
            raise ValueError(f"bessel_j with non-integer nu={nu} requires x >= 0, got x={x}")
        if nu < 0.0:
            raise ValueError(f"bessel_j diverges at x=0 for negative non-integer nu={nu}")
    return backend.bessel_j_series(nu, x)


def tricomi_c(alpha: float, x: float) -> SeriesEval:
    """Tricomi function C_alpha(x) = sum_k (-x)^k / (k! Gamma(alpha+k+1)).

    Entire in x; related to the Bessel family by C_alpha(x) = x^(-alpha/2) J_alpha(2 sqrt x).
    """
    alpha, x = float(alpha), float(x)
    if alpha - alpha != 0.0 or x - x != 0.0:
        require_finite(alpha=alpha, x=x)
    return backend.tricomi_series(alpha, x)


def wright(nu: float, mu: float, x: float) -> SeriesEval:
    """Wright function sum_r x^r / (r! Gamma(nu + mu r)) for mu > 0.

    The Hermite-based Wright function ``h_wright(nu - 1, 1, mu, x, 0)``, whose
    kernel is H_r^(1)(x, 0) = x^r, summed with the Gamma offset nu itself so
    that nu + mu r is rounded once.
    """
    nu, mu, x = float(nu), float(mu), float(x)
    require_finite(nu=nu, mu=mu, x=x)
    if mu <= 0.0:
        raise ValueError(f"wright requires mu > 0, got mu={mu}")
    return hybrid._gamma_series(hybrid._hermite_table(1, x, 0.0), nu, mu, False)


def laguerre2(n: int, x: float, y: float) -> float:
    """Two-variable Laguerre polynomial n! sum_k (-x)^k y^(n-k) / ((n-k)! (k!)^2).

    Equals y^n L_n(x/y) with L_n the ordinary Laguerre polynomial; exact
    integer coefficients, summed in increasing k for reproducibility.  The
    reference definition for the recurrence tables of ``hybrid``.
    """
    n = require_int("n", n, minimum=0)
    if x - x != 0.0 or y - y != 0.0:
        require_finite(x=x, y=y)
    out = 0.0
    try:
        for k in range(n + 1):
            out += math.comb(n, k) * math.pow(-x, k) * math.pow(y, n - k) / float(math.factorial(k))
    except OverflowError as exc:
        raise EvaluationDomainError(f"overflow in term {k} of L_{n}({x}, {y})", index=k) from exc
    if not math.isfinite(out):  # a product overflowed to inf without raising
        raise EvaluationDomainError(f"L_{n}({x}, {y}) overflows float range")
    return out


def hermite_m(n: int, m: int, x: float, y: float) -> float:
    """Higher-order Hermite polynomial n! sum_k x^(n-mk) y^k / ((n-mk)! k!).

    The generating function is sum_n t^n/n! H_n = exp(x t + y t^m); m = 2
    gives the usual two-variable Hermite polynomials.  The reference
    definition for the recurrence tables of ``hybrid``.
    """
    n = require_int("n", n, minimum=0)
    m = require_int("m", m, minimum=1)
    if x - x != 0.0 or y - y != 0.0:
        require_finite(x=x, y=y)
    out = 0.0
    try:
        for k in range(n // m + 1):
            # n! / ((n-mk)! k!) as an exact integer, without n! itself, whose
            # size makes every term slow at large n
            coeff = math.comb(n, m * k) * (math.factorial(m * k) // math.factorial(k))
            out += coeff * math.pow(x, n - m * k) * math.pow(y, k)
    except OverflowError as exc:
        raise EvaluationDomainError(f"overflow in term {k} of H_{n}^({m})({x}, {y})", index=k) from exc
    if not math.isfinite(out):  # a product overflowed to inf without raising
        raise EvaluationDomainError(f"H_{n}^({m})({x}, {y}) overflows float range")
    return out

