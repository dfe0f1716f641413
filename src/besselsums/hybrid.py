"""Composite families: series whose power kernel is replaced by a polynomial
family (Hermite- and Laguerre-based Tricomi/Wright functions, and the nested
hybrid K series built from Hermite-based Tricomi functions of stepped order).

All of these run through the generic engine with terms built from the reduced
polynomials H_n/n! and L_n/n!, which keeps intermediate magnitudes tame.
"""

import math
from dataclasses import replace

from besselsums import backend
from besselsums.series import DEFAULT_POLICY, SeriesEval, SummationPolicy, sum_series


def _hermite_ratio(n: int, m: int, u: float, v: float) -> float:
    """H_n^(m)(u, v) / n!"""
    out = 0.0
    for k in range(n // m + 1):
        out += (
            math.pow(u, n - m * k)
            * math.pow(v, k)
            / (float(math.factorial(n - m * k)) * float(math.factorial(k)))
        )
    return out


def _laguerre_ratio(n: int, u: float, v: float) -> float:
    """L_n(u, v) / n!"""
    out = 0.0
    for k in range(n + 1):
        out += (
            math.pow(-u, k)
            * math.pow(v, n - k)
            / (float(math.factorial(n - k)) * float(math.factorial(k)) ** 2)
        )
    return out


def _sparse_guard(policy: SummationPolicy, m: int, u: float) -> SummationPolicy:
    """At u = 0 only every m-th Hermite term survives; require a run of m
    negligible terms so the structural zeros between them cannot stop the sum."""
    if u == 0.0 and m > policy.consecutive_small:
        return replace(policy, consecutive_small=m)
    return policy


def h_tricomi(
    nu: float, m: int, u: float, v: float, policy: SummationPolicy = DEFAULT_POLICY
) -> SeriesEval:
    """Hermite-based Tricomi function: sum_k (-1)^k H_k^(m)(u,v) / (k! Gamma(nu+k+1)).

    Reduces to tricomi_c(nu, u) at v = 0.
    """
    m = _check_order(m)
    j0 = backend.leading_pole_shift(nu)
    p = _sparse_guard(policy, m, u)

    def term(i: int) -> float:
        j = i + j0
        sign = -1.0 if j & 1 else 1.0
        return sign * _hermite_ratio(j, m, u, v) * backend.recip_gamma(nu + j + 1.0)

    return sum_series(term, p)


def l_tricomi(nu: float, u: float, v: float, policy: SummationPolicy = DEFAULT_POLICY) -> SeriesEval:
    """Laguerre-based Tricomi function: sum_k (-1)^k L_k(u,v) / (k! Gamma(nu+k+1)).

    Reduces to tricomi_c(nu, v) at u = 0.
    """
    j0 = backend.leading_pole_shift(nu)

    def term(i: int) -> float:
        j = i + j0
        sign = -1.0 if j & 1 else 1.0
        return sign * _laguerre_ratio(j, u, v) * backend.recip_gamma(nu + j + 1.0)

    return sum_series(term, policy)


def h_wright(
    nu: float,
    m: int,
    mu: float,
    u: float,
    v: float,
    policy: SummationPolicy = DEFAULT_POLICY,
) -> SeriesEval:
    """Hermite-based Wright function: sum_k H_k^(m)(u,v) / (k! Gamma(mu k + nu + 1))."""
    m = _check_order(m)
    if mu <= 0.0:
        raise ValueError(f"h_wright requires mu > 0, got mu={mu}")
    p = _sparse_guard(policy, m, u)

    def term(k: int) -> float:
        return _hermite_ratio(k, m, u, v) * backend.recip_gamma(mu * k + nu + 1.0)

    return sum_series(term, p)


def hybrid_k(
    mu: float, m: int, x: float, y: float, xi: float, policy: SummationPolicy = DEFAULT_POLICY
) -> SeriesEval:
    """Hybrid K function: sum_k xi^k/k! * HC_(m k + mu)(x, y), where HC is the
    Hermite-based Tricomi function of superscript 2.

    The inner superscript stays fixed at 2 for every m, matching the family's
    definition.  m may be any nonzero integer; negative m steps the inner
    order downward, the branch the extended Neumann sum rule actually needs.
    The inner sums run at 10x tighter tolerance so the outer truncation
    dominates the error budget; the certificate is converged only if the
    outer sum and every inner sum converged.
    """
    if m != int(m) or int(m) == 0:
        raise ValueError(f"m must be a nonzero integer, got {m!r}")
    m = int(m)
    inner_policy = policy.tightened(10.0)
    inner_ok = True

    def term(k: int) -> float:
        nonlocal inner_ok
        inner = h_tricomi(m * k + mu, 2, x, y, inner_policy)
        if not inner.converged:
            inner_ok = False
        return math.pow(xi, k) * inner.value / float(math.factorial(k))

    out = sum_series(term, policy)
    if not inner_ok:
        return SeriesEval(out.value, out.terms_used, out.last_term_magnitude, False)
    return out


def _check_order(m) -> int:
    if m != int(m) or int(m) < 1:
        raise ValueError(f"order m must be an integer >= 1, got {m!r}")
    return int(m)
