"""Composite families: series whose power kernel is replaced by a polynomial
family (Hermite- and Laguerre-based Tricomi/Wright functions, and the nested
hybrid K series built from Hermite-based Tricomi functions of stepped order).

All of these, and the plain Wright function, are one shape: the Gamma-weighted
series sum_k (+-1)^k p_k / Gamma(mu k + a), summed by ``_gamma_series``
through the generic engine, with a = nu + 1 for the composites and a = nu for
the Wright function, so that mu k + a is rounded once.  The weights p_k are
the reduced polynomials H_k/k! and L_k/k!, which keeps intermediate magnitudes
tame; the sum starts past a leading run of Gamma poles
(``backend.leading_pole_shift`` of the same a).

Each Hermite-based composite call reads H_n/n! from its own table, so every
ratio, and every power u^j and v^k in it, is computed at most once per call.
``hybrid_k`` shares one table across all its inner sums: every inner
HC_(m k + mu)(x, y) reads the same H_j^(2)(x, y)/j!.  The table lives for one
call only.
"""

import math
from dataclasses import replace

from besselsums import backend
from besselsums.series import (
    DEFAULT_POLICY,
    SeriesEval,
    SummationPolicy,
    require_finite,
    sum_series,
)


# n! as floats; 171! is past float range
_FACTORIAL = tuple(float(math.factorial(i)) for i in range(171))


def _hermite_ratio(n: int, m: int, upow, vpow) -> float:
    """H_n^(m)(u, v) / n! from the powers upow[j] = u^j (j <= n) and
    vpow[k] = v^k (k <= n // m), for n < 171."""
    out = 0.0
    for k in range(n // m + 1):
        j = n - m * k
        out += upow[j] * vpow[k] / (_FACTORIAL[j] * _FACTORIAL[k])
    return out


def _hermite_table(m: int, u: float, v: float):
    """n -> H_n^(m)(u, v) / n!, each ratio and each power computed on first use only."""
    table = {}
    upow = []
    vpow = []

    def ratio(n: int) -> float:
        r = table.get(n)
        if r is None:
            if n >= len(_FACTORIAL):
                raise OverflowError(f"{n}! is past float range")
            while len(upow) <= n:
                upow.append(math.pow(u, len(upow)))
            while len(vpow) <= n // m:
                vpow.append(math.pow(v, len(vpow)))
            r = table[n] = _hermite_ratio(n, m, upow, vpow)
        return r

    return ratio


def _laguerre_ratio(n: int, u: float, v: float) -> float:
    """L_n(u, v) / n!"""
    if n >= len(_FACTORIAL):
        raise OverflowError(f"{n}! is past float range")
    out = 0.0
    for k in range(n + 1):
        out += math.pow(-u, k) * math.pow(v, n - k) / (_FACTORIAL[n - k] * _FACTORIAL[k] ** 2)
    return out


def _sparse_guard(policy: SummationPolicy, m: int, u: float) -> SummationPolicy:
    """At u = 0 only every m-th Hermite term survives; require a run of m
    negligible terms so the structural zeros between them cannot stop the sum."""
    if u == 0.0 and m > policy.consecutive_small:
        return replace(policy, consecutive_small=m)
    return policy


def _gamma_series(
    ratio, a: float, mu: float, alternating: bool, policy: SummationPolicy
) -> SeriesEval:
    """sum_k (+-1)^k ratio(k) / Gamma(mu k + a), from the first k off a pole.

    The one place a Gamma-weighted term is built: every composite (and the
    Wright function) is this sum with its own polynomial ratio.
    """
    k0 = backend.leading_pole_shift(a, mu)
    recip_gamma = backend.recip_gamma

    def term(i: int) -> float:
        k = i + k0
        t = ratio(k) * recip_gamma(mu * k + a)
        return -t if alternating and k & 1 else t

    return sum_series(term, policy)


def h_tricomi(
    nu: float, m: int, u: float, v: float, policy: SummationPolicy = DEFAULT_POLICY
) -> SeriesEval:
    """Hermite-based Tricomi function: sum_k (-1)^k H_k^(m)(u,v) / (k! Gamma(nu+k+1)).

    Reduces to tricomi_c(nu, u) at v = 0.
    """
    require_finite(nu=nu, m=m, u=u, v=v)
    m = _check_order(m)
    policy = _sparse_guard(policy, m, u)
    return _gamma_series(_hermite_table(m, u, v), nu + 1.0, 1.0, True, policy)


def l_tricomi(nu: float, u: float, v: float, policy: SummationPolicy = DEFAULT_POLICY) -> SeriesEval:
    """Laguerre-based Tricomi function: sum_k (-1)^k L_k(u,v) / (k! Gamma(nu+k+1)).

    Reduces to tricomi_c(nu, v) at u = 0.
    """
    require_finite(nu=nu, u=u, v=v)
    return _gamma_series(lambda k: _laguerre_ratio(k, u, v), nu + 1.0, 1.0, True, policy)


def h_wright(
    nu: float,
    m: int,
    mu: float,
    u: float,
    v: float,
    policy: SummationPolicy = DEFAULT_POLICY,
) -> SeriesEval:
    """Hermite-based Wright function: sum_k H_k^(m)(u,v) / (k! Gamma(mu k + nu + 1))."""
    require_finite(nu=nu, m=m, mu=mu, u=u, v=v)
    m = _check_order(m)
    if mu <= 0.0:
        raise ValueError(f"h_wright requires mu > 0, got mu={mu}")
    policy = _sparse_guard(policy, m, u)
    return _gamma_series(_hermite_table(m, u, v), nu + 1.0, mu, False, policy)


def hybrid_k(
    mu: float, m: int, x: float, y: float, xi: float, policy: SummationPolicy = DEFAULT_POLICY
) -> SeriesEval:
    """Hybrid K function: sum_k xi^k/k! * HC_(m k + mu)(x, y), where HC is the
    Hermite-based Tricomi function of superscript 2.

    The inner superscript stays fixed at 2 for every m, matching the family's
    definition.  m may be any nonzero integer; negative m steps the inner
    order downward, the branch the extended Neumann sum rule actually needs.
    With non-integer mu those inner terms grow like xi^k (|m| k)!/k!, so for
    xi != 0 the series converges only at m = -1 with |xi| < 1; elsewhere it
    raises ValueError.  The inner sums run at 10x tighter tolerance so the
    outer truncation dominates the error budget; the certificate is converged
    only if the outer sum and every inner sum converged.
    """
    require_finite(mu=mu, m=m, x=x, y=y, xi=xi)
    if m != int(m) or int(m) == 0:
        raise ValueError(f"m must be a nonzero integer, got {m!r}")
    m = int(m)
    if m < 0 and mu != math.floor(mu) and xi != 0.0 and (m < -1 or abs(xi) >= 1.0):
        raise ValueError(
            "hybrid_k diverges for m < 0 with non-integer mu unless m = -1 and |xi| < 1, "
            f"got mu={mu}, m={m}, xi={xi}"
        )
    inner_policy = _sparse_guard(policy.tightened(10.0), 2, x)
    ratio = _hermite_table(2, x, y)
    inner_ok = True

    def term(k: int) -> float:
        nonlocal inner_ok
        inner = _gamma_series(ratio, m * k + mu + 1.0, 1.0, True, inner_policy)
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
