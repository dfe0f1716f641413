"""Composite families: series whose power kernel is replaced by a polynomial
family (Hermite- and Laguerre-based Tricomi/Wright functions), and the hybrid
K series of Hermite-based Tricomi functions of stepped order.

All of these, and the plain Wright function, are one shape: the Gamma-weighted
series sum_k (+-1)^k p_k / Gamma(mu k + a), summed by ``_gamma_series``
through the generic engine, with a = nu + 1 for the composites and a = nu for
the Wright function, so that mu k + a is rounded once.  The weights p_k are
the reduced polynomials H_k/k! and L_k/k!, which keeps intermediate magnitudes
tame; the sum starts past a leading run of Gamma poles
(``backend.leading_pole_shift`` of the same a).

``hybrid_k``'s double sum is summed only where it is one series, at
m = -p < 0 with integer mu.  Its inner weight 1/Gamma(j + mu - p k + 1)
vanishes unless p k <= j + mu, so swapping the two absolutely convergent sums
(the paper's umbral step) gives HK = sum_j (-1)^j h_j g_(j+mu), with
h_j = H_j^(2)(x, y)/j! and g_n = sum_(k <= n/p) xi^k / (k! (n - p k)!) =
H_n^(p)(1, xi)/n!: two Hermite tables and no Gamma function.

Each call reads its weights from its own table, one degree at a time in O(1):
h_n = H_n^(m)(u,v)/n! by n h_n = u h_(n-1) + m v h_(n-m) from h_0 = 1, and
l_n = L_n(u,v)/n! by (n+1)^2 l_(n+1) = ((2n+1) v - u) l_n - v^2 l_(n-1) from
l_0 = 1, l_1 = v - u (DLMF 18.9's recurrence scaled by v^n/n!).  The
polynomial rules' left sides read the same tables; ``functions.laguerre2`` and
``hermite_m`` are the reference definitions.  A table keeps the direct sums'
error domain: it stops at degree 170 and raises OverflowError where u^n and
v^(n//m) (v^n for Laguerre) overflow, where the recurrences alone would sum
cancelling giants to a "converged" value.  A Hermite table of order m takes
its next power of v only at every m-th degree, so a sum over one passes
``sum_series`` the run length m: it stops only after
max(CONSECUTIVE_SMALL, m) negligible terms in a row.  Every sum here runs
under the fixed summation policy of ``besselsums.series``.
"""

import math

from besselsums import backend
from besselsums.series import SeriesEval, require_finite, require_int, sum_series


def _top_degree(x: float) -> int:
    """The largest n <= 170 with math.pow(x, n) in float range, for finite x."""
    # 64^170 = 2^1020; ln(max float) = 709.78..., so n starts at or past the edge
    n = 170 if abs(x) < 64.0 else int(709.79 / math.log(abs(x))) + 1
    while True:
        try:
            math.pow(x, n)
            return min(n, 170)
        except OverflowError:
            n -= 1


def _hermite_ratio(n: int, m: int, h: list, uv: tuple) -> float:
    """h_n = H_n^(m)(u, v) / n! from h[j] = h_j (j < n), with uv = (u, m v)."""
    u, mv = uv
    return (u * h[n - 1] + (mv * h[n - m] if n >= m else 0.0)) / n


def _hermite_table(m: int, u: float, v: float):
    """n -> H_n^(m)(u, v) / n!, each degree computed on first use only."""
    h = [1.0]
    uv = (u, m * v)
    top = min(_top_degree(u), m * _top_degree(v) + m - 1)  # u^n, v^(n//m) in range

    def ratio(n: int) -> float:
        if n < len(h):
            return h[n]
        if n > top:
            raise OverflowError(f"degree {n} of H^({m})({u}, {v}) is past float range")
        for j in range(len(h), n + 1):
            h.append(_hermite_ratio(j, m, h, uv))
        return h[n]

    return ratio


def _laguerre_table(u: float, v: float):
    """n -> L_n(u, v) / n!, each degree computed on first use only."""
    ell = [1.0, v - u]
    top = min(_top_degree(u), _top_degree(v))  # u^n, v^n in range

    def ratio(n: int) -> float:
        if n < len(ell):
            return ell[n]
        if n > top:
            raise OverflowError(f"degree {n} of L({u}, {v}) is past float range")
        for j in range(len(ell), n + 1):
            ell.append((((2 * j - 1) * v - u) * ell[j - 1] - v * v * ell[j - 2]) / (j * j))
        return ell[n]

    return ratio


def _gamma_series(ratio, a: float, mu: float, alternating: bool, run: int = 0) -> SeriesEval:
    """sum_k (+-1)^k ratio(k) / Gamma(mu k + a), from the first k off a pole,
    stopped on a run of max(CONSECUTIVE_SMALL, ``run``) negligible terms.

    The one place a Gamma-weighted term is built: every composite (and the
    Wright function) is this sum with its own polynomial ratio.
    """
    k0 = backend.leading_pole_shift(a, mu)
    recip_gamma = backend.recip_gamma

    def term(i: int) -> float:
        k = i + k0
        t = ratio(k) * recip_gamma(mu * k + a)
        return -t if alternating and k & 1 else t

    return sum_series(term, run=run)


def h_tricomi(nu: float, m: int, u: float, v: float) -> SeriesEval:
    """Hermite-based Tricomi function: sum_k (-1)^k H_k^(m)(u,v) / (k! Gamma(nu+k+1)).

    Reduces to tricomi_c(nu, u) at v = 0.
    """
    require_finite(nu=nu, u=u, v=v)
    m = require_int("m", m, minimum=1)
    return _gamma_series(_hermite_table(m, u, v), nu + 1.0, 1.0, True, m)


def l_tricomi(nu: float, u: float, v: float) -> SeriesEval:
    """Laguerre-based Tricomi function: sum_k (-1)^k L_k(u,v) / (k! Gamma(nu+k+1)).

    Reduces to tricomi_c(nu, v) at u = 0.
    """
    require_finite(nu=nu, u=u, v=v)
    return _gamma_series(_laguerre_table(u, v), nu + 1.0, 1.0, True)


def h_wright(nu: float, m: int, mu: float, u: float, v: float) -> SeriesEval:
    """Hermite-based Wright function: sum_k H_k^(m)(u,v) / (k! Gamma(mu k + nu + 1))."""
    require_finite(nu=nu, mu=mu, u=u, v=v)
    m = require_int("m", m, minimum=1)
    if mu <= 0.0:
        raise ValueError(f"h_wright requires mu > 0, got mu={mu}")
    return _gamma_series(_hermite_table(m, u, v), nu + 1.0, mu, False, m)


def hybrid_k(mu: float, m: int, x: float, y: float, xi: float) -> SeriesEval:
    """Hybrid K function: sum_k xi^k/k! * HC_(m k + mu)(x, y), where HC is the
    Hermite-based Tricomi function of superscript 2, for m = -p < 0 and
    integer mu: the domain where the double sum is one series.

    The inner superscript stays fixed at 2 for every m, matching the family's
    definition; negative m steps the inner order downward, as the extended
    Neumann sum rule needs.  The double sum is summed as the one
    series sum_(j >= max(0, -mu)) (-1)^j h_j g_(j+mu) of the module docstring,
    with h_j = H_j^(2)(x, y)/j! and g_n = H_n^(p)(1, xi)/n!; the certificate
    is that series'.  A degree past either table's ceiling (170, lower where
    x, y or xi is large) raises EvaluationDomainError, so every integer
    |mu| > 170 does: g_(j+mu) starts at degree mu, h_j at degree -mu.  Any
    other m or mu raises ValueError naming the domain.
    """
    require_finite(mu=mu, x=x, y=y, xi=xi)
    m = require_int("m", m, maximum=-1)
    shift = require_int("mu", mu)
    j0 = max(0, -shift)
    h = _hermite_table(2, x, y)
    g = _hermite_table(-m, 1.0, xi)

    def term(i: int) -> float:
        j = i + j0
        t = h(j) * g(j + shift)
        return -t if j & 1 else t

    return sum_series(term, run=max(2, -m))  # the longer of the two tables' strides
