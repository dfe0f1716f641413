"""Scalar kernels for the hot series loops.

``recip_gamma`` and the Bessel and Tricomi series loops, in pure Python over
floats.  The series kernels' one loop reads the fixed ``ABS_TOL``,
``REL_TOL`` and ``MAX_TERMS`` of ``besselsums.series``, so a J or C value is
a function of its arguments alone.  Each uses Neumaier-compensated
accumulation and returns the ``SeriesEval`` certificate of its sum.  A term
that is not finite, or a sum that overflows, raises ``EvaluationDomainError``
with the index of the last term summed.

The Bessel and Tricomi series share one loop, ``_ratio_series``: both step
their terms by ``c / ((k + 1)(a + k + 1))``.  It stops only on a proved tail:
once a + k + 1 > 0 those steps shrink with k, so with r = |c| / ((k + 1)(a + k
+ 1)) < 1 the terms from index k on sum to at most |t_k| / (1 - r)
(``_tail``).  The loop stops after term k - 1 once that bound is at most both
ABS_TOL and REL_TOL * |partial sum|, testing it only when |t_k| is already
below both, and returns the bound it stopped on as ``tail_bound``; a sum that
runs out of budget returns None there.  A value is thus held to both
tolerances, not the looser one: J values are multiplied by partners of any
size in the rule sides, so a tiny one must keep its relative digits.  The loop
never stops on small terms alone.

Negative-integer orders make a leading run of their terms vanish exactly at
reciprocal-gamma poles; both kernels start past that run
(``leading_pole_shift``).  The Wright function and the composites are summed
in ``besselsums.hybrid``, which starts its Gamma-weighted series by the same
``leading_pole_shift``.
"""

import math

from besselsums.series import ABS_TOL, MAX_TERMS, REL_TOL, EvaluationDomainError, SeriesEval

BACKEND = "pure-python"

# 1/(k-1)! as floats: correctly rounded, where 1/math.gamma(k) is off by up to
# 2.2 ulps at k = 24..34
_INV_FACTORIAL = tuple(1.0 / float(math.factorial(k)) for k in range(34))


def _recip_gamma(a):
    """1/Gamma(a) for finite real a, exactly 0.0 at the poles a = 0, -1, -2, ...

    1/math.gamma(a), within 7 ulps, where Gamma(a) is a normal float
    (-170.5 <= a < 171.6); outside, exp(-lgamma(a)), whose error grows with
    |lgamma(a)| (1/Gamma is subnormal, then 0.0, above the range, and past
    float range below it).
    """
    if a == math.floor(a):
        if a <= 0.0:
            return 0.0
        if a <= 34.0:
            return _INV_FACTORIAL[int(a) - 1]
    if -170.5 <= a < 171.6:
        return 1.0 / math.gamma(a)
    try:
        g = math.exp(-math.lgamma(a))
    except OverflowError:
        # above the range lgamma(a) itself overflows (from a = 2.56e305), and
        # 1/Gamma is 0.0; below it 1/Gamma is past float range and becomes inf,
        # so a kernel summing it raises EvaluationDomainError, not OverflowError
        g = 0.0 if a > 0.0 else math.inf
    if a > 0.0:
        return g
    # sign of Gamma alternates between consecutive negative-axis poles
    return -g if int(math.floor(a)) & 1 else g


# The kernels call ``_recip_gamma`` and never this public name, so a wrapper
# patched over ``recip_gamma`` (the benchmark's kernels.recip_gamma span)
# counts only the calls made from outside this module.
recip_gamma = _recip_gamma


def leading_pole_shift(a, step=1.0):
    """First index k whose weight 1/Gamma(step k + a) is off a pole.

    For a nonpositive integer a leading run of the series' terms vanishes
    identically (the first 1 - a of them at step 1); starting past it keeps
    the stop rule honest.  With a non-integer step only k = 0 is sure to sit
    on a pole.  ``a`` and ``step`` are finite, ``step`` > 0.
    """
    if a <= 0.0 and a == math.floor(a):
        if step == math.floor(step):
            return int(-a // step) + 1  # first k with step k + a >= 1
        return 1
    return 0


def _tail(mag, a, ac, k):
    """Bound on |t_k| + |t_(k+1)| + ... of a ratio series with |t_k| = mag
    and |c| = ac, or inf before the steps are sure to shrink."""
    d = (k + 1.0) * (a + k + 1.0)
    if a + k + 1.0 > 0.0 and ac < d:
        return mag / (1.0 - ac / d)
    return math.inf


def _ratio_series(term, a, c, k0, symbol, x):
    """Sum from the index-k0 term ``term``, with term_(k+1) = term_k c / ((k+1)(a+k+1)),
    certified with the tail bound it stopped on, or None without a proved stop;
    ``symbol``_a(x) names the sum in the error a non-finite term or total raises."""
    abs_tol, rel_tol = ABS_TOL, REL_TOL
    total = 0.0
    comp = 0.0
    ac = abs(c)
    k = float(k0)
    mag = abs(term)
    last_mag = 0.0
    tail = None
    for terms in range(1, MAX_TERMS + 1):
        t = total + term
        if abs(total) >= mag:
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if t - t != 0.0:  # the term, or the sum with it, is inf or nan
            break
        last_mag = mag
        term = term * c / ((k + 1.0) * (a + k + 1.0))
        k += 1.0
        mag = abs(term)
        if mag <= abs_tol:  # the tail is at least |t_k|: test its bound only past both tolerances
            s = rel_tol * abs(total + comp)
            if mag <= s:
                bound = _tail(mag, a, ac, k)
                if bound <= s and bound <= abs_tol:
                    tail = bound
                    break
    value = total + comp  # non-finite once total is, or if the compensation overflows it
    if value - value != 0.0:
        raise EvaluationDomainError(f"non-finite term while summing {symbol}_{a}({x})", index=terms - 1)
    return SeriesEval(value, terms, last_mag, tail is not None, tail)


def bessel_j_series(nu, x):
    """Ascending series for J_nu(x): sum_k (-1)^k (x/2)^(2k+nu) / (k! Gamma(nu+k+1))."""
    half = 0.5 * x
    k0 = leading_pole_shift(nu + 1.0)
    try:
        term = math.pow(half, 2.0 * k0 + nu) * _recip_gamma(nu + k0 + 1.0) * _recip_gamma(k0 + 1.0)
    except OverflowError:
        term = math.inf
    if k0 & 1:
        term = -term
    return _ratio_series(term, nu, -(half * half), k0, "J", x)


def tricomi_series(alpha, x):
    """Tricomi series C_alpha(x): sum_k (-x)^k / (k! Gamma(alpha+k+1))."""
    k0 = leading_pole_shift(alpha + 1.0)
    try:
        term = math.pow(-x, k0) * _recip_gamma(alpha + k0 + 1.0) * _recip_gamma(k0 + 1.0)
    except OverflowError:
        term = math.inf
    return _ratio_series(term, alpha, -x, k0, "C", x)
