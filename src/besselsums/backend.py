"""Scalar kernels for the hot series loops.

``recip_gamma`` and the Bessel, Tricomi and Wright series loops, in pure
Python over floats.  Each series kernel uses Neumaier-compensated
accumulation and stops once ``consecutive_small`` successive terms are no
larger than ``abs_tol + rel_tol * |partial sum|``, returning
``(value, terms_used, last_term_magnitude, converged)``.  A term that is not
finite ends the sum with the sentinel ``(nan, index + 1, inf, False)``.

The Bessel and Tricomi series share one loop, ``_ratio_series``: both step
their terms by ``c / ((k + 1)(a + k + 1))``.  Negative-integer orders make a
leading run of their terms vanish exactly at reciprocal-gamma poles; both
start past that run (``leading_pole_shift``) so the stop rule never mistakes
it for convergence.
"""

import math

BACKEND = "pure-python"

_INV_FACTORIAL = tuple(1.0 / float(math.factorial(k)) for k in range(34))


def _recip_gamma(a):
    """1/Gamma(a) for finite real a, exactly 0.0 at the poles a = 0, -1, -2, ..."""
    if a == math.floor(a):
        if a <= 0.0:
            return 0.0
        if a <= 34.0:
            return _INV_FACTORIAL[int(a) - 1]
    try:
        g = math.exp(-math.lgamma(a))
    except OverflowError:
        # 1/Gamma past float range becomes inf, so a kernel summing it hands
        # back the nan sentinel instead of raising
        g = math.inf
    if a > 0.0:
        return g
    # sign of Gamma alternates between consecutive negative-axis poles
    return -g if int(math.floor(a)) & 1 else g


# The kernels call ``_recip_gamma`` and never this public name, so a wrapper
# patched over ``recip_gamma`` (the benchmark's kernels.recip_gamma span)
# counts only the calls made from outside this module.
recip_gamma = _recip_gamma


def leading_pole_shift(order):
    """First index k whose Gamma(order + k + 1) weight is off a pole.

    For negative integer order the first |order| terms of the order's series
    vanish identically; starting past them keeps the stop rule honest.
    """
    if order < 0.0 and order == math.floor(order):
        return int(-order)
    return 0


def _ratio_series(term, a, c, k0, abs_tol, rel_tol, max_terms, consecutive_small):
    """Sum from the index-k0 term ``term``, with term_(k+1) = term_k c / ((k+1)(a+k+1))."""
    total = 0.0
    comp = 0.0
    streak = 0
    terms = 0
    last_mag = 0.0
    converged = False
    k = float(k0)
    while terms < max_terms:
        if math.isinf(term) or term != term:
            return math.nan, terms + 1, math.inf, False
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        terms += 1
        last_mag = abs(term)
        if last_mag <= abs_tol + rel_tol * abs(total + comp):
            streak += 1
            if streak >= consecutive_small:
                converged = True
                break
        else:
            streak = 0
        term = term * c / ((k + 1.0) * (a + k + 1.0))
        k += 1.0
    return total + comp, terms, last_mag, converged


def bessel_j_series(nu, x, abs_tol, rel_tol, max_terms, consecutive_small):
    """Ascending series for J_nu(x): sum_k (-1)^k (x/2)^(2k+nu) / (k! Gamma(nu+k+1))."""
    half = 0.5 * x
    k0 = leading_pole_shift(nu)
    try:
        term = math.pow(half, 2.0 * k0 + nu) * _recip_gamma(nu + k0 + 1.0) * _recip_gamma(k0 + 1.0)
    except OverflowError:
        term = math.inf
    if k0 & 1:
        term = -term
    return _ratio_series(
        term, nu, -(half * half), k0, abs_tol, rel_tol, max_terms, consecutive_small
    )


def tricomi_series(alpha, x, abs_tol, rel_tol, max_terms, consecutive_small):
    """Tricomi series C_alpha(x): sum_k (-x)^k / (k! Gamma(alpha+k+1))."""
    k0 = leading_pole_shift(alpha)
    try:
        term = math.pow(-x, k0) * _recip_gamma(alpha + k0 + 1.0) * _recip_gamma(k0 + 1.0)
    except OverflowError:
        term = math.inf
    return _ratio_series(term, alpha, -x, k0, abs_tol, rel_tol, max_terms, consecutive_small)


def wright_series(nu, mu, x, abs_tol, rel_tol, max_terms, consecutive_small):
    """Wright series: sum_r x^r / (r! Gamma(nu + mu r)), mu > 0.

    Gamma poles zero out individual terms; a leading all-pole run is skipped
    from the streak count (it carries no convergence information) but still
    consumes budget.
    """
    w = 1.0  # x^r / r!
    total = 0.0
    comp = 0.0
    streak = 0
    terms = 0
    last_mag = 0.0
    converged = False
    seen_nonzero = False
    r = 0
    while terms < max_terms:
        g = _recip_gamma(nu + mu * r)
        term = w * g
        if math.isinf(term) or term != term:
            return math.nan, terms + 1, math.inf, False
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        terms += 1
        last_mag = abs(term)
        if term != 0.0:
            seen_nonzero = True
        if seen_nonzero or g != 0.0:
            if last_mag <= abs_tol + rel_tol * abs(total + comp):
                streak += 1
                if streak >= consecutive_small:
                    converged = True
                    break
            else:
                streak = 0
        w *= x / (r + 1.0)
        r += 1
    return total + comp, terms, last_mag, converged
