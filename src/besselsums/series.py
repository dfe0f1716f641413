"""Adaptive summation with convergence certificates, under one fixed policy.

Sums run k = 0, 1, 2, ...; a sum over all integers n is summed as term(0)
plus the pairs term(k) + term(-k), k >= 1, by the same loop.  Terms may be
real or complex; accumulation is Neumaier-compensated, which recovers the
digits alternating Bessel series otherwise lose at moderate argument.  There
is no accumulator object: the loop keeps its running total and compensation
in local variables.

The summation policy is four module constants, which this loop and the Bessel
and Tricomi kernels of ``besselsums.backend`` read and no caller sets.  A
term is negligible when |t| <= ABS_TOL + REL_TOL * |partial sum|.  Stops are
proved where a bound on everything left out is at hand, all up to rounding:

* The kernels stop once their tail bound is at most both ABS_TOL and
  REL_TOL * |partial sum|, so a value V is truncated by at most
  min(ABS_TOL, REL_TOL |V|): a rule side may multiply a tiny J value by a
  large partner, so it keeps its relative digits.
* An engine sum given a ``majorant`` (a function of n bounding the sum of
  |term(j)| over j > n) stops, converged, once the majorant's tail after the
  latest term is at most max(ABS_TOL, REL_TOL * |partial sum|), and records
  that tail in its certificate's ``tail_bound``: a rule side may cancel to
  near zero, where ABS_TOL alone must do.  It asks the majorant only where
  the next term, extrapolated from the last two, would be negligible.
* An engine sum without one (the composites, and the rule sides with no
  bound at hand) stops, converged, after CONSECUTIVE_SMALL negligible terms
  in a row, or the longer run its caller asks for, with ``tail_bound`` None:
  single incidentally tiny terms of an alternating series must not stop it.

Every sum stops unconverged after MAX_TERMS terms; a sum over all integers
counts pairs term(k) + term(-k).  A term whose computation raises
``OverflowError``, or that is not finite (``t - t != 0.0``: inf or nan, real
or complex), raises ``EvaluationDomainError`` with the term's index.
"""

import math
import reprlib
from typing import Callable, NamedTuple, Optional, Union

Scalar = Union[float, complex]

# Error messages echo an offending value abbreviated, to about 2 kB at most,
# so a 300-digit integer or a 100,000-number list is not one huge line.
# Short values print as repr prints them.
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 2
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40
short_repr = _ECHO.repr


class EvaluationDomainError(ValueError):
    """A series term or sum came back non-finite."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


def require_finite(**kwargs) -> None:
    """Raise ValueError naming the first argument that is not finite."""
    for name, v in kwargs.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def require_int(
    name: str, value, minimum: Optional[int] = None, maximum: Optional[int] = None
) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is integral
    (so not inf, nan or a bool) and within the given bounds."""
    try:
        n = None if isinstance(value, bool) else int(value)
    except (OverflowError, TypeError, ValueError):  # inf, nan, not a number
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be integer, got {short_repr(value)}")
    if minimum is not None and n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {short_repr(n)}")
    if maximum is not None and n > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {short_repr(n)}")
    return n


# The summation policy (see the module docstring).
ABS_TOL = 1e-14
REL_TOL = 1e-12
MAX_TERMS = 400
CONSECUTIVE_SMALL = 3


class SeriesEval(NamedTuple):
    """A summed value plus its convergence certificate.

    Built once, by the loop that summed the value: the engine sums here and
    the Bessel and Tricomi kernels in ``besselsums.backend``.  A value derived
    from another (scaled, shifted) copies the other's certificate.
    ``tail_bound`` is the proved bound on the terms left out when the stop was
    proved, and None when it was heuristic or the sum did not converge.
    """

    value: Scalar
    terms_used: int
    last_term_magnitude: float
    converged: bool
    tail_bound: Optional[float] = None


def _term_error(n: int, t: Optional[Scalar] = None) -> EvaluationDomainError:
    """The error for a term that overflowed (``t`` None) or came back non-finite."""
    if t is None:
        return EvaluationDomainError(f"overflow in series term at index {n}", index=n)
    return EvaluationDomainError(f"non-finite series term {t!r} at index {n}", index=n)


def sum_series(
    term: Callable[[int], Scalar],
    majorant: Optional[Callable[[int], float]] = None,
    run: int = 0,
) -> SeriesEval:
    """Sum term(0) + term(1) + ... adaptively; see the module docstring for
    the stop rule.

    Without a majorant the sum stops after max(CONSECUTIVE_SMALL, ``run``)
    negligible terms in a row: a sum over a Hermite table of order m passes
    run = m, since up to m - 1 small terms in a row (zeros at u = 0) can
    precede the table's next power of v, which comes every m-th degree.

    ``majorant(n)`` bounds |term(n + 1)| + |term(n + 2)| + ... (inf where it
    cannot yet).  It is asked only at terms t_k with t_k^2 <= |t_(k-1)| *
    (ABS_TOL + REL_TOL * |partial sum|), that is, when the next term,
    extrapolated geometrically from the last two, would be negligible: a
    cheap filter, so that neither a term nor a majorant is evaluated for
    nothing on the way.
    """
    abs_tol, rel_tol, max_terms = ABS_TOL, REL_TOL, MAX_TERMS
    need = max(CONSECUTIVE_SMALL, run)
    total = comp = 0.0
    streak = 0
    mag = prev = 0.0
    for k in range(max_terms):
        try:
            t = term(k)
        except OverflowError as exc:
            raise _term_error(k) from exc
        if t - t != 0.0:  # inf or nan, real or complex
            raise _term_error(k, t)
        s = total + t
        mag = abs(t)
        if abs(total) >= mag:
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        if majorant is not None:
            if mag * mag <= prev * (abs_tol + rel_tol * abs(total + comp)):
                tail = majorant(k)
                if tail <= max(abs_tol, rel_tol * abs(total + comp)):
                    return SeriesEval(total + comp, k + 1, mag, True, tail)
            prev = mag
        elif mag <= abs_tol + rel_tol * abs(total + comp):
            streak += 1
            if streak >= need:
                return SeriesEval(total + comp, k + 1, mag, True)
        else:
            streak = 0
    return SeriesEval(total + comp, max_terms, mag, False)


def sum_bilateral(
    term: Callable[[int], Scalar], majorant: Optional[tuple] = None
) -> SeriesEval:
    """Sum term(n) over all integers n as term(0) plus the pairs
    term(k) + term(-k), k = 1, 2, ..., through ``sum_series``.

    ``majorant`` is a pair (upper, lower): upper(k) bounds the sum of
    |term(j)| over j > k and lower(k) that of |term(-j)|.  With both, the
    pairs' majorant is upper(k) + lower(k), so the proved tail of the whole
    sum is held to max(ABS_TOL, REL_TOL * |sum|); with either None the pairs
    stop on the negligible-term streak.  The certificate counts pairs:
    ``terms_used``, MAX_TERMS and an error's ``index`` are k = |n|, and
    ``last_term_magnitude`` is |term(k) + term(-k)| of the last pair.  The
    pairs run to the slower direction's length.
    """
    upper, lower = majorant or (None, None)
    bound = None if upper is None or lower is None else (lambda k: upper(k) + lower(k))
    return sum_series(lambda k: term(k) + term(-k) if k else term(0), bound)
