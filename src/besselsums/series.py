"""Adaptive summation with convergence certificates.

Sums run k = 0, 1, 2, ...; a sum over all integers n is summed as term(0)
plus the pairs term(k) + term(-k), k >= 1, by the same loop.  Terms may be
real or complex; accumulation is Neumaier-compensated, which recovers the
digits alternating Bessel series otherwise lose at moderate argument.  There
is no accumulator object: the loop keeps its running total and compensation
in local variables.

A term whose computation raises ``OverflowError``, or that is not finite
(``t - t != 0.0``: inf or nan, real or complex), raises
``EvaluationDomainError`` with the term's index.  A term is negligible when
|t| <= abs_tol + rel_tol * |partial sum|.  A sum given a ``majorant`` (a
function of n bounding the sum of |term(j)| over j > n) stops, converged, once
the majorant's tail after the latest term is at most
max(abs_tol, rel_tol * |partial sum|), and records that tail in its
certificate's ``tail_bound``; it asks the majorant only where the next term,
extrapolated from the last two, would be negligible.  A sum without one stops,
converged, after ``consecutive_small`` negligible terms in a row, with
``tail_bound`` None.  Either stops unconverged after ``max_terms`` terms.
"""

import math
import reprlib
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SummationPolicy:
    """Tolerances and budgets governing a series evaluation.

    A term is negligible when |term| <= abs_tol + rel_tol * |partial sum|.
    Stops are proved where a bound on everything left out is at hand, all
    up to rounding:

    * The Bessel and Tricomi kernels take no policy: they read
      ``DEFAULT_POLICY``'s, and stop once that bound is at most both
      abs_tol and rel_tol * |partial sum|, so a value V is truncated by at
      most min(abs_tol, rel_tol |V|) whatever policy its caller holds: a
      rule side may multiply a tiny J value by a large partner, so it keeps
      its relative digits.
    * An engine sum given a majorant stops once the majorant's tail is at
      most max(abs_tol, rel_tol * |partial sum|): a rule side may cancel to
      near zero, where abs_tol alone must do.

    ``consecutive_small`` governs only engine sums without a majorant (the
    composite families and the rule sides with no bound at hand): they stop
    after that many negligible terms in a row, since single incidentally
    tiny terms of alternating series must not stop them.  ``max_terms`` caps
    every engine sum, and ``DEFAULT_POLICY``'s 400 caps the kernels; for a
    sum over all integers it counts pairs term(k) + term(-k).
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-12
    max_terms: int = 400
    consecutive_small: int = 3

    def __post_init__(self):
        if not 0.0 < self.abs_tol < 1.0:
            raise ValueError(f"abs_tol must be in (0, 1), got {self.abs_tol}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        # frozen: store the checked ints, so 400.0 sums like 400
        for name, minimum in (("max_terms", 8), ("consecutive_small", 1)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), minimum))


DEFAULT_POLICY = SummationPolicy()


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
    policy: SummationPolicy = DEFAULT_POLICY,
    majorant: Optional[Callable[[int], float]] = None,
) -> SeriesEval:
    """Sum term(0) + term(1) + ... adaptively; see SummationPolicy for the stop rule.

    ``majorant(n)`` bounds |term(n + 1)| + |term(n + 2)| + ... (inf where it
    cannot yet).  It is asked only at terms t_k with t_k^2 <= |t_(k-1)| *
    (abs_tol + rel_tol * |partial sum|), that is, when the next term,
    extrapolated geometrically from the last two, would be negligible: a
    cheap filter, so that neither a term nor a majorant is evaluated for
    nothing on the way.
    """
    abs_tol, rel_tol = policy.abs_tol, policy.rel_tol
    max_terms, need = policy.max_terms, policy.consecutive_small
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
    term: Callable[[int], Scalar],
    policy: SummationPolicy = DEFAULT_POLICY,
    majorant: Optional[tuple] = None,
) -> SeriesEval:
    """Sum term(n) over all integers n as term(0) plus the pairs
    term(k) + term(-k), k = 1, 2, ..., through ``sum_series``.

    ``majorant`` is a pair (upper, lower): upper(k) bounds the sum of
    |term(j)| over j > k and lower(k) that of |term(-j)|.  With both, the
    pairs' majorant is upper(k) + lower(k), so the proved tail of the whole
    sum is held to max(abs_tol, rel_tol * |sum|); with either None the pairs
    stop on the negligible-term streak.  The certificate counts pairs:
    ``terms_used``, ``max_terms`` and an error's ``index`` are k = |n|, and
    ``last_term_magnitude`` is |term(k) + term(-k)| of the last pair.  The
    pairs run to the slower direction's length.
    """
    upper, lower = majorant or (None, None)
    bound = None if upper is None or lower is None else (lambda k: upper(k) + lower(k))
    return sum_series(lambda k: term(k) + term(-k) if k else term(0), policy, bound)
