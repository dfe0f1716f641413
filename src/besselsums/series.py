"""Adaptive summation with convergence certificates.

One-sided sums run k = 0, 1, 2, ...; bilateral sums start at n = 0 and expand
the window +1, -1, +2, -2, ... with the stop rule applied to each direction on
its own.  Terms may be real or complex; accumulation is Neumaier-compensated,
which recovers the digits alternating Bessel series otherwise lose at moderate
argument.  A term that is not finite, or whose computation overflows, raises
``EvaluationDomainError`` with the term's index.
"""

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Union

Scalar = Union[float, complex]


class EvaluationDomainError(ValueError):
    """A series term or stencil sample came back non-finite."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


def require_finite(**kwargs) -> None:
    """Raise ValueError naming the first argument that is not finite."""
    for name, v in kwargs.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class SummationPolicy:
    """Tolerances and budgets governing a series evaluation.

    A term is negligible when |term| <= abs_tol + rel_tol * |partial sum|;
    summation stops after ``consecutive_small`` negligible terms in a row
    (single incidentally tiny terms of alternating series must not stop it).
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
        if self.max_terms < 8:
            raise ValueError(f"max_terms must be >= 8, got {self.max_terms}")
        if self.consecutive_small < 1:
            raise ValueError(f"consecutive_small must be >= 1, got {self.consecutive_small}")

    def tightened(self, factor: float = 10.0) -> "SummationPolicy":
        """Policy with tolerances divided by ``factor`` (for nested series)."""
        return replace(self, abs_tol=self.abs_tol / factor, rel_tol=self.rel_tol / factor)


DEFAULT_POLICY = SummationPolicy()


@dataclass(frozen=True)
class SeriesEval:
    """A summed value plus its convergence certificate."""

    value: Scalar
    terms_used: int
    last_term_magnitude: float
    converged: bool


def _is_finite(v: Scalar) -> bool:
    if isinstance(v, complex):
        return cmath.isfinite(v)
    return math.isfinite(v)


class _Accumulator:
    """Neumaier-compensated running sum; works componentwise on complex."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, term: Scalar) -> None:
        t = self.total + term
        if abs(self.total) >= abs(term):
            self.comp += (self.total - t) + term
        else:
            self.comp += (term - t) + self.total
        self.total = t

    @property
    def value(self) -> Scalar:
        return self.total + self.comp


def sum_series(term: Callable[[int], Scalar], policy: SummationPolicy = DEFAULT_POLICY) -> SeriesEval:
    """Sum term(0) + term(1) + ... adaptively; see SummationPolicy for the stop rule."""
    acc = _Accumulator()
    streak = 0
    last_mag = 0.0
    for k in range(policy.max_terms):
        try:
            t = term(k)
        except OverflowError as exc:
            raise EvaluationDomainError(f"overflow in series term at index {k}", index=k) from exc
        if not _is_finite(t):
            raise EvaluationDomainError(f"non-finite series term {t!r} at index {k}", index=k)
        acc.add(t)
        last_mag = abs(t)
        if last_mag <= policy.abs_tol + policy.rel_tol * abs(acc.value):
            streak += 1
            if streak >= policy.consecutive_small:
                return SeriesEval(acc.value, k + 1, last_mag, True)
        else:
            streak = 0
    return SeriesEval(acc.value, policy.max_terms, last_mag, False)


def sum_bilateral(term: Callable[[int], Scalar], policy: SummationPolicy = DEFAULT_POLICY) -> SeriesEval:
    """Sum term(n) over all integers n, expanding symmetrically from n = 0.

    Each direction keeps its own negligible-term streak and stops
    independently; the whole sum is converged only when both directions are.
    ``max_terms`` budgets the total number of term evaluations.
    """
    acc = _Accumulator()

    def _eval(n: int) -> Scalar:
        try:
            t = term(n)
        except OverflowError as exc:
            raise EvaluationDomainError(f"overflow in series term at index {n}", index=n) from exc
        if not _is_finite(t):
            raise EvaluationDomainError(f"non-finite series term {t!r} at index {n}", index=n)
        return t

    t0 = _eval(0)
    acc.add(t0)
    terms = 1
    streaks = {1: 0, -1: 0}
    done = {1: False, -1: False}
    last = {1: 0.0, -1: 0.0}
    k = 1
    while terms < policy.max_terms and not (done[1] and done[-1]):
        for sign in (1, -1):
            if done[sign] or terms >= policy.max_terms:
                continue
            t = _eval(sign * k)
            acc.add(t)
            terms += 1
            mag = abs(t)
            last[sign] = mag
            if mag <= policy.abs_tol + policy.rel_tol * abs(acc.value):
                streaks[sign] += 1
                if streaks[sign] >= policy.consecutive_small:
                    done[sign] = True
            else:
                streaks[sign] = 0
        k += 1
    value = acc.value
    last_mag = max(last[1], last[-1])
    converged = (
        done[1]
        and done[-1]
        and last_mag <= policy.abs_tol + policy.rel_tol * abs(value)
    )
    return SeriesEval(value, terms, last_mag, converged)


# Central-difference stencils with O(h^2) truncation error, per derivative order.
_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
    4: ((2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)),
}


def central_derivative(
    f: Callable[[float], Scalar], t0: float, order: int, step: float
) -> Scalar:
    """m-th derivative of f at t0 (m in 1..4) by central differences.

    The O(h^2) stencil is evaluated at ``step`` and ``step/2`` and Richardson
    extrapolated once, giving an O(h^4) estimate.
    """
    if order not in _STENCILS:
        raise ValueError(f"derivative order must be 1..4, got {order}")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")

    def estimate(h: float) -> Scalar:
        out = 0.0
        for offset, weight in _STENCILS[order]:
            s = f(t0 + offset * h)
            if not _is_finite(s):
                raise EvaluationDomainError(
                    f"non-finite sample {s!r} at t = {t0 + offset * h}", index=offset
                )
            out += weight * s
        return out / h**order

    coarse = estimate(step)
    fine = estimate(step / 2.0)
    return (4.0 * fine - coarse) / 3.0
