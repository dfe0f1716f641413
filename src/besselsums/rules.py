"""One operation per sum rule: each evaluates the brute-force series side and
the closed-form side of an identity and returns a verdict record.

The brute-force side is ground truth.  A case is VERIFIED only when both
sides' evaluations converged and the sides agree within tolerance; a case
whose evaluations did not converge is INCONCLUSIVE, never VERIFIED.  Two
sides both within tol_abs of zero agree only on the relative test (see
``Tolerances``).

GRAF_REAL, GRAF_PHASE and WEIGHTED_S share one left side, the Graf-type sum
sum_{n in Z} w_n J_(n+nu)(x) J_n(y) with weights t^n, e^(in theta) and n^m;
``_graf_sum`` builds it and its majorants for all three.

Every record is built by ``_record``, which also decides its verdict.  A
record's certificates describe the values beside them: each side reaches
``_record`` as a ``SeriesEval``, or as a bare number when it has none (the
two WEIGHTED_S closed forms, finite sums over J values).  A closed form that
is a factor times one evaluated function is built by ``_scaled``, which
carries the function's tail bound times |factor|.

No side is a finite difference: WEIGHTED_S takes its derivatives from Taylor
series, APPENDIX_DERIV from a series differentiated term by term.

Each rule is declared once, by its function: the registry ``RULES`` runs it
and reads its parameters and integers from its signature.  Every rule judges
at ``DEFAULT_TOLERANCES`` unless a caller or a plan entry gives others.
"""

import cmath
import inspect
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from besselsums import backend, hybrid
from besselsums.functions import bessel_j, tricomi_c
from besselsums.hybrid import h_tricomi, h_wright, hybrid_k, l_tricomi
from besselsums.series import (
    EvaluationDomainError,
    SeriesEval,
    require_finite,
    require_int,
    sum_bilateral,
    sum_series,
)


#: Largest weight l of WEIGHTED_S and WEIGHTED_E (C(l, k) is exact as a float and
#: the sides stay clear of underflow) and largest argument of ``stirling2``.
EXACTNESS_BOUND = 30


class RuleId(str, Enum):
    ASCENDING_GEN = "ASCENDING_GEN"
    DESCENDING_GEN = "DESCENDING_GEN"
    MULTIPLE_ORDER = "MULTIPLE_ORDER"
    FRACTIONAL_ORDER = "FRACTIONAL_ORDER"
    BESSEL_LAGUERRE = "BESSEL_LAGUERRE"
    LAGUERRE_HERMITE = "LAGUERRE_HERMITE"
    GRAF_REAL = "GRAF_REAL"
    GRAF_PHASE = "GRAF_PHASE"
    NEUMANN_EXT = "NEUMANN_EXT"
    WEIGHTED_S = "WEIGHTED_S"
    WEIGHTED_E = "WEIGHTED_E"
    APPENDIX_DERIV = "APPENDIX_DERIV"


class Verdict(str, Enum):
    VERIFIED = "VERIFIED"
    DISCREPANT = "DISCREPANT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Tolerances:
    """Verdict tolerances: a side pair agrees when rel_err <= tol_rel, or when
    abs_err <= tol_abs and one side exceeds tol_abs in magnitude.  Two sides
    both within tol_abs of zero that miss tol_rel are INCONCLUSIVE: at that
    scale a truncated or underflowed side agrees with anything.  Defaults sit
    an order of magnitude above the engine tolerances to absorb cancellation."""

    tol_abs: float = 1e-9
    tol_rel: float = 1e-8

    def __post_init__(self):
        for name, value in (("tol_abs", self.tol_abs), ("tol_rel", self.tol_rel)):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0.0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


@dataclass
class VerificationRecord:
    rule_id: RuleId
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    verdict: Verdict
    lhs_certificate: Optional[SeriesEval] = None
    rhs_certificate: Optional[SeriesEval] = None
    report_only: bool = False
    note: str = ""


def _errors(lhs, rhs):
    """(abs_err, rel_err, size), size = max(|lhs|, |rhs|)."""
    abs_err = abs(lhs - rhs)
    size = max(abs(lhs), abs(rhs))
    if size == 0.0:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    else:
        rel_err = abs_err / size
    return abs_err, rel_err, size


def _judge(abs_err, rel_err, size, converged: bool, tol: Tolerances) -> Verdict:
    if not (converged and math.isfinite(abs_err)):  # a nan or infinite side proves nothing
        return Verdict.INCONCLUSIVE
    if rel_err <= tol.tol_rel:
        return Verdict.VERIFIED
    if size <= tol.tol_abs:  # both sides within tol_abs of 0: their agreement is no evidence
        return Verdict.INCONCLUSIVE
    if abs_err <= tol.tol_abs:
        return Verdict.VERIFIED
    return Verdict.DISCREPANT


def _unpack(side) -> tuple:
    """(value, converged, certificate) of a side: a SeriesEval, or a bare
    number with no certificate."""
    if isinstance(side, SeriesEval):
        return side.value, side.converged, side
    return side, True, None


def _record(
    rule_id: RuleId, params: dict, lhs, rhs, tol: Tolerances, report_only=False, note=""
) -> VerificationRecord:
    lhs, lhs_ok, lhs_cert = _unpack(lhs)
    rhs, rhs_ok, rhs_cert = _unpack(rhs)
    abs_err, rel_err, size = _errors(lhs, rhs)
    return VerificationRecord(
        rule_id=rule_id,
        params=dict(params),
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        verdict=_judge(abs_err, rel_err, size, lhs_ok and rhs_ok, tol),
        lhs_certificate=lhs_cert,
        rhs_certificate=rhs_cert,
        report_only=report_only,
        note=note,
    )


def _scaled(side: SeriesEval, factor) -> SeriesEval:
    """factor * side, with the side's tail bound times |factor| (None stays
    None); the term count and last term stay the inner sum's."""
    tail = side.tail_bound
    if tail is not None:
        tail *= abs(factor)
    # one constructor call: _replace costs twice as much, on every mirrored J
    return SeriesEval(
        factor * side.value, side.terms_used, side.last_term_magnitude, side.converged, tail
    )


def _taylor_weight(t: float, n: int) -> float:
    """t^n / n!, with 1/n! bit for bit what ``recip_gamma(n + 1.0)`` returns:
    the weight of the four generating sums over J alone (ascending, descending,
    multiple and fractional order), bit-identical across them at one point."""
    if n < len(backend._INV_FACTORIAL):  # n >= 0: a summation index
        return math.pow(t, n) * backend._INV_FACTORIAL[n]
    return math.pow(t, n) * backend.recip_gamma(n + 1.0)


@lru_cache(maxsize=1024)
def _bessel_j(nu: float, x: float) -> SeriesEval:
    """J_nu(x) through a cache of the latest 1,024 (nu, x), the same result
    object for every case that reads it.

    ``run_plan`` empties it when a run starts, so a run reuses only its own
    values; direct rule calls use it too.  A miss on a negative integer order
    is served through ``_mirror``, any other through the module attribute
    ``bessel_j``, so wrappers installed there see every evaluation.  A value
    is a function of (nu, x) alone: bessel_j gives identical results for int
    and float nu and for x = +-0.0, which the cache key does not tell apart.
    """
    if nu < 0.0 and float(nu).is_integer():
        return _mirror(nu, x)
    return bessel_j(nu, x)


def _mirror(nu: float, x: float) -> SeriesEval:
    """J_nu(x) = (-1)^nu J_-nu(x) for negative integer nu, bit for bit.

    The kernel sums J_-n from k = n, and those terms are J_n's terms times
    (-1)^n, so the certificate is the same and the value only changes sign.
    A zero value stays +0.0, as the kernel returns it.
    """
    try:
        j = _bessel_j(-nu, x)
    except EvaluationDomainError:
        return bessel_j(nu, x)  # raises again, naming the order asked for
    if j.value == 0.0 or not int(nu) & 1:
        return j
    return _scaled(j, -1.0)


def _gamma_majorant(c: float, s: float, mu: float = 1.0, nu: float = 0.0, power: int = 0):
    """n -> a bound on the sum over j > n of
    M_j = j^power c^j s^(mu j + nu) / (j! Gamma(mu j + nu + 1)),  c, s >= 0.

    M_j bounds |j^power c^j / j! J_(mu j + nu)(x)| for s = |x|/2 wherever
    mu j + nu >= -1/2 (DLMF 10.14.4: |J_v(x)| <= |x/2|^v / Gamma(v + 1) for
    real x and v >= -1/2), and each rule side's terms are bounded by such a
    product.  From there on the ratio
    rho_j = M_(j+1) / M_j = ((j+1)/j)^power c s^mu Gamma(z+1) / ((j+1) Gamma(z+mu+1)),
    z = mu j + nu, falls with j (Gamma is log-convex), so the tail is at most
    M_(n+1) / (1 - rho_(n+1)), up to the rounding of that expression.
    Nothing is computed until the engine asks, about once per sum.  inf where
    no bound holds: an order below -1/2, rho >= 1, or a degree or order past
    170, where 1/Gamma underflows.
    """

    def tail(n: int) -> float:
        j = n + 1
        z = mu * j + nu
        if not -0.5 <= z <= 170.0 or j > 170:
            return math.inf
        recip_gamma = backend.recip_gamma
        rz = recip_gamma(z + 1.0)
        try:
            m = c**j * s**z * rz * recip_gamma(j + 1.0)
            rho = c * s**mu * recip_gamma(z + mu + 1.0) / (rz * (j + 1))
        except (OverflowError, ZeroDivisionError):  # 0.0 ** negative z raises the latter
            return math.inf
        if power:
            m *= float(j) ** power
            rho *= ((j + 1) / j) ** power
        return m / (1.0 - rho) if rho < 1.0 else math.inf

    return tail


def _graf_sum(weight, nu, x, y, up, down, power=0) -> SeriesEval:
    """sum_{n in Z} w_n J_(n+nu)(x) J_n(y), w_n = weight(n), stopped on its
    (n > 0, n < 0) majorants with s = |x|/2.

    ``up`` and ``down`` are chosen so that |w_k| (|y|/2)^k <= k^power up^k and
    |w_-k| (|y|/2)^k <= k^power down^k; with |J_(+-k)(y)| <= (|y|/2)^k / k!
    the term at n = +-k is then at most k^power (up or down)^k / k! times
    |J_(nu+-k)(x)|.  For integer nu, |J_(nu-k)(x)| = |J_(k-nu)(x)|; at
    non-integer nu no such bound is at hand, so the pairs n = +-k that
    ``sum_bilateral`` sums have no majorant and stop on the negligible-term
    streak.
    """
    s = 0.5 * abs(x)
    upper = _gamma_majorant(up, s, 1.0, nu, power)
    lower = _gamma_majorant(down, s, 1.0, -nu, power) if float(nu).is_integer() else None
    return sum_bilateral(
        lambda n: (
            weight(n) * _bessel_j(nu + n, x).value * _bessel_j(float(n), y).value
        ),
        (upper, lower),
    )


# ---------------------------------------------------------------------------
# generating-function rules


def _check_gen(nu, x, t):
    if not x > 0.0:
        raise ValueError(f"x must be positive, got x={x}")
    if not abs(2.0 * t) < x:
        raise ValueError(f"requires |2t| < x, got t={t}, x={x}")
    if not x * x - 2.0 * x * t >= sys.float_info.min:  # sqrt of it is J's argument
        raise ValueError(
            f"requires x^2 - 2xt >= {sys.float_info.min:g} (no underflow), got x={x}, t={t}"
        )


def rule_ascending_gen(
    nu: float,
    x: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_{nu+n}(x)  =  (x/(x-2t))^(nu/2) J_nu(sqrt(x^2-2xt)),  |2t| < x."""
    _check_gen(nu, x, t)
    lhs = sum_series(
        lambda n: _taylor_weight(t, n) * _bessel_j(nu + n, x).value,
        _gamma_majorant(abs(t), 0.5 * x, 1.0, nu),
    )
    rhs_j = _bessel_j(nu, math.sqrt(x * x - 2.0 * x * t))
    rhs = _scaled(rhs_j, math.pow(x / (x - 2.0 * t), 0.5 * nu))
    return _record(RuleId.ASCENDING_GEN, {"nu": nu, "x": x, "t": t}, lhs, rhs, tolerances)


def rule_descending_gen(
    nu: float,
    x: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n (-t)^n/n! J_{nu-n}(x)  =  ((x-2t)/x)^(nu/2) J_nu(sqrt(x^2-2xt)),  |2t| < x."""
    _check_gen(nu, x, t)
    # |J_(nu-n)| = |J_(n-nu)| needs an integer order; otherwise the stop stays heuristic
    majorant = _gamma_majorant(abs(t), 0.5 * x, 1.0, -nu) if float(nu).is_integer() else None
    lhs = sum_series(
        lambda n: _taylor_weight(-t, n) * _bessel_j(nu - n, x).value, majorant
    )
    rhs_j = _bessel_j(nu, math.sqrt(x * x - 2.0 * x * t))
    rhs = _scaled(rhs_j, math.pow((x - 2.0 * t) / x, 0.5 * nu))
    return _record(RuleId.DESCENDING_GEN, {"nu": nu, "x": x, "t": t}, lhs, rhs, tolerances)


def _check_multiple(m, x, t) -> int:
    return require_int("m", m, minimum=1)


def rule_multiple_order(
    m: int,
    x: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_{mn}(x)  =  HC_0^(m)(x^2/4, (-x/2)^m t), the Hermite-based
    Tricomi function."""
    m = _check_multiple(m, x, t)
    lhs = sum_series(
        lambda n: _taylor_weight(t, n) * _bessel_j(float(m * n), x).value,
        _gamma_majorant(abs(t), 0.5 * abs(x), float(m)),
    )
    rhs = h_tricomi(0.0, m, x * x / 4.0, math.pow(-x / 2.0, m) * t)
    return _record(RuleId.MULTIPLE_ORDER, {"m": m, "x": x, "t": t}, lhs, rhs, tolerances)


def _check_fractional(m, x, t) -> int:
    m = require_int("m", m, minimum=1)
    if not x > 0.0:
        raise ValueError(f"fractional orders require x > 0, got x={x}")
    return m


def rule_fractional_order(
    m: int,
    x: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_{n/m}(x)  =  HW_0^(m)(t (x/2)^(1/m), -x^2/4 | 1/m), the
    Hermite-based Wright function."""
    m = _check_fractional(m, x, t)
    lhs = sum_series(
        lambda n: _taylor_weight(t, n) * _bessel_j(n / m, x).value,
        _gamma_majorant(abs(t), 0.5 * x, 1.0 / m),
    )
    rhs = h_wright(0.0, m, 1.0 / m, t * math.pow(x / 2.0, 1.0 / m), -x * x / 4.0)
    return _record(RuleId.FRACTIONAL_ORDER, {"m": m, "x": x, "t": t}, lhs, rhs, tolerances)


def rule_bessel_laguerre(
    z: float,
    x: float,
    y: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_n(z) L_n(x,y)  =  LC_0(-xtz/2, z(z-2yt)/4), the
    Laguerre-based Tricomi function."""
    require_finite(z=z, x=x, y=y, t=t)
    lag = hybrid._laguerre_table(x, y)  # L_n(x, y)/n!
    # |L_n(x, y)/n!| <= (|x| + |y|)^n / n! termwise from laguerre2's defining sum
    lhs = sum_series(
        lambda n: math.pow(t, n) * _bessel_j(float(n), z).value * lag(n),
        _gamma_majorant(abs(t) * (abs(x) + abs(y)), 0.5 * abs(z)),
    )
    rhs = l_tricomi(0.0, -x * t * z / 2.0, z * (z - 2.0 * y * t) / 4.0)
    params = {"z": z, "x": x, "y": y, "t": t}
    return _record(RuleId.BESSEL_LAGUERRE, params, lhs, rhs, tolerances)


def _check_laguerre_hermite(x, y, z, w, t):
    require_finite(x=x, y=y, z=z, w=w, t=t)
    if not abs(t) <= 0.25:
        raise ValueError(f"requires |t| <= 0.25 for numerical convergence, got t={t}")


def rule_laguerre_hermite(
    x: float,
    y: float,
    z: float,
    w: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! L_n(x,y) H_n^(2)(z,w)
         =  e^{yt(z+ywt)} HC_0^(2)(xt(z+2ywt), x^2 w t^2).

    The left side is a formal series whose terms carry an n!-sized polynomial
    product; it converges numerically only for small |t|, so the harness
    restricts |t| <= 0.25.
    """
    _check_laguerre_hermite(x, y, z, w, t)
    lag = hybrid._laguerre_table(x, y)  # L_n(x, y)/n!
    herm = hybrid._hermite_table(2, z, w)  # H_n^(2)(z, w)/n!
    lhs = sum_series(
        lambda n: lag(n) * float(math.factorial(n)) * herm(n) * math.pow(t, n),
        run=2,  # H_n^(2)(0, w) vanishes at every odd n
    )
    rhs_h = h_tricomi(0.0, 2, x * t * (z + 2.0 * y * w * t), x * x * w * t * t)
    rhs = _scaled(rhs_h, math.exp(y * t * (z + y * w * t)))
    params = {"x": x, "y": y, "z": z, "w": w, "t": t}
    return _record(RuleId.LAGUERRE_HERMITE, params, lhs, rhs, tolerances)


# ---------------------------------------------------------------------------
# addition theorems


def _check_graf_real(nu, x, y, t):
    if not (x > 0.0 or float(nu).is_integer()):  # J_{nu+n}(x <= 0) needs integer orders
        raise ValueError(f"non-integer nu requires x > 0, got nu={nu}, x={x}")
    if not t > 0.0:
        raise ValueError(f"requires t > 0, got t={t}")
    if not x > y / t:
        raise ValueError(f"requires x > y/t, got x={x}, y/t={y / t}")
    if not x > y * t:
        raise ValueError(f"requires x > y*t for the real branch, got x={x}, y*t={y * t}")
    if not x * x + y * y - x * y * (t + 1.0 / t) > 0.0:
        raise ValueError("requires x^2 + y^2 - xy(t + 1/t) > 0 for the real branch")


def rule_graf(
    nu: float,
    x: float,
    y: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """Addition theorem with a real weight:
    sum_{n in Z} t^n J_{n+nu}(x) J_n(y)
      =  ((x - y/t)/(x - yt))^(nu/2) J_nu(sqrt(x^2 + y^2 - xy(t + 1/t)))."""
    _check_graf_real(nu, x, y, t)
    lhs = _graf_sum(lambda n: math.pow(t, n), nu, x, y, 0.5 * t * abs(y), 0.5 * abs(y) / t)
    arg = math.sqrt(x * x + y * y - x * y * (t + 1.0 / t))
    rhs = _scaled(_bessel_j(nu, arg), math.pow((x - y / t) / (x - y * t), 0.5 * nu))
    return _record(RuleId.GRAF_REAL, {"nu": nu, "x": x, "y": y, "t": t}, lhs, rhs, tolerances)


def _check_graf_phase(nu, x, y, theta):
    if not x > y > 0.0:
        raise ValueError(f"requires x > y > 0, got x={x}, y={y}")


def rule_graf_phase(
    nu: float,
    x: float,
    y: float,
    theta: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """Addition theorem with a unit-modulus weight (x > y > 0):
    sum_{n in Z} e^{in theta} J_{n+nu}(x) J_n(y)
      =  ((x - y e^{-i theta})/(x - y e^{i theta}))^(nu/2)
         * J_nu(sqrt(x^2 + y^2 - 2xy cos theta)),
    with principal-branch complex powers.  Both sides are compared as complex
    values."""
    _check_graf_phase(nu, x, y, theta)
    lhs = _graf_sum(lambda n: cmath.exp(1j * n * theta), nu, x, y, 0.5 * y, 0.5 * y)
    j = _bessel_j(nu, math.sqrt(x * x + y * y - 2.0 * x * y * math.cos(theta)))
    ratio = (x - y * cmath.exp(-1j * theta)) / (x - y * cmath.exp(1j * theta))
    rhs = _scaled(j, ratio ** (0.5 * nu))
    params = {"nu": nu, "x": x, "y": y, "theta": theta}
    return _record(RuleId.GRAF_PHASE, params, lhs, rhs, tolerances)


def _check_neumann(x, y, t):
    if y * y * t == 0.0:  # also where y^2 t underflows
        raise ValueError(
            f"requires y^2 t != 0 (the expansion variable 2x/(y^2 t) is singular), got y={y}, t={t}"
        )


def rule_neumann_ext(
    x: float,
    y: float,
    t: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """Extended Neumann sum:
    sum_{n in Z} t^n J_n(x) J_{2n}(y)  =  HK_0^(-2)(y^2/4, x y^2 t/8 | -2x/(y^2 t)).

    Expanding the reciprocal-shift exponential termwise gives descending inner
    orders with alternating sign, sum_k (-xi)^k/k! HC_{-2k}(u, v); the
    ascending-order variant with +xi misses the bilateral sum by O(1), so the
    descending form is what gets verified here.
    """
    _check_neumann(x, y, t)
    # |t^n J_n(x) J_2n(y)| <= (|t x|/2)^n / n! (y/2)^(2n) / (2n)!, and with
    # |x| / (2|t|) in place of |t x|/2 for n < 0
    lhs = sum_bilateral(
        lambda n: (
            math.pow(t, n)
            * _bessel_j(float(n), x).value
            * _bessel_j(float(2 * n), y).value
        ),
        (
            _gamma_majorant(0.5 * abs(t * x), 0.5 * abs(y), 2.0),
            _gamma_majorant(0.5 * abs(x / t), 0.5 * abs(y), 2.0),
        ),
    )
    rhs = hybrid_k(0.0, -2, y * y / 4.0, x * y * y * t / 8.0, -2.0 * x / (y * y * t))
    return _record(RuleId.NEUMANN_EXT, {"x": x, "y": y, "t": t}, lhs, rhs, tolerances)


# ---------------------------------------------------------------------------
# weighted sums


def _check_weighted_s(l, m, x, y) -> tuple:
    # l: exact binomials in the closed form; m: the orders checked against mpmath
    l = require_int("l", l, minimum=0, maximum=EXACTNESS_BOUND)
    m = require_int("m", m, minimum=0, maximum=4)
    _check_graf_phase(l, x, y, 0.0)
    return l, m


def weighted_sum_S(
    l: int,
    m: int,
    x: float,
    y: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> list[VerificationRecord]:
    """Two records for S_l^(m)(x, y) = sum_{n in Z} n^m J_{n+l}(x) J_n(y), l in
    0..30, m in 0..4, x > y > 0: brute force against (-i d/dtheta)^m of the
    GRAF_PHASE closed form at theta = 0 (``_weighted_derivative``), then,
    report-only, against the nested finite sum of ``_weighted_closed_form``.
    Both closed forms read the same J_(l+p)(x - y), p = 0..m."""
    l, m = _check_weighted_s(l, m, x, y)
    brute = _graf_sum(lambda n: float(n) ** m, float(l), x, y, 0.5 * y, 0.5 * y, m)
    jv = [_bessel_j(float(l + p), x - y).value for p in range(m + 1)]
    deriv = _weighted_derivative(l, m, x, y, jv)
    closed = _weighted_closed_form(l, m, x, y, jv)
    params = {"l": l, "m": m, "x": x, "y": y}
    return [
        _record(RuleId.WEIGHTED_S, {**params, "route": "derivative"}, brute, deriv, tolerances),
        _record(
            RuleId.WEIGHTED_S, {**params, "route": "closed"}, brute, closed, tolerances,
            report_only=True, note="closed form is report-only: its printing is ambiguous",
        ),
    ]


def _taylor_product(p: list, q: list) -> list:
    """p q for two Taylor series cut at the same order; fsum rounds alike on
    every Python."""
    return [math.fsum(p[i] * q[k - i] for i in range(k + 1)) for k in range(len(p))]


def _weighted_derivative(l: int, m: int, x: float, y: float, jv: list) -> float:
    """(-i d/dtheta)^m at theta = 0 of the GRAF_PHASE closed form F at
    integer order l, exactly: m! times the phi^m Taylor coefficient of F in
    phi = i theta, where -i d/dtheta is d/dphi.

    With d = x - y, a = x - y e^(-phi) and u = (x^2 + y^2 - 2xy cosh phi)/4,
    F = (a/2)^l C_l(u), because the ratio power times rho^l is a^l and
    J_l(rho) = (rho/2)^l C_l(rho^2/4).  Expanding C_l about u = d^2/4 by
    d/du C_a = -C_(a+1), with J_(l+j)(d) = (d/2)^(l+j) C_(l+j)(d^2/4):
        F = (a/d)^l sum_j J_(l+j)(d) w^j / j!,  w = (xy/d)(cosh phi - 1),
    and a/d = 1 + (y/d)(1 - e^(-phi)).  w starts at phi^2, so the phi^m
    coefficient takes j <= m/2.  ``jv[j]`` is J_(l+j)(d).
    """
    d = x - y
    ratio = [1.0] + [y / d * (-1.0) ** (k + 1) / math.factorial(k) for k in range(1, m + 1)]
    w = [x * y / d / math.factorial(k) if k and not k & 1 else 0.0 for k in range(m + 1)]
    f = [0.0] * (m + 1)
    for j in reversed(range(m // 2 + 1)):  # Horner in w
        f = _taylor_product(f, w)
        f[0] += jv[j] / math.factorial(j)
    for _ in range(l):
        f = _taylor_product(f, ratio)
    return math.factorial(m) * f[m]


def _weighted_closed_form(l: int, m: int, x: float, y: float, jv: list) -> float:
    """Nested finite sum for S_l^(m); the (m - j) exponent inside the R factor
    uses the outer j, the only reading under which the expression is well
    formed.  ``jv[p]`` is J_(l+p)(x - y)."""
    total = 0.0
    for j in range(m + 1):
        cj = math.comb(m, j)
        for k in range(l + 1):
            ck = math.comb(l, k) * float(k - l) ** j
            if ck == 0.0:
                continue
            for p in range(m - j + 1):
                r_sum = 0.0
                for q in range(p + 1):
                    cq = math.comb(p, q) * math.pow(-0.5, q)
                    for r in range(q + 1):
                        r_sum += cq * math.comb(q, r) * float(2 * r - q) ** (m - j)
                geom = (
                    math.pow(x, k + p)
                    * math.pow(-y, l - k + p)
                    / math.pow(x - y, l + p)
                    * jv[p]
                )
                total += cj * ck * r_sum * geom / float(math.factorial(p))
    return total


@lru_cache(maxsize=None, typed=True)  # typed: True must miss the entry of 1, and be refused
def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an m-set into k blocks."""
    m = require_int("m", m, minimum=0, maximum=EXACTNESS_BOUND)
    k = require_int("k", k, minimum=0, maximum=EXACTNESS_BOUND)
    if m == 0 and k == 0:
        return 1
    if k == 0 or k > m:
        return 0
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


def _check_weighted_e(l, m, x) -> tuple:
    # l: at large l both sides underflow to 0 and "agree" whatever the identity
    l = require_int("l", l, minimum=0, maximum=EXACTNESS_BOUND)
    return l, require_int("m", m, minimum=1, maximum=10)


def weighted_sum_E(
    l: int,
    m: int,
    x: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_{n>=0} n^m/n! J_{n+l}(x)
         =  sum_{k=1}^{m} S2(m,k) (x/2)^{l+k} C_{l+k}((x^2 - 2x)/4).

    The Tricomi argument carries the /4: the variant without it is
    dimensionally inconsistent with the ascending generating identity and
    fails against brute force.  l is at most 30: both sides shrink like
    (x/2)^l/l! and at large l underflow to exactly zero, where they would
    agree whatever the identity.
    """
    l, m = _check_weighted_e(l, m, x)
    lhs = sum_series(
        lambda n: (
            float(n) ** m * backend.recip_gamma(n + 1.0) * _bessel_j(float(n + l), x).value
        ),
        _gamma_majorant(1.0, 0.5 * abs(x), 1.0, float(l), m),
    )
    arg = (x * x - 2.0 * x) / 4.0
    parts = [
        _scaled(tricomi_c(float(l + k), arg), stirling2(m, k) * math.pow(x / 2.0, l + k))
        for k in range(1, m + 1)
    ]
    value = 0.0
    for part in parts:  # plain left-to-right adds: fsum, or sum() on 3.12+, round differently
        value += part.value
    converged = all(part.converged for part in parts)
    tail = math.fsum(part.tail_bound for part in parts) if converged else None
    rhs = SeriesEval(value, sum(part.terms_used for part in parts), 0.0, converged, tail)
    return _record(RuleId.WEIGHTED_E, {"l": l, "m": m, "x": x}, lhs, rhs, tolerances)


# ---------------------------------------------------------------------------
# appendix derivative check


def _check_appendix(nu, x):
    if not x > 0.0:
        raise ValueError(f"requires x > 0, got x={x}")


def appendix_derivative_check(
    nu: float,
    x: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """(1/x) d/dx [x^nu J_nu(x)] = x^(nu-1) J_{nu-1}(x), x > 0.

    The left side is the defining series of x^nu J_nu(x) differentiated term
    by term, 2^(nu-1) sum_k (-1)^k (k+nu) (x/2)^(2k+2nu-2) / (k! Gamma(k+nu+1)),
    summed from the first k off the poles of 1/Gamma(k+nu) with a proved
    tail.  Term by term it is the right side's series with the weight
    (k+nu)/Gamma(k+nu+1) where the kernel has 1/Gamma(k+nu), so the rule
    checks the 1/Gamma recurrence and the kernel's pole shift at nu = 0, -1,
    ..., not calculus in x: DESCENDING_GEN exercises the order ladder across x.
    """
    _check_appendix(nu, x)
    half = 0.5 * x
    scale = math.pow(2.0, nu - 1.0)
    k0 = backend.leading_pole_shift(nu)
    recip_gamma = backend.recip_gamma

    def term(i: int) -> float:
        k = k0 + i
        p = math.pow(half, k + nu - 1.0)  # (x/2)^(2k+2nu-2) is p * p: no sooner inf than J's
        t = scale * (k + nu) * recip_gamma(k + nu + 1.0) * p * p * recip_gamma(k + 1.0)
        return -t if k & 1 else t

    # |term| = 2^(nu-1) (x/2)^(nu-1) M_k, M_k the majorant's own with c = s = x/2
    tail = _gamma_majorant(half, half, 1.0, nu - 1.0)
    factor = scale * math.pow(half, nu - 1.0)
    lhs = sum_series(term, lambda i: factor * tail(k0 + i))
    rhs = _scaled(_bessel_j(nu - 1.0, x), math.pow(x, nu - 1.0))
    return _record(RuleId.APPENDIX_DERIV, {"nu": nu, "x": x}, lhs, rhs, tolerances)


# ---------------------------------------------------------------------------
# registry consumed by the plan runner and the CLI


@dataclass(frozen=True)
class RuleSchema:
    """Plan-facing description of one rule: the rule function, the facts
    ``_schema`` reads from its signature, a human-readable statement, a
    precondition note, and the domain check the rule function itself calls."""

    run: Callable[..., object]
    params: tuple
    integer_params: tuple
    statement: str
    constraint: str
    validate: Optional[Callable[..., object]] = None


def _schema(run, validate, statement: str, constraint: str) -> RuleSchema:
    """The schema of rule function ``run``: its parameters are all but
    ``tolerances``, its integers the ones annotated ``int``."""
    sig = inspect.signature(run).parameters
    params = tuple(name for name in sig if name != "tolerances")
    return RuleSchema(
        run=run,
        params=params,
        integer_params=tuple(name for name in params if sig[name].annotation is int),
        statement=statement,
        constraint=constraint,
        validate=validate,
    )


_GEN_DOMAIN = f"x > 0, |2t| < x and x^2-2xt >= {sys.float_info.min:g} (no underflow)"

RULES: dict[RuleId, RuleSchema] = {
    RuleId.ASCENDING_GEN: _schema(
        rule_ascending_gen, _check_gen,
        "sum_{n>=0} t^n/n! J_{nu+n}(x) = (x/(x-2t))^(nu/2) J_nu(sqrt(x^2-2xt))",
        _GEN_DOMAIN,
    ),
    RuleId.DESCENDING_GEN: _schema(
        rule_descending_gen, _check_gen,
        "sum_{n>=0} (-t)^n/n! J_{nu-n}(x) = ((x-2t)/x)^(nu/2) J_nu(sqrt(x^2-2xt))",
        _GEN_DOMAIN,
    ),
    RuleId.MULTIPLE_ORDER: _schema(
        rule_multiple_order, _check_multiple,
        "sum_{n>=0} t^n/n! J_{mn}(x) = HC_0^(m)(x^2/4, (-x/2)^m t)",
        "integer m >= 1",
    ),
    RuleId.FRACTIONAL_ORDER: _schema(
        rule_fractional_order, _check_fractional,
        "sum_{n>=0} t^n/n! J_{n/m}(x) = HW_0^(m)(t (x/2)^(1/m), -x^2/4 | 1/m)",
        "integer m >= 1 and x > 0",
    ),
    RuleId.BESSEL_LAGUERRE: _schema(
        rule_bessel_laguerre, None,
        "sum_{n>=0} t^n/n! J_n(z) L_n(x,y) = LC_0(-xtz/2, z(z-2yt)/4)",
        "finite inputs",
    ),
    RuleId.LAGUERRE_HERMITE: _schema(
        rule_laguerre_hermite, _check_laguerre_hermite,
        (
            "sum_{n>=0} t^n/n! L_n(x,y) H_n^(2)(z,w)"
            " = e^{yt(z+ywt)} HC_0^(2)(xt(z+2ywt), x^2 w t^2)"
        ),
        "|t| <= 0.25",
    ),
    RuleId.GRAF_REAL: _schema(
        rule_graf, _check_graf_real,
        (
            "sum_{n in Z} t^n J_{n+nu}(x) J_n(y)"
            " = ((x-y/t)/(x-yt))^(nu/2) J_nu(sqrt(x^2+y^2-xy(t+1/t)))"
        ),
        "t > 0, x > y/t, x > y*t, x^2+y^2-xy(t+1/t) > 0; x > 0 unless nu is an integer",
    ),
    RuleId.GRAF_PHASE: _schema(
        rule_graf_phase, _check_graf_phase,
        (
            "sum_{n in Z} e^{in theta} J_{n+nu}(x) J_n(y)"
            " = ((x-y e^{-i theta})/(x-y e^{i theta}))^(nu/2)"
            " J_nu(sqrt(x^2+y^2-2xy cos theta))"
        ),
        "x > y > 0",
    ),
    RuleId.NEUMANN_EXT: _schema(
        rule_neumann_ext, _check_neumann,
        (
            "sum_{n in Z} t^n J_n(x) J_{2n}(y) = HK_0^(-2)(y^2/4, x y^2 t/8 | -2x/(y^2 t))"
        ),
        "y^2 t != 0 in floating point (y, t nonzero and y*y*t not underflowing)",
    ),
    RuleId.WEIGHTED_S: _schema(
        weighted_sum_S, _check_weighted_s,
        (
            "S_l^(m)(x,y) = sum_{n in Z} n^m J_{n+l}(x) J_n(y); brute force vs"
            " the theta-derivative route (hard) and the nested closed form"
            " (report-only)"
        ),
        f"integer 0 <= l <= {EXACTNESS_BOUND}, integer 0 <= m <= 4, x > y > 0",
    ),
    RuleId.WEIGHTED_E: _schema(
        weighted_sum_E, _check_weighted_e,
        (
            "E_l^(m)(x) = sum_{n>=0} n^m/n! J_{n+l}(x)"
            " = sum_{k=1}^{m} S2(m,k) (x/2)^{l+k} C_{l+k}((x^2-2x)/4)"
        ),
        f"integer 0 <= l <= {EXACTNESS_BOUND}, integer 1 <= m <= 10",
    ),
    RuleId.APPENDIX_DERIV: _schema(
        appendix_derivative_check, _check_appendix,
        "(1/x) d/dx [x^nu J_nu(x)] = x^(nu-1) J_{nu-1}(x)",
        "x > 0",
    ),
}


# ---------------------------------------------------------------------------
# one plan entry


def run_cases(
    rule_id: RuleId, cases, tol: Tolerances, perturb: float = 0.0
) -> list[VerificationRecord]:
    """The records of one plan entry's cases, in order.  The cases share their
    J values through the cache of ``_bessel_j``; a case that raises gives one
    INCONCLUSIVE record naming the error; a nonzero ``perturb`` is added to
    every right side."""
    records = []
    for params in cases:
        try:  # RULES is read per case, so a runner wrapped there sees every case
            out = RULES[rule_id].run(**params, tolerances=tol)
        except Exception as exc:  # contained: reported, never crashes the sweep
            note = f"evaluation failed: {type(exc).__name__}: {exc}"
            out = _record(rule_id, params, math.nan, math.nan, tol, note=note)
        for rec in out if isinstance(out, list) else [out]:  # WEIGHTED_S gives a list
            records.append(_perturbed(rec, perturb, tol) if perturb else rec)
    return records


def _perturbed(rec: VerificationRecord, delta: float, tol: Tolerances) -> VerificationRecord:
    """``rec`` judged again with ``delta`` added to its right side; a right
    certificate is shifted with it, so it still describes the value."""
    lhs = rec.lhs if rec.lhs_certificate is None else rec.lhs_certificate
    cert = rec.rhs_certificate
    rhs = rec.rhs + delta if cert is None else cert._replace(value=cert.value + delta)
    note = (rec.note + "; " if rec.note else "") + f"rhs perturbed by {delta:g}"
    return _record(rec.rule_id, rec.params, lhs, rhs, tol, rec.report_only, note)
