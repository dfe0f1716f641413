"""One operation per sum rule: each evaluates the brute-force series side and
the closed-form side of an identity and returns a verdict record.

The brute-force side is ground truth.  A case is VERIFIED only when both
sides' evaluations converged and the sides agree within tolerance; a case
whose evaluations did not converge is INCONCLUSIVE, never VERIFIED.

Every record is built by ``_record``, which also decides its verdict.  A
record's certificates describe the values beside them: each side reaches
``_record`` as a ``SeriesEval``, or as a bare number when it has none (a
finite-difference derivative, the WEIGHTED_S nested closed form).  A closed
form that is a factor times one evaluated function is built by ``_scaled``,
which carries the function's tail bound times |factor|.
"""

import cmath
import dataclasses
import math
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from besselsums import backend, hybrid
# laguerre2, hermite_m: not called, the reference definitions of the tabled weights
from besselsums.functions import bessel_j, hermite_m, laguerre2, tricomi_c  # noqa: F401
from besselsums.hybrid import h_tricomi, h_wright, hybrid_k, l_tricomi
from besselsums.series import (
    DEFAULT_POLICY,
    EvaluationDomainError,
    SeriesEval,
    SummationPolicy,
    central_derivative,
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
    """Verdict tolerances: a side pair agrees when abs_err <= tol_abs or
    rel_err <= tol_rel.  Defaults sit an order of magnitude above the engine
    tolerances to absorb cancellation."""

    tol_abs: float = 1e-9
    tol_rel: float = 1e-8

    def __post_init__(self):
        for name, value in (("tol_abs", self.tol_abs), ("tol_rel", self.tol_rel)):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0.0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()
# Looser, for the rules whose hard check is a finite-difference derivative.
_FD_TOLERANCES = Tolerances(tol_abs=1e-6, tol_rel=1e-6)

# Finite-difference steps: larger steps at higher orders trade truncation
# error against the roundoff amplified by 1/h^m.
_FD_STEP = {1: 1e-3, 2: 1e-3, 3: 5e-3, 4: 5e-3}


@dataclass(frozen=True)
class RuleCase:
    rule_id: RuleId
    params: dict


@dataclass
class VerificationRecord:
    case: RuleCase
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
    abs_err = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs))
    if denom == 0.0:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    else:
        rel_err = abs_err / denom
    return abs_err, rel_err


def _judge(abs_err, rel_err, converged: bool, tol: Tolerances) -> Verdict:
    if not (converged and math.isfinite(abs_err)):  # a nan or infinite side proves nothing
        return Verdict.INCONCLUSIVE
    if abs_err <= tol.tol_abs or rel_err <= tol.tol_rel:
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
    abs_err, rel_err = _errors(lhs, rhs)
    return VerificationRecord(
        case=RuleCase(rule_id, dict(params)),
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        verdict=_judge(abs_err, rel_err, lhs_ok and rhs_ok, tol),
        lhs_certificate=lhs_cert,
        rhs_certificate=rhs_cert,
        report_only=report_only,
        note=note,
    )


def _scaled(side: SeriesEval, factor) -> SeriesEval:
    """factor * side, with the side's tail bound times |factor| (None stays
    None); the term count and last term stay the inner sum's."""
    tail = side.tail_bound
    return SeriesEval(
        factor * side.value,
        side.terms_used,
        side.last_term_magnitude,
        side.converged,
        None if tail is None else abs(factor) * tail,
    )


def _taylor_weight(t: float, n: int) -> float:
    """t^n / n!, the weight of every exponential generating sum over J alone.

    All rules share this helper so identical parameter points produce
    bit-identical left sides across rules.
    """
    return math.pow(t, n) * backend.recip_gamma(n + 1.0)


class _JMemo:
    """J values of one plan entry, valid for one summation policy.

    ``policy`` is the object the plan runner hands the rules, so a lookup
    compares it by identity, not by value.
    """

    __slots__ = ("policy", "table")

    def __init__(self, policy: SummationPolicy):
        self.policy = policy
        self.table = {}


# Installed by run_cases for each plan entry; None (no reuse) outside it.
_J_MEMO: ContextVar[Optional[_JMemo]] = ContextVar("besselsums_j_memo", default=None)


def _bessel_j(nu: float, x: float, policy: SummationPolicy) -> SeriesEval:
    """bessel_j(nu, x, policy), reusing the result object within a plan entry.

    Keys are (nu, x): bessel_j gives identical results for int and float nu
    and for x = +-0.0, which a dict key does not tell apart.  A miss calls the
    module attribute, so wrappers installed there see every evaluation.  A
    negative integer order is served from J_|nu| (see ``_mirror``).
    """
    memo = _J_MEMO.get()
    if memo is None or memo.policy is not policy:
        return bessel_j(nu, x, policy)
    key = (nu, x)
    hit = memo.table.get(key)
    if hit is None:
        if nu < 0.0 and float(nu).is_integer():
            hit = _mirror(nu, x, policy)
        else:
            hit = bessel_j(nu, x, policy)
        memo.table[key] = hit
    return hit


def _mirror(nu: float, x: float, policy: SummationPolicy) -> SeriesEval:
    """J_nu(x) = (-1)^nu J_-nu(x) for negative integer nu, bit for bit.

    The kernel sums J_-n from k = n, and those terms are J_n's terms times
    (-1)^n, so the certificate is the same and the value only changes sign.
    A zero value stays +0.0, as the kernel returns it.
    """
    try:
        j = _bessel_j(-nu, x, policy)
    except EvaluationDomainError:
        return bessel_j(nu, x, policy)  # raises again, naming the order asked for
    if j.value == 0.0 or not int(nu) & 1:
        return j
    return _scaled(j, -1.0)


def _j(nu: float, x: float, policy: SummationPolicy) -> float:
    return _bessel_j(nu, x, policy).value


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


def _bilateral_majorant(up: float, down: float, s: float, nu: float, power: int = 0) -> tuple:
    """The (n > 0, n < 0) majorants of sum_n w_n J_(n+nu)(x) J_n(y), s = |x|/2.

    ``up`` and ``down`` are chosen so that |w_k| (|y|/2)^k <= k^power up^k and
    |w_-k| (|y|/2)^k <= k^power down^k; with |J_(+-k)(y)| <= (|y|/2)^k / k!
    the term at n = +-k is then at most k^power (up or down)^k / k! times
    |J_(nu+-k)(x)|.  For integer nu, |J_(nu-k)(x)| = |J_(k-nu)(x)|; at
    non-integer nu no such bound is at hand, so the n < 0 direction is left
    to the negligible-term streak.
    """
    upper = _gamma_majorant(up, s, 1.0, nu, power)
    lower = _gamma_majorant(down, s, 1.0, -nu, power) if float(nu).is_integer() else None
    return upper, lower


# ---------------------------------------------------------------------------
# generating-function rules


def _check_gen(nu, x, t):
    if not x > 0.0:
        raise ValueError(f"x must be positive, got x={x}")
    if not abs(2.0 * t) < x:
        raise ValueError(f"requires |2t| < x, got t={t}, x={x}")


def rule_ascending_gen(
    nu: float,
    x: float,
    t: float,
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_{nu+n}(x)  =  (x/(x-2t))^(nu/2) J_nu(sqrt(x^2-2xt)),  |2t| < x."""
    _check_gen(nu, x, t)
    lhs = sum_series(
        lambda n: _taylor_weight(t, n) * _j(nu + n, x, policy),
        policy,
        _gamma_majorant(abs(t), 0.5 * x, 1.0, nu),
    )
    rhs_j = _bessel_j(nu, math.sqrt(x * x - 2.0 * x * t), policy)
    rhs = _scaled(rhs_j, math.pow(x / (x - 2.0 * t), 0.5 * nu))
    return _record(RuleId.ASCENDING_GEN, {"nu": nu, "x": x, "t": t}, lhs, rhs, tolerances)


def rule_descending_gen(
    nu: float,
    x: float,
    t: float,
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n (-t)^n/n! J_{nu-n}(x)  =  ((x-2t)/x)^(nu/2) J_nu(sqrt(x^2-2xt)),  |2t| < x."""
    _check_gen(nu, x, t)
    # |J_(nu-n)| = |J_(n-nu)| needs an integer order; otherwise the stop stays heuristic
    majorant = _gamma_majorant(abs(t), 0.5 * x, 1.0, -nu) if float(nu).is_integer() else None
    lhs = sum_series(lambda n: _taylor_weight(-t, n) * _j(nu - n, x, policy), policy, majorant)
    rhs_j = _bessel_j(nu, math.sqrt(x * x - 2.0 * x * t), policy)
    rhs = _scaled(rhs_j, math.pow((x - 2.0 * t) / x, 0.5 * nu))
    return _record(RuleId.DESCENDING_GEN, {"nu": nu, "x": x, "t": t}, lhs, rhs, tolerances)


def _check_multiple(m, x, t) -> int:
    return require_int("m", m, minimum=1)


def rule_multiple_order(
    m: int,
    x: float,
    t: float,
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_{mn}(x)  =  HC_0^(m)(x^2/4, (-x/2)^m t), the Hermite-based
    Tricomi function."""
    m = _check_multiple(m, x, t)
    lhs = sum_series(
        lambda n: _taylor_weight(t, n) * _j(float(m * n), x, policy),
        policy,
        _gamma_majorant(abs(t), 0.5 * abs(x), float(m)),
    )
    rhs = h_tricomi(0.0, m, x * x / 4.0, math.pow(-x / 2.0, m) * t, policy)
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
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_{n/m}(x)  =  HW_0^(m)(t (x/2)^(1/m), -x^2/4 | 1/m), the
    Hermite-based Wright function."""
    m = _check_fractional(m, x, t)
    lhs = sum_series(
        lambda n: _taylor_weight(t, n) * _j(n / m, x, policy),
        policy,
        _gamma_majorant(abs(t), 0.5 * x, 1.0 / m),
    )
    rhs = h_wright(0.0, m, 1.0 / m, t * math.pow(x / 2.0, 1.0 / m), -x * x / 4.0, policy)
    return _record(RuleId.FRACTIONAL_ORDER, {"m": m, "x": x, "t": t}, lhs, rhs, tolerances)


def rule_bessel_laguerre(
    z: float,
    x: float,
    y: float,
    t: float,
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """sum_n t^n/n! J_n(z) L_n(x,y)  =  LC_0(-xtz/2, z(z-2yt)/4), the
    Laguerre-based Tricomi function."""
    require_finite(z=z, x=x, y=y, t=t)
    lag = hybrid._laguerre_table(x, y)  # L_n(x, y)/n!
    # |L_n(x, y)/n!| <= (|x| + |y|)^n / n! termwise from laguerre2's defining sum
    lhs = sum_series(
        lambda n: math.pow(t, n) * _j(float(n), z, policy) * lag(n),
        policy,
        _gamma_majorant(abs(t) * (abs(x) + abs(y)), 0.5 * abs(z)),
    )
    rhs = l_tricomi(0.0, -x * t * z / 2.0, z * (z - 2.0 * y * t) / 4.0, policy)
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
    policy: SummationPolicy = DEFAULT_POLICY,
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
    lhs = sum_series(lambda n: lag(n) * hybrid._FACTORIAL[n] * herm(n) * math.pow(t, n), policy)
    rhs_h = h_tricomi(0.0, 2, x * t * (z + 2.0 * y * w * t), x * x * w * t * t, policy)
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
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """Addition theorem with a real weight:
    sum_{n in Z} t^n J_{n+nu}(x) J_n(y)
      =  ((x - y/t)/(x - yt))^(nu/2) J_nu(sqrt(x^2 + y^2 - xy(t + 1/t)))."""
    _check_graf_real(nu, x, y, t)
    lhs = sum_bilateral(
        lambda n: math.pow(t, n) * _j(nu + n, x, policy) * _j(float(n), y, policy),
        policy,
        _bilateral_majorant(0.5 * t * abs(y), 0.5 * abs(y) / t, 0.5 * abs(x), nu),
    )
    arg = math.sqrt(x * x + y * y - x * y * (t + 1.0 / t))
    rhs = _scaled(_bessel_j(nu, arg, policy), math.pow((x - y / t) / (x - y * t), 0.5 * nu))
    return _record(RuleId.GRAF_REAL, {"nu": nu, "x": x, "y": y, "t": t}, lhs, rhs, tolerances)


def _graf_phase_closed(nu: float, x: float, y: float, theta: float, policy) -> SeriesEval:
    arg = math.sqrt(x * x + y * y - 2.0 * x * y * math.cos(theta))
    j = _bessel_j(nu, arg, policy)
    ratio = (x - y * cmath.exp(-1j * theta)) / (x - y * cmath.exp(1j * theta))
    return _scaled(j, ratio ** (0.5 * nu))


def _check_graf_phase(nu, x, y, theta):
    if not x > y > 0.0:
        raise ValueError(f"requires x > y > 0, got x={x}, y={y}")


def rule_graf_phase(
    nu: float,
    x: float,
    y: float,
    theta: float,
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """Addition theorem with a unit-modulus weight (x > y > 0):
    sum_{n in Z} e^{in theta} J_{n+nu}(x) J_n(y)
      =  ((x - y e^{-i theta})/(x - y e^{i theta}))^(nu/2)
         * J_nu(sqrt(x^2 + y^2 - 2xy cos theta)),
    with principal-branch complex powers.  Both sides are compared as complex
    values."""
    _check_graf_phase(nu, x, y, theta)
    lhs = sum_bilateral(
        lambda n: cmath.exp(1j * n * theta) * _j(nu + n, x, policy) * _j(float(n), y, policy),
        policy,
        _bilateral_majorant(0.5 * y, 0.5 * y, 0.5 * x, nu),
    )
    rhs = _graf_phase_closed(nu, x, y, theta, policy)
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
    policy: SummationPolicy = DEFAULT_POLICY,
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
        lambda n: math.pow(t, n) * _j(float(n), x, policy) * _j(float(2 * n), y, policy),
        policy,
        (
            _gamma_majorant(0.5 * abs(t * x), 0.5 * abs(y), 2.0),
            _gamma_majorant(0.5 * abs(x / t), 0.5 * abs(y), 2.0),
        ),
    )
    rhs = hybrid_k(0.0, -2, y * y / 4.0, x * y * y * t / 8.0, -2.0 * x / (y * y * t), policy)
    return _record(RuleId.NEUMANN_EXT, {"x": x, "y": y, "t": t}, lhs, rhs, tolerances)


# ---------------------------------------------------------------------------
# weighted sums


def _check_weighted_s(l, m, x, y) -> tuple:
    # l: exact binomials in the closed form; m: finite-difference stability
    l = require_int("l", l, minimum=0, maximum=EXACTNESS_BOUND)
    m = require_int("m", m, minimum=0, maximum=4)
    _check_graf_phase(l, x, y, 0.0)
    return l, m


def weighted_sum_S(
    l: int,
    m: int,
    x: float,
    y: float,
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = _FD_TOLERANCES,
) -> list[VerificationRecord]:
    """Two records for S_l^(m)(x, y) = sum_{n in Z} n^m J_{n+l}(x) J_n(y), l in
    0..30, m in 0..4, x > y > 0: brute force against (-i d/dtheta)^m of the
    GRAF_PHASE closed form at theta = 0, then, report-only, against the nested
    finite sum of ``_weighted_closed_form``."""
    l, m = _check_weighted_s(l, m, x, y)

    brute = sum_bilateral(
        lambda n: float(n) ** m * _j(float(n + l), x, policy) * _j(float(n), y, policy),
        policy,
        _bilateral_majorant(0.5 * y, 0.5 * y, 0.5 * x, float(l), m),
    )

    if m == 0:
        deriv = _graf_phase_closed(float(l), x, y, 0.0, policy).value.real
    else:
        def g(th: float) -> complex:
            return _graf_phase_closed(float(l), x, y, th, policy).value

        d = central_derivative(g, 0.0, m, _FD_STEP[m])
        deriv = ((-1j) ** m * d).real

    closed = _weighted_closed_form(l, m, x, y, policy)
    params = {"l": l, "m": m, "x": x, "y": y}
    return [
        _record(RuleId.WEIGHTED_S, {**params, "route": "derivative"}, brute, deriv, tolerances),
        _record(
            RuleId.WEIGHTED_S, {**params, "route": "closed"}, brute, closed, tolerances,
            report_only=True, note="closed form is report-only: its printing is ambiguous",
        ),
    ]


def _weighted_closed_form(l: int, m: int, x: float, y: float, policy) -> float:
    """Nested finite sum for S_l^(m); the (m - j) exponent inside the R factor
    uses the outer j, the only reading under which the expression is well
    formed."""
    j_cache = {p: _j(float(l + p), x - y, policy) for p in range(m + 1)}
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
                    * j_cache[p]
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
    policy: SummationPolicy = DEFAULT_POLICY,
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
        lambda n: float(n) ** m * backend.recip_gamma(n + 1.0) * _j(float(n + l), x, policy),
        policy,
        _gamma_majorant(1.0, 0.5 * abs(x), 1.0, float(l), m),
    )
    arg = (x * x - 2.0 * x) / 4.0
    parts = [
        _scaled(tricomi_c(float(l + k), arg, policy), stirling2(m, k) * math.pow(x / 2.0, l + k))
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
    if not x > _FD_STEP[1]:  # the stencil samples x - h
        raise ValueError(f"requires x > h = {_FD_STEP[1]:g}, the stencil's step, got x={x}")


def appendix_derivative_check(
    nu: float,
    x: float,
    policy: SummationPolicy = DEFAULT_POLICY,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationRecord:
    """First-order check of (1/x) d/dx [x^nu J_nu(x)] = x^(nu-1) J_{nu-1}(x)
    by central differences (the higher-order ladder is exercised through the
    descending generating rule)."""
    _check_appendix(nu, x)

    def f(s: float) -> float:
        return math.pow(s, nu) * _j(nu, s, policy)

    lhs = central_derivative(f, x, 1, _FD_STEP[1]) / x
    rhs = _scaled(_bessel_j(nu - 1.0, x, policy), math.pow(x, nu - 1.0))
    return _record(RuleId.APPENDIX_DERIV, {"nu": nu, "x": x}, lhs, rhs, tolerances)


# ---------------------------------------------------------------------------
# registry consumed by the plan runner and the CLI


@dataclass(frozen=True)
class RuleSchema:
    """Plan-facing description of one rule: parameter names, which of them are
    integers, a human-readable statement, a precondition note, the runner, and
    the domain check the rule function itself calls (raises ValueError)."""

    params: tuple
    statement: str
    constraint: str
    run: Callable[[dict, SummationPolicy, Tolerances], list]
    integer_params: tuple = ()
    default_tolerances: Tolerances = DEFAULT_TOLERANCES
    validate: Optional[Callable[..., object]] = None

    def tolerances(self, tol_abs=None, tol_rel=None) -> Tolerances:
        """The default tolerances with the given overrides (None keeps a default)."""
        base = self.default_tolerances
        return Tolerances(
            tol_abs=base.tol_abs if tol_abs is None else tol_abs,
            tol_rel=base.tol_rel if tol_rel is None else tol_rel,
        )


def _single(fn):
    def run(params, policy, tolerances):
        return [fn(**params, policy=policy, tolerances=tolerances)]

    return run


RULES: dict[RuleId, RuleSchema] = {
    RuleId.ASCENDING_GEN: RuleSchema(
        params=("nu", "x", "t"),
        statement="sum_{n>=0} t^n/n! J_{nu+n}(x) = (x/(x-2t))^(nu/2) J_nu(sqrt(x^2-2xt))",
        constraint="x > 0 and |2t| < x",
        run=_single(rule_ascending_gen),
        validate=_check_gen,
    ),
    RuleId.DESCENDING_GEN: RuleSchema(
        params=("nu", "x", "t"),
        statement="sum_{n>=0} (-t)^n/n! J_{nu-n}(x) = ((x-2t)/x)^(nu/2) J_nu(sqrt(x^2-2xt))",
        constraint="x > 0 and |2t| < x",
        run=_single(rule_descending_gen),
        validate=_check_gen,
    ),
    RuleId.MULTIPLE_ORDER: RuleSchema(
        params=("m", "x", "t"),
        integer_params=("m",),
        statement="sum_{n>=0} t^n/n! J_{mn}(x) = HC_0^(m)(x^2/4, (-x/2)^m t)",
        constraint="integer m >= 1",
        run=_single(rule_multiple_order),
        validate=_check_multiple,
    ),
    RuleId.FRACTIONAL_ORDER: RuleSchema(
        params=("m", "x", "t"),
        integer_params=("m",),
        statement="sum_{n>=0} t^n/n! J_{n/m}(x) = HW_0^(m)(t (x/2)^(1/m), -x^2/4 | 1/m)",
        constraint="integer m >= 1 and x > 0",
        run=_single(rule_fractional_order),
        validate=_check_fractional,
    ),
    RuleId.BESSEL_LAGUERRE: RuleSchema(
        params=("z", "x", "y", "t"),
        statement="sum_{n>=0} t^n/n! J_n(z) L_n(x,y) = LC_0(-xtz/2, z(z-2yt)/4)",
        constraint="finite inputs",
        run=_single(rule_bessel_laguerre),
    ),
    RuleId.LAGUERRE_HERMITE: RuleSchema(
        params=("x", "y", "z", "w", "t"),
        statement=(
            "sum_{n>=0} t^n/n! L_n(x,y) H_n^(2)(z,w)"
            " = e^{yt(z+ywt)} HC_0^(2)(xt(z+2ywt), x^2 w t^2)"
        ),
        constraint="|t| <= 0.25",
        run=_single(rule_laguerre_hermite),
        validate=_check_laguerre_hermite,
    ),
    RuleId.GRAF_REAL: RuleSchema(
        params=("nu", "x", "y", "t"),
        statement=(
            "sum_{n in Z} t^n J_{n+nu}(x) J_n(y)"
            " = ((x-y/t)/(x-yt))^(nu/2) J_nu(sqrt(x^2+y^2-xy(t+1/t)))"
        ),
        constraint="t > 0, x > y/t, x > y*t, x^2+y^2-xy(t+1/t) > 0; x > 0 unless nu is an integer",
        run=_single(rule_graf),
        validate=_check_graf_real,
    ),
    RuleId.GRAF_PHASE: RuleSchema(
        params=("nu", "x", "y", "theta"),
        statement=(
            "sum_{n in Z} e^{in theta} J_{n+nu}(x) J_n(y)"
            " = ((x-y e^{-i theta})/(x-y e^{i theta}))^(nu/2)"
            " J_nu(sqrt(x^2+y^2-2xy cos theta))"
        ),
        constraint="x > y > 0",
        run=_single(rule_graf_phase),
        validate=_check_graf_phase,
    ),
    RuleId.NEUMANN_EXT: RuleSchema(
        params=("x", "y", "t"),
        statement=(
            "sum_{n in Z} t^n J_n(x) J_{2n}(y) = HK_0^(-2)(y^2/4, x y^2 t/8 | -2x/(y^2 t))"
        ),
        constraint="y^2 t != 0 in floating point (y, t nonzero and y*y*t not underflowing)",
        run=_single(rule_neumann_ext),
        validate=_check_neumann,
    ),
    RuleId.WEIGHTED_S: RuleSchema(
        params=("l", "m", "x", "y"),
        integer_params=("l", "m"),
        statement=(
            "S_l^(m)(x,y) = sum_{n in Z} n^m J_{n+l}(x) J_n(y); brute force vs"
            " the theta-derivative route (hard) and the nested closed form"
            " (report-only)"
        ),
        constraint=f"integer 0 <= l <= {EXACTNESS_BOUND}, integer 0 <= m <= 4, x > y > 0",
        run=lambda params, policy, tolerances: weighted_sum_S(
            **params, policy=policy, tolerances=tolerances
        ),
        default_tolerances=_FD_TOLERANCES,
        validate=_check_weighted_s,
    ),
    RuleId.WEIGHTED_E: RuleSchema(
        params=("l", "m", "x"),
        integer_params=("l", "m"),
        statement=(
            "E_l^(m)(x) = sum_{n>=0} n^m/n! J_{n+l}(x)"
            " = sum_{k=1}^{m} S2(m,k) (x/2)^{l+k} C_{l+k}((x^2-2x)/4)"
        ),
        constraint=f"integer 0 <= l <= {EXACTNESS_BOUND}, integer 1 <= m <= 10",
        run=_single(weighted_sum_E),
        validate=_check_weighted_e,
    ),
    RuleId.APPENDIX_DERIV: RuleSchema(
        params=("nu", "x"),
        statement="(1/x) d/dx [x^nu J_nu(x)] = x^(nu-1) J_{nu-1}(x)",
        constraint=f"x > {_FD_STEP[1]:g} (the finite-difference step)",
        run=_single(appendix_derivative_check),
        default_tolerances=_FD_TOLERANCES,
        validate=_check_appendix,
    ),
}


# ---------------------------------------------------------------------------
# one plan entry


def run_cases(
    rule_id: RuleId, cases, policy: SummationPolicy, tol: Tolerances, perturb: float = 0.0
) -> list[VerificationRecord]:
    """The records of one plan entry's cases, in order.  The cases share their
    J values (see ``_bessel_j``); a case that raises gives one INCONCLUSIVE
    record naming the error; a nonzero ``perturb`` is added to every right side."""
    token = _J_MEMO.set(_JMemo(policy))
    records = []
    try:
        for params in cases:
            try:  # RULES is read per case, so a runner wrapped there sees every case
                out = RULES[rule_id].run(params, policy, tol)
            except Exception as exc:  # contained: reported, never crashes the sweep
                note = f"evaluation failed: {type(exc).__name__}: {exc}"
                out = [_record(rule_id, params, math.nan, math.nan, tol, note=note)]
            if perturb:
                out = [_perturbed(rec, perturb, tol) for rec in out]
            records += out
    finally:
        _J_MEMO.reset(token)
    return records


def _perturbed(rec: VerificationRecord, delta: float, tol: Tolerances) -> VerificationRecord:
    """``rec`` judged again with ``delta`` added to its right side; a right
    certificate is shifted with it, so it still describes the value."""
    lhs = rec.lhs if rec.lhs_certificate is None else rec.lhs_certificate
    cert = rec.rhs_certificate
    rhs = rec.rhs + delta if cert is None else dataclasses.replace(cert, value=cert.value + delta)
    note = (rec.note + "; " if rec.note else "") + f"rhs perturbed by {delta:g}"
    return _record(rec.case.rule_id, rec.case.params, lhs, rhs, tol, rec.report_only, note)
