"""Reciprocal-gamma and exact combinatorial primitives.

Every series term in this package is built from 1/Gamma evaluated through
:func:`reciprocal_gamma`, which returns an exact 0.0 at the poles of Gamma so
that series over shifted orders drop the right leading terms with no rounding
residue.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from besselsums import backend
from besselsums.series import require_int

#: Largest argument for which the exact integer combinatorics are guaranteed;
#: generous headroom over anything the sum rules need (l, m <= ~10).
EXACTNESS_BOUND = 30


def reciprocal_gamma(a: float) -> float:
    """1/Gamma(a) for any finite real a.

    Exactly 0.0 when a is a non-positive integer.  Relative error stays below
    1e-13 on [-30, 30] away from the poles.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"reciprocal_gamma requires a finite argument, got {a!r}")
    return backend.recip_gamma(a)


@dataclass(frozen=True)
class GammaMoment:
    """A reciprocal-gamma moment: value = 1/Gamma(1 + alpha).

    These moments are what the symbolic shift operator of the umbral calculus
    evaluates to; the operator itself is never represented, only its action.
    """

    alpha: float
    value: float


def gamma_moment(alpha: float) -> GammaMoment:
    """Moment of order ``alpha``: 1 at alpha=0, 0 at negative integer alpha."""
    return GammaMoment(alpha=float(alpha), value=reciprocal_gamma(1.0 + float(alpha)))


@lru_cache(maxsize=None)
def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an m-set into k blocks."""
    m = require_int("m", m, minimum=0, maximum=EXACTNESS_BOUND)
    k = require_int("k", k, minimum=0, maximum=EXACTNESS_BOUND)
    if m == 0 and k == 0:
        return 1
    if k == 0 or k > m:
        return 0
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k > n."""
    n = require_int("n", n, minimum=0, maximum=EXACTNESS_BOUND)
    return math.comb(n, require_int("k", k, minimum=0))


def falling_factorial(a: float, k: int) -> float:
    """a (a-1) ... (a-k+1); 1 for k = 0."""
    out = 1.0
    for i in range(require_int("k", k, minimum=0)):
        out *= a - i
    return out
