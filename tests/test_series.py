"""The adaptive summation engine and the one integer check every integer
parameter goes through."""

import cmath
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums import (
    EXACTNESS_BOUND,
    EvaluationDomainError,
    PlanError,
    SeriesEval,
    h_tricomi,
    h_wright,
    hermite_m,
    hybrid_k,
    laguerre2,
    load_plan,
    rule_multiple_order,
    stirling2,
    sum_bilateral,
    sum_series,
    weighted_sum_E,
)
from besselsums import series
from besselsums.series import ABS_TOL, CONSECUTIVE_SMALL, REL_TOL

# frozen via a 30-term direct sum (see oracle helpers below)
J0_1 = 0.7651976865579666
E = 2.718281828459045


class TestPolicy:
    def test_defaults(self):
        assert series.ABS_TOL == 1e-14 and series.REL_TOL == 1e-12
        assert series.MAX_TERMS == 400 and series.CONSECUTIVE_SMALL == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": 1.5},
            {"rel_tol": -1e-3},
            {"max_terms": 4},
            {"consecutive_small": 0},
        ],
    )
    def test_validation(self, kwargs, tmp_path):
        # the policy is fixed: a plan may restate it, and nothing else
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"policy": kwargs, "entries": []}))
        with pytest.raises(PlanError, match=f"bad policy: {next(iter(kwargs))} is fixed at "):
            load_plan(path)


class TestSumSeries:
    def test_exponential(self):
        ev = sum_series(lambda k: 1.0 / math.factorial(k))
        assert ev.converged
        assert ev.value == pytest.approx(E, rel=1e-15)

    def test_all_zero(self):
        ev = sum_series(lambda k: 0.0)
        assert ev.value == 0.0
        assert ev.converged
        assert ev.terms_used == CONSECUTIVE_SMALL

    def test_bessel_terms(self):
        # term_k = (-1)^k (x/2)^(2k) / (k!)^2 at x=1 sums to J_0(1)
        ev = sum_series(lambda k: (-1) ** k * 0.25**k / math.factorial(k) ** 2)
        assert ev.value == pytest.approx(J0_1, rel=1e-14)

    def test_non_finite_term(self):
        with pytest.raises(EvaluationDomainError) as err:
            sum_series(lambda k: math.inf if k == 5 else 1.0 / (k + 1) ** 2)
        assert err.value.index == 5

    def test_overflowing_term(self):
        # math.pow raises OverflowError at 10^(40 k) for k = 8
        with pytest.raises(EvaluationDomainError) as err:
            sum_series(lambda k: math.pow(10.0, 40 * k))
        assert err.value.index == 8

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_TERMS", 50)
        ev = sum_series(lambda k: 1.0 / (k + 1))
        assert not ev.converged
        assert ev.terms_used == 50

    def test_certificate_bound(self):
        ev = sum_series(lambda k: 0.5**k)
        assert ev.converged
        assert ev.last_term_magnitude <= ABS_TOL + REL_TOL * abs(ev.value)

    @settings(max_examples=50)
    @given(st.floats(min_value=-0.9, max_value=0.9), st.floats(min_value=0.1, max_value=100.0))
    def test_linearity(self, ratio, scale):
        # summing doubled terms then halving matches within 2x rel_tol
        base = sum_series(lambda k: scale * ratio**k).value
        doubled = sum_series(lambda k: 2.0 * scale * ratio**k).value / 2.0
        assert doubled == pytest.approx(base, rel=2 * REL_TOL, abs=1e-13)

    def test_honesty_under_doubled_budget(self, monkeypatch):
        for ratio in (0.3, -0.7, 0.9):
            a = sum_series(lambda k: ratio**k)
            with monkeypatch.context() as patch:
                patch.setattr(series, "MAX_TERMS", 2 * series.MAX_TERMS)
                b = sum_series(lambda k: ratio**k)
            assert a.converged
            bound = 10 * (ABS_TOL + REL_TOL * abs(a.value))
            assert abs(a.value - b.value) <= bound


class TestSumBilateral:
    def test_delta(self):
        c = 3.25
        ev = sum_bilateral(lambda n: c if n == 0 else 0.0)
        assert ev.value == c
        assert ev.converged

    def test_matches_one_sided_when_negative_vanishes(self):
        term = lambda n: 0.35**n / math.factorial(n) if n >= 0 else 0.0
        one = sum_series(lambda k: 0.35**k / math.factorial(k))
        two = sum_bilateral(term)
        assert two.value == one.value  # identical additions, bit for bit

    def test_geometric_both_directions(self):
        # sum_{n in Z} r^|n| = (1+r)/(1-r)
        r = 0.5
        ev = sum_bilateral(lambda n: r ** abs(n))
        assert ev.converged
        assert ev.value == pytest.approx((1 + r) / (1 - r), rel=1e-12)

    def test_complex_terms(self):
        # sum_{n in Z} e^{in theta} r^|n| is real: Poisson-kernel-like
        r, theta = 0.4, 0.9
        import cmath

        ev = sum_bilateral(lambda n: (r ** abs(n)) * cmath.exp(1j * n * theta))
        expected = (1 - r * r) / (1 - 2 * r * math.cos(theta) + r * r)
        assert ev.value.real == pytest.approx(expected, rel=1e-12)
        assert abs(ev.value.imag) < 1e-14

    def test_unit_weight_bessel_sum(self):
        # sum_{n in Z} J_n(1) = exp((z/2)(t - 1/t)) at t = 1, i.e. exactly 1
        import scipy.special as sc

        ev = sum_bilateral(lambda n: float(sc.jv(n, 1.0)))
        assert ev.converged
        assert ev.value == pytest.approx(1.0, rel=1e-12)

    def test_bessel_product_sum(self):
        # sum_{n in Z} J_n(2) J_n(1) = J_0(1)
        import scipy.special as sc

        ev = sum_bilateral(lambda n: float(sc.jv(n, 2.0)) * float(sc.jv(n, 1.0)))
        assert ev.value == pytest.approx(J0_1, rel=1e-12)

    def test_budget_split(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_TERMS", 41)
        ev = sum_bilateral(lambda n: 1.0 / (abs(n) + 1))
        assert not ev.converged
        assert ev.terms_used == 41

    def test_non_finite_carries_index(self):
        with pytest.raises(EvaluationDomainError) as err:
            sum_bilateral(lambda n: math.nan if n == -3 else 0.5 ** abs(n))
        assert err.value.index == 3  # the pair k = |n|

    def test_overflowing_term_carries_index(self):
        with pytest.raises(EvaluationDomainError) as err:
            sum_bilateral(lambda n: math.pow(10.0, -40 * n))
        assert err.value.index == 8  # the pair k = |n|


class TestMajorant:
    """A sum given a majorant stops on its proved tail and on nothing else."""

    def test_stops_on_the_proof_and_records_it(self):
        r = 0.3
        asked = []

        def majorant(n):  # sum_{j > n} r^j, exactly
            asked.append(n)
            return r ** (n + 1) / (1.0 - r)

        ev = sum_series(lambda k: r**k, majorant)
        assert ev.converged
        assert ev.tail_bound == majorant(ev.terms_used - 1)
        assert ev.tail_bound <= max(ABS_TOL, REL_TOL * ev.value)
        assert abs(1.0 / (1.0 - r) - ev.value) <= ev.tail_bound + 4 * math.ulp(ev.value)
        # asked only once the next term, extrapolated, would be negligible
        assert len(asked) <= 3
        assert sum_series(lambda k: r**k).terms_used > ev.terms_used  # the streak sums more

    def test_no_proof_no_stop(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_TERMS", 20)
        ev = sum_series(lambda k: 0.0, lambda n: math.inf)
        assert not ev.converged
        assert ev.terms_used == 20
        assert ev.tail_bound is None

    def test_without_majorant_the_stop_is_heuristic(self):
        ev = sum_series(lambda k: 0.5**k)
        assert ev.converged and ev.tail_bound is None

    def test_bilateral_bound_per_direction(self):
        r = 0.4
        tail = lambda n: r ** (n + 1) / (1.0 - r)
        both = sum_bilateral(lambda n: r ** abs(n), (tail, tail))
        assert both.converged
        # the pairs' majorant is the two directions' tails summed, held to the threshold
        assert both.tail_bound <= max(ABS_TOL, REL_TOL * both.value)
        assert abs((1 + r) / (1 - r) - both.value) <= both.tail_bound + 8 * math.ulp(both.value)
        upper_only = sum_bilateral(lambda n: r ** abs(n), (tail, None))
        assert upper_only.converged and upper_only.tail_bound is None

    def test_tail_bound_takes_part_in_equality(self):
        # a certificate is a tuple of all five fields, the proved tail included
        assert SeriesEval(1.0, 3, 0.0, True, 1e-20) != SeriesEval(1.0, 3, 0.0, True)
        assert SeriesEval(1.0, 3, 0.0, True, 1e-20) == (1.0, 3, 0.0, True, 1e-20)
        assert SeriesEval(1.0, 3, 0.0, True).tail_bound is None


# ---------------------------------------------------------------------------
# the engine against the accumulator-object implementation it replaced


def _reference_is_finite(v):
    if isinstance(v, complex):
        return cmath.isfinite(v)
    return math.isfinite(v)


class _ReferenceAccumulator:
    """Neumaier-compensated running sum; works componentwise on complex."""

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, term):
        t = self.total + term
        if abs(self.total) >= abs(term):
            self.comp += (self.total - t) + term
        else:
            self.comp += (term - t) + self.total
        self.total = t

    @property
    def value(self):
        return self.total + self.comp


def _reference_sum_series(term, fixed, run):
    acc = _ReferenceAccumulator()
    streak = 0
    last_mag = 0.0
    for k in range(fixed["MAX_TERMS"]):
        try:
            t = term(k)
        except OverflowError as exc:
            raise EvaluationDomainError(f"overflow in series term at index {k}", index=k) from exc
        if not _reference_is_finite(t):
            raise EvaluationDomainError(f"non-finite series term {t!r} at index {k}", index=k)
        acc.add(t)
        last_mag = abs(t)
        if last_mag <= fixed["ABS_TOL"] + fixed["REL_TOL"] * abs(acc.value):
            streak += 1
            if streak >= max(fixed["CONSECUTIVE_SMALL"], run):
                return SeriesEval(acc.value, k + 1, last_mag, True)
        else:
            streak = 0
    return SeriesEval(acc.value, fixed["MAX_TERMS"], last_mag, False)


def _patched_sum_series(term, fixed, run):
    """``sum_series`` with the module's summation constants set to ``fixed``."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in fixed.items():
            patch.setattr(series, name, value)
        return sum_series(term, run=run)


def _seeded_series(rng):
    """A term function, the summation constants and a run length drawn from
    ``rng``: real or complex terms, alternating or one-signed, with a random
    decay (a ratio near or above 1 runs out of budget), sometimes sparse or
    zero at k = 0, sometimes one bad term (inf, nan or a raised
    OverflowError)."""
    fixed = {
        "ABS_TOL": rng.choice([1e-14, 1e-9]),
        "REL_TOL": rng.choice([1e-12, 1e-6]),
        "MAX_TERMS": rng.choice([8, 9, 30, 400]),
        "CONSECUTIVE_SMALL": rng.randint(1, 5),
    }
    ratio = rng.uniform(0.05, 1.02)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    alternating = rng.random() < 0.5
    is_complex = rng.random() < 0.3
    sparse = rng.choice([1, 1, 2, 3])
    values = []
    for k in range(400):
        t = scale * ratio**k * rng.uniform(0.5, 1.5)
        if k % sparse:
            t = 0.0
        if alternating and k & 1:
            t = -t
        values.append(complex(t, t * rng.uniform(-2.0, 2.0)) if is_complex else t)
    if rng.random() < 0.2:
        values[0] = 0.0
    bad_at = rng.randint(0, 12) if rng.random() < 0.3 else None
    bad = rng.choice(["inf", "nan", "complex-inf", "overflow"])

    def term(k):
        if k == bad_at:
            if bad == "overflow":
                raise OverflowError("math range error")
            return {"inf": -math.inf, "nan": math.nan, "complex-inf": complex(1.0, math.inf)}[bad]
        return values[k]

    return term, fixed, rng.randint(0, 5)


def _outcome(engine, term, fixed, run):
    try:
        ev = engine(term, fixed, run)
    except EvaluationDomainError as exc:
        return type(exc), exc.index, str(exc), type(exc.__cause__)
    return repr(ev.value), ev.terms_used, ev.last_term_magnitude.hex(), ev.converged


@pytest.mark.parametrize(
    "engine, reference",
    [(_patched_sum_series, _reference_sum_series)],
    ids=["sum_series"],
)
def test_engine_bit_identical_to_accumulator_reference(engine, reference):
    rng = random.Random(20240607)
    kinds = set()
    for _ in range(600):
        term, fixed, run = _seeded_series(rng)
        got = _outcome(engine, term, fixed, run)
        assert got == _outcome(reference, term, fixed, run)
        kinds.add(got[0] if isinstance(got[0], type) else got[3])
    assert kinds == {EvaluationDomainError, True, False}  # raised, converged, out of budget


# Every public integer parameter: a call taking it as v, its name, and an
# integer outside its range.
INTEGER_PARAMS = {
    "laguerre2 n": (lambda v: laguerre2(v, 1.0, 1.0), "n", -1),
    "hermite_m n": (lambda v: hermite_m(v, 2, 1.0, 1.0), "n", -1),
    "hermite_m m": (lambda v: hermite_m(3, v, 1.0, 1.0), "m", 0),
    "h_tricomi m": (lambda v: h_tricomi(0.0, v, 1.0, 1.0), "m", 0),
    "h_wright m": (lambda v: h_wright(0.0, v, 1.0, 1.0, 1.0), "m", 0),
    "hybrid_k m": (lambda v: hybrid_k(0.0, v, 1.0, 1.0, 0.5), "m", 0),
    "stirling2 m": (lambda v: stirling2(v, 1), "m", EXACTNESS_BOUND + 1),
    "stirling2 k": (lambda v: stirling2(3, v), "k", -1),
    "rule_multiple_order m": (lambda v: rule_multiple_order(v, 1.0, 0.1), "m", 0),
    "weighted_sum_E m": (lambda v: weighted_sum_E(0, v, 1.0), "m", 11),
}


@pytest.mark.parametrize("bad", ["inf", "nan", "2.5", "out of range", "True"])
@pytest.mark.parametrize("param", list(INTEGER_PARAMS))
def test_bad_integer_is_a_value_error_naming_it(param, bad):
    call, name, out_of_range = INTEGER_PARAMS[param]
    if bad == "out of range":
        value = out_of_range
    else:
        value = True if bad == "True" else float(bad)  # int(True) == 1, but a bool is no count
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)
