"""Reuse of Bessel J evaluations through the cache of ``rules._bessel_j``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums import functions, rules
from besselsums.plan import PlanEntry, VerificationPlan, default_plan_path, load_plan, run_plan
from besselsums.report import render_csv
from besselsums.series import EvaluationDomainError


@pytest.fixture
def j_calls(monkeypatch):
    """Counts the evaluations that reach ``rules.bessel_j``, from a cold cache."""
    rules._bessel_j.cache_clear()
    calls = []
    real = functions.bessel_j

    def spy(nu, x):
        calls.append((nu, x))
        return real(nu, x)

    monkeypatch.setattr(rules, "bessel_j", spy)
    return calls


def test_default_plan_evaluates_each_j_once_per_run(j_calls):
    run_plan(load_plan(default_plan_path()))
    # 5,114 evaluations without reuse, 494 distinct (nu, x) over the whole
    # plan, 402 once J_-n is served from J_n; 859 with one table per entry
    assert len(j_calls) == 402
    assert len(set(j_calls)) == 402


def _entries_alone(entries):
    """The records of each entry run as a plan of its own, concatenated."""
    return [rec for e in entries for rec in run_plan(VerificationPlan(entries=(e,))).records]


def test_entries_on_one_grid_share_their_j_values(j_calls):
    grid = {"nu": [0, 0.5, 1, 2.5], "x": [2], "t": [0, 0.2, -0.2, 0.45, -0.45]}
    entries = (
        PlanEntry(rules.RuleId.ASCENDING_GEN, grid),
        PlanEntry(rules.RuleId.DESCENDING_GEN, grid),
    )
    shared = run_plan(VerificationPlan(entries=entries)).records
    once = len(j_calls)
    assert once == len(set(j_calls))  # each J evaluated once per run
    j_calls.clear()
    alone = _entries_alone(entries)
    assert once < len(j_calls)  # the second entry reused the first one's J values
    assert shared == alone


def test_the_cache_holds_at_most_1024_values(j_calls):
    grid = {"nu": [0.25, 0.5, 0.75], "x": [1 + k / 16 for k in range(64)], "t": [0.2]}
    entries = (
        PlanEntry(rules.RuleId.ASCENDING_GEN, grid),
        PlanEntry(rules.RuleId.DESCENDING_GEN, grid),
    )
    records = run_plan(VerificationPlan(entries=entries)).records
    assert len(set(j_calls)) > 1024  # more distinct values than the cache holds
    assert rules._bessel_j.cache_info().currsize <= 1024
    assert records == _entries_alone(entries)


def test_run_cases_alone_reuses_j_within_the_call(j_calls):
    cases = [{"nu": 0.5, "x": 2.0, "t": t} for t in (0.1, 0.2, -0.3)]
    tol = rules.DEFAULT_TOLERANCES
    records = rules.run_cases(rules.RuleId.ASCENDING_GEN, cases, tol)
    assert len(j_calls) == len(set(j_calls))
    rules._bessel_j.cache_clear()
    fresh = [rules.rule_ascending_gen(**case) for case in cases]
    assert records == fresh


def test_nothing_carries_over_between_runs(j_calls):
    plan = load_plan(default_plan_path())
    first = render_csv(run_plan(plan))
    once = len(j_calls)
    second = render_csv(run_plan(plan))
    assert once > 0
    assert len(j_calls) == 2 * once
    assert first == second


def test_a_direct_rule_call_gives_the_same_record_cold_or_warm(j_calls):
    cold = rules.rule_ascending_gen(0.5, 2.0, 0.1)
    once = len(j_calls)
    warm = rules.rule_ascending_gen(0.5, 2.0, 0.1)
    assert once > 0
    assert len(j_calls) == once  # the second call evaluated no J
    assert warm == cold


# int and float spellings of the same order, +-0.0, and few enough distinct
# points that a sample repeats some of them.
_NU = st.sampled_from([0, 0.0, -0.0, 1, 1.0, -1, -3.0, 2, 0.5, 2.5, -1.5])
_X = st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.0, 3.5, -2.0, 7.0])


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(_NU, _X), min_size=1, max_size=12))
def test_memo_returns_what_a_fresh_evaluation_returns(points):
    rules._bessel_j.cache_clear()
    for nu, x in points:
        try:
            fresh = functions.bessel_j(nu, x)
        except ValueError:
            with pytest.raises(ValueError):
                rules._bessel_j(nu, x)
            continue
        cached = rules._bessel_j(nu, x)
        assert cached == fresh
        assert cached.value.hex() == fresh.value.hex()
        assert cached.last_term_magnitude.hex() == fresh.last_term_magnitude.hex()


def _certificate(ev):
    return ev.value.hex(), ev.terms_used, ev.last_term_magnitude.hex(), ev.converged


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 1.0, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("x", [0.0, -0.0, 0.3, 2.0, -3.5, 7.0])
def test_negative_integer_order_is_served_from_its_mirror(n, x, j_calls):
    fresh = functions.bessel_j(-n, x)
    served = rules._bessel_j(-n, x)
    assert _certificate(served) == _certificate(fresh)
    # the one evaluation was J_n, and J_n is now a hit
    assert j_calls == [(n, x)]
    assert rules._bessel_j(n, x) == functions.bessel_j(n, x)
    assert len(j_calls) == 1


def test_mirror_error_names_the_order_asked_for():
    # (x/2)^200 overflows: J_-200 and J_200 both fail at their first term
    with pytest.raises(EvaluationDomainError) as fresh:
        functions.bessel_j(-200, 1e4)
    with pytest.raises(EvaluationDomainError) as served:
        rules._bessel_j(-200, 1e4)
    assert (str(served.value), served.value.index) == (str(fresh.value), fresh.value.index)
