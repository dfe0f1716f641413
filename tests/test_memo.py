"""Reuse of Bessel J evaluations within one plan entry of a run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums import functions, rules
from besselsums.plan import default_plan_path, load_plan, run_plan
from besselsums.report import render_csv
from besselsums.series import DEFAULT_POLICY, EvaluationDomainError


@pytest.fixture
def j_calls(monkeypatch):
    """Counts the evaluations that reach ``rules.bessel_j``."""
    calls = []
    real = functions.bessel_j

    def spy(nu, x, policy=DEFAULT_POLICY):
        calls.append((nu, x))
        return real(nu, x, policy)

    monkeypatch.setattr(rules, "bessel_j", spy)
    return calls


def test_default_plan_evaluates_each_j_once_per_entry(j_calls):
    run_plan(load_plan(default_plan_path()))
    # 5,973 evaluations without reuse, 519 distinct (nu, x) over the whole
    # plan; 1,141 when J_-n is evaluated apart from J_n
    assert len(j_calls) <= 946


def test_nothing_carries_over_between_runs(j_calls):
    plan = load_plan(default_plan_path())
    first = render_csv(run_plan(plan))
    once = len(j_calls)
    second = render_csv(run_plan(plan))
    assert once > 0
    assert len(j_calls) == 2 * once
    assert first == second


def test_no_reuse_outside_run_plan(j_calls):
    run_plan(load_plan(default_plan_path()))
    j_calls.clear()
    first = rules.rule_ascending_gen(0.5, 2.0, 0.1)
    once = len(j_calls)
    second = rules.rule_ascending_gen(0.5, 2.0, 0.1)
    assert once > 0
    assert len(j_calls) == 2 * once
    assert first == second
    assert rules._J_MEMO.get() is None


def test_run_plan_leaves_an_outer_memo_installed():
    outer = rules._JMemo(rules.SummationPolicy())
    token = rules._J_MEMO.set(outer)
    try:
        run_plan(load_plan(default_plan_path()))
        assert rules._J_MEMO.get() is outer
        assert outer.table == {}  # each entry used a memo of its own
    finally:
        rules._J_MEMO.reset(token)


def test_memo_is_not_used_for_another_policy(j_calls):
    policy = rules.SummationPolicy(max_terms=200)
    token = rules._J_MEMO.set(rules._JMemo(policy))
    try:
        rules._bessel_j(0.5, 2.0, policy)
        rules._bessel_j(0.5, 2.0, policy)
        assert len(j_calls) == 1
        # equal by value, but not the object the memo was installed for
        rules._bessel_j(0.5, 2.0, rules.SummationPolicy(max_terms=200))
        assert len(j_calls) == 2
    finally:
        rules._J_MEMO.reset(token)


# int and float spellings of the same order, +-0.0, and few enough distinct
# points that a sample repeats some of them.
_NU = st.sampled_from([0, 0.0, -0.0, 1, 1.0, -1, -3.0, 2, 0.5, 2.5, -1.5])
_X = st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.0, 3.5, -2.0, 7.0])


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(_NU, _X), min_size=1, max_size=12))
def test_memo_returns_what_a_fresh_evaluation_returns(points):
    policy = rules.SummationPolicy()
    token = rules._J_MEMO.set(rules._JMemo(policy))
    try:
        for nu, x in points:
            try:
                fresh = functions.bessel_j(nu, x, policy)
            except ValueError:
                with pytest.raises(ValueError):
                    rules._bessel_j(nu, x, policy)
                continue
            memo = rules._bessel_j(nu, x, policy)
            assert memo == fresh
            assert memo.value.hex() == fresh.value.hex()
            assert memo.last_term_magnitude.hex() == fresh.last_term_magnitude.hex()
    finally:
        rules._J_MEMO.reset(token)


@pytest.fixture
def memo():
    policy = rules.SummationPolicy()
    token = rules._J_MEMO.set(rules._JMemo(policy))
    yield policy
    rules._J_MEMO.reset(token)


def _certificate(ev):
    return ev.value.hex(), ev.terms_used, ev.last_term_magnitude.hex(), ev.converged


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11, 1.0, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("x", [0.0, -0.0, 0.3, 2.0, -3.5, 7.0])
def test_negative_integer_order_is_served_from_its_mirror(n, x, memo, j_calls):
    fresh = functions.bessel_j(-n, x, memo)
    served = rules._bessel_j(-n, x, memo)
    assert _certificate(served) == _certificate(fresh)
    # the one evaluation was J_n, and J_n is now a hit
    assert j_calls == [(n, x)]
    assert rules._bessel_j(n, x, memo) == functions.bessel_j(n, x, memo)
    assert len(j_calls) == 1


def test_mirror_error_names_the_order_asked_for(memo):
    # (x/2)^200 overflows: J_-200 and J_200 both fail at their first term
    with pytest.raises(EvaluationDomainError) as fresh:
        functions.bessel_j(-200, 1e4, memo)
    with pytest.raises(EvaluationDomainError) as served:
        rules._bessel_j(-200, 1e4, memo)
    assert (str(served.value), served.value.index) == (str(fresh.value), fresh.value.index)
