"""Reuse of Bessel J evaluations within one plan entry of a run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums import functions, rules
from besselsums.plan import default_plan_path, load_plan, run_plan
from besselsums.report import render_csv
from besselsums.series import DEFAULT_POLICY


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
    # 5,973 evaluations without reuse, 519 distinct (nu, x) over the whole plan
    assert len(j_calls) <= 1141


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


def test_memo_is_not_used_for_another_policy(j_calls):
    policy = rules.SummationPolicy(max_terms=200)
    token = rules._J_MEMO.set(rules._JMemo((0, 0), policy))
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
    token = rules._J_MEMO.set(rules._JMemo((0, 0), policy))
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
