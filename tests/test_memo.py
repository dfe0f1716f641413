"""Reuse of Bessel J evaluations within one plan run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums import functions, plan as plan_mod, rules
from besselsums.plan import PlanEntry, VerificationPlan, default_plan_path, load_plan, run_plan
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


@pytest.fixture
def table_sizes(monkeypatch):
    """(size before, size after) of the run's J table around each entry."""
    sizes = []
    real = plan_mod.run_cases

    def spy(*args, **kwargs):
        table = rules._J_MEMO.get()
        before = len(table)
        out = real(*args, **kwargs)
        sizes.append((before, len(table)))
        return out

    monkeypatch.setattr(plan_mod, "run_cases", spy)
    return sizes


def test_a_full_table_is_emptied_between_entries_only(j_calls, table_sizes):
    grid = {"nu": [0.25, 0.5, 0.75], "x": [1 + k / 16 for k in range(64)], "t": [0.2]}
    entries = (
        PlanEntry(rules.RuleId.ASCENDING_GEN, grid),
        PlanEntry(rules.RuleId.DESCENDING_GEN, grid),
    )
    records = run_plan(VerificationPlan(entries=entries)).records
    (start_a, end_a), (start_d, end_d) = table_sizes
    assert start_a == 0 and end_a > plan_mod.J_TABLE_MAX
    assert start_d == 0  # emptied before the second entry
    # no order here is a negative integer, so each evaluation adds one value:
    # none was evaluated twice, so none was dropped, within an entry
    assert len(j_calls) == end_a + end_d
    assert records == _entries_alone(entries)


def test_a_table_under_the_bound_is_kept_between_entries(table_sizes):
    run_plan(load_plan(default_plan_path()))
    # the default plan peaks at 494 values: no entry starts on an emptied table
    assert all(before == prev_after for (_, prev_after), (before, _) in zip(table_sizes, table_sizes[1:]))
    assert max(after for _, after in table_sizes) <= plan_mod.J_TABLE_MAX


def test_run_cases_alone_reuses_j_within_the_call(j_calls):
    cases = [{"nu": 0.5, "x": 2.0, "t": t} for t in (0.1, 0.2, -0.3)]
    tol = rules.DEFAULT_TOLERANCES
    records = rules.run_cases(rules.RuleId.ASCENDING_GEN, cases, rules.DEFAULT_POLICY, tol)
    assert len(j_calls) == len(set(j_calls))
    assert rules._J_MEMO.get() is None
    j_calls.clear()
    fresh = [rules.rule_ascending_gen(**case) for case in cases]
    assert len(j_calls) > len(set(j_calls))  # a direct rule call reuses nothing
    assert records == fresh


def test_run_cases_uses_an_installed_table_only_for_its_policy():
    cases = [{"nu": 0.5, "x": 2.0, "t": 0.1}]
    tol = rules.DEFAULT_TOLERANCES
    outer = rules._JMemo(rules.SummationPolicy())
    token = rules._J_MEMO.set(outer)
    try:
        rules.run_cases(rules.RuleId.ASCENDING_GEN, cases, rules.DEFAULT_POLICY, tol)
        assert rules._J_MEMO.get() is outer
        assert outer == {}  # another policy object: the call used a table of its own
        rules.run_cases(rules.RuleId.ASCENDING_GEN, cases, outer.policy, tol)
        assert rules._J_MEMO.get() is outer
        assert outer  # its own policy: the call filled the installed table
    finally:
        rules._J_MEMO.reset(token)


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
        assert outer == {}  # the run used a table of its own
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
