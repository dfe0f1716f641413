"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite targets well under a minute on one core.
"""

import json
import math

import pytest

from besselsums import (
    DEFAULT_TOLERANCES,
    Tolerances,
    Verdict,
    appendix_derivative_check,
    rule_ascending_gen,
    rule_bessel_laguerre,
    rule_descending_gen,
    rule_fractional_order,
    rule_graf,
    rule_graf_phase,
    rule_laguerre_hermite,
    rule_multiple_order,
    rule_neumann_ext,
    stirling2,
    weighted_sum_E,
    weighted_sum_S,
)
from besselsums import series
from besselsums.plan import PlanEntry, VerificationPlan, run_plan
from besselsums.report import render_json
from besselsums.rules import RuleId

NU_GRID = (0.0, 0.5, 1.0, 2.5)
X_GRID = (1.0, 2.0, 5.0)


def t_values(x):
    return (0.0, 0.1 * x, -0.1 * x, 0.225 * x, -0.225 * x)


def report_line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_generating_function_rules():
    worst = 0.0
    for rule in (rule_ascending_gen, rule_descending_gen):
        for nu in NU_GRID:
            for x in X_GRID:
                for t in t_values(x):
                    rec = rule(nu, x, t, tolerances=Tolerances(1e-12, 1e-8))
                    assert rec.verdict is Verdict.VERIFIED, (rule.__name__, nu, x, t, rec.rel_err)
                    worst = max(worst, rec.rel_err)
    report_line(1, "ascending/descending generating functions, rel_err <= 1e-8",
                worst <= 1e-8, f"max rel_err {worst:.3e}")


def test_criterion_02_multiple_order_rule():
    worst = 0.0
    for m in (1, 2, 3):
        for x in (0.5, 1.5, 3.0):
            for t in (-0.5, 0.4, 0.9):
                rec = rule_multiple_order(m, x, t, tolerances=Tolerances(1e-12, 1e-8))
                assert rec.verdict is Verdict.VERIFIED, (m, x, t, rec.rel_err)
                worst = max(worst, rec.rel_err)
    # m = 1 column must be bit-compatible with the nu = 0 ascending left side
    worst_bit = 0.0
    for x in X_GRID:
        for t in t_values(x):
            asc = rule_ascending_gen(0.0, x, t).lhs
            mul = rule_multiple_order(1, x, t).lhs
            worst_bit = max(worst_bit, abs(asc - mul))
    ok = worst <= 1e-8 and worst_bit <= 1e-12
    report_line(2, "multiple-order rule, rel_err <= 1e-8; m=1 column within 1e-12 of nu=0",
                ok, f"max rel_err {worst:.3e}, m=1 offset {worst_bit:.3e}")


def test_criterion_03_fractional_order_rule():
    worst = 0.0
    for m in (2, 3):
        for x in (0.5, 1.0, 2.0):
            for t in (-0.4, 0.3):
                rec = rule_fractional_order(m, x, t, tolerances=Tolerances(1e-12, 1e-7))
                assert rec.verdict is Verdict.VERIFIED, (m, x, t, rec.rel_err)
                worst = max(worst, rec.rel_err)
    report_line(3, "fractional-order rule, rel_err <= 1e-7", worst <= 1e-7,
                f"max rel_err {worst:.3e}")


def test_criterion_04_product_rules():
    tol = Tolerances(1e-7, 1e-7)
    worst = 0.0
    discrepant = []
    for z in (1.0, 2.0):
        for x in (0.4, 0.8):
            for y in (0.7, 1.0):
                for t in (0.2, -0.25):
                    rec = rule_bessel_laguerre(z, x, y, t, tolerances=tol)
                    if rec.verdict is not Verdict.VERIFIED:
                        discrepant.append(("BL", z, x, y, t, rec.abs_err, rec.note))
                    worst = max(worst, min(rec.abs_err, rec.rel_err))
    for x in (0.4, 0.8):
        for y in (0.7, 1.0):
            for w in (-0.3, 0.5):
                for t in (0.2, -0.25):
                    rec = rule_laguerre_hermite(x, y, 1.0, w, t, tolerances=tol)
                    if rec.verdict is not Verdict.VERIFIED:
                        discrepant.append(("LH", x, y, w, t, rec.abs_err, rec.note))
                    worst = max(worst, min(rec.abs_err, rec.rel_err))
    # a discrepancy must fail loudly here (the sign-variant fallback inside the
    # bessel-laguerre rule already had its chance to rescue the verdict)
    report_line(4, "Bessel*Laguerre and Laguerre*Hermite rules at 1e-7",
                not discrepant, f"worst err {worst:.3e}; discrepant: {discrepant or 'none'}")


def test_criterion_05_addition_theorems():
    tol_real = Tolerances(1e-9, 1e-9)
    worst_real = 0.0
    in_regime = out_of_regime = 0
    for nu in (0.0, 1.0, 2.5):
        for (x, y) in ((5.0, 1.0), (4.0, 2.0)):
            for t in (1.5, 2.0):
                if x > y / t and x > y * t and x * x + y * y - x * y * (t + 1 / t) > 0:
                    rec = rule_graf(nu, x, y, t, tolerances=tol_real)
                    assert rec.verdict is Verdict.VERIFIED, (nu, x, y, t, rec.abs_err)
                    worst_real = max(worst_real, min(rec.abs_err, rec.rel_err))
                    in_regime += 1
                else:
                    with pytest.raises(ValueError):
                        rule_graf(nu, x, y, t)
                    out_of_regime += 1

    tol_phase = Tolerances(1e-8, 1e-8)
    worst_phase = 0.0
    for nu in (0.0, 1.0, 2.5):
        for (x, y) in ((5.0, 1.0), (4.0, 2.0)):
            for theta in (0.0, math.pi / 5, math.pi / 2, math.pi):
                rec = rule_graf_phase(nu, x, y, theta, tolerances=tol_phase)
                assert rec.verdict is Verdict.VERIFIED, (nu, x, y, theta)
                comp_err = max(
                    abs(rec.lhs.real - complex(rec.rhs).real),
                    abs(rec.lhs.imag - complex(rec.rhs).imag),
                )
                worst_phase = max(worst_phase, comp_err)

    # the t = 1 real form and the theta = 0 phase form must coincide
    worst_match = 0.0
    for nu in (0.0, 1.0, 2.5):
        for (x, y) in ((5.0, 1.0), (4.0, 2.0)):
            real = rule_graf(nu, x, y, 1.0)
            phase = rule_graf_phase(nu, x, y, 0.0)
            worst_match = max(worst_match, abs(real.lhs - phase.lhs), abs(real.rhs - phase.rhs))

    ok = worst_real <= 1e-9 and worst_phase <= 1e-8 and worst_match <= 1e-12
    report_line(
        5,
        "addition theorems: real 1e-9, phase 1e-8 (both components), t=1 vs theta=0 within 1e-12",
        ok,
        f"real {worst_real:.3e}, phase {worst_phase:.3e}, match {worst_match:.3e}, "
        f"{in_regime} in-regime / {out_of_regime} rejected",
    )


def test_criterion_06_extended_neumann():
    worst = 0.0
    for x in (0.5, 1.0):
        for y in (1.0, 1.5):
            for t in (0.5, 0.8, -0.6):
                rec = rule_neumann_ext(x, y, t, tolerances=Tolerances(1e-7, 1e-7))
                assert rec.verdict is Verdict.VERIFIED, (x, y, t, rec.abs_err)
                worst = max(worst, min(rec.abs_err, rec.rel_err))
    report_line(6, "extended Neumann sum at 1e-7", worst <= 1e-7, f"worst err {worst:.3e}")


def test_criterion_07_weighted_sums_S():
    worst_deriv = 0.0
    closed_errs = []
    for (x, y) in ((3.0, 1.0), (5.0, 2.0)):
        for l in (0, 1, 2):
            for m in (0, 1, 2):
                deriv, closed = weighted_sum_S(l, m, x, y)
                assert deriv.lhs_certificate.converged
                assert deriv.verdict is Verdict.VERIFIED, (l, m, x, y, deriv.abs_err)
                worst_deriv = max(worst_deriv, deriv.abs_err)
                closed_errs.append(closed.abs_err)

    # the closed form is report-only: archive its discrepancies via the json report
    entries = tuple(
        PlanEntry(rule_id=RuleId.WEIGHTED_S, grid={"l": [0, 1, 2], "m": [0, 1, 2], "x": [x], "y": [y]})
        for (x, y) in ((3.0, 1.0), (5.0, 2.0))
    )
    report = run_plan(VerificationPlan(entries=entries))
    data = json.loads(render_json(report))
    closed_rows = [r for r in data["records"] if r["params"].get("route") == "closed"]
    archived = all(math.isfinite(r["abs_err"]) and r["report_only"] for r in closed_rows)
    ok = worst_deriv <= DEFAULT_TOLERANCES.tol_abs and len(closed_rows) == 18 and archived
    report_line(
        7,
        "weighted S sums: brute vs derivative at the default tolerances;"
        " closed form archived report-only",
        ok,
        f"max deriv err {worst_deriv:.3e}, max closed err {max(closed_errs):.3e}, "
        f"{len(closed_rows)} closed rows archived",
    )


def test_criterion_08_weighted_sums_E():
    worst = 0.0
    for l in (0, 1):
        for m in (1, 2, 3):
            for x in (0.5, 1.5, 2.0, 4.0):
                rec = weighted_sum_E(l, m, x, tolerances=Tolerances(1e-9, 1e-9))
                assert rec.verdict is Verdict.VERIFIED, (l, m, x, rec.abs_err)
                worst = max(worst, min(rec.abs_err, rec.rel_err))
    forced = weighted_sum_E(1, 1, 2.0)
    forced_ok = abs(forced.rhs - 0.5) <= 1e-12
    ok = worst <= 1e-9 and forced_ok
    report_line(8, "weighted E sums at 1e-9; forced point rhs = 1/2 to 1e-12", ok,
                f"worst err {worst:.3e}, forced rhs {forced.rhs!r}")


def test_criterion_09_combinatorial_exactness():
    ok = True
    for m in range(1, 11):
        for k in range(1, m + 1):
            ok = ok and stirling2(m, k) == k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)
    for a in range(0, 11):
        for m in range(1, 11):
            total = sum(stirling2(m, k) * math.perm(a, k) for k in range(1, m + 1))
            ok = ok and total == a**m
    report_line(9, "Stirling recurrence and operator identity exact for m,a <= 10", ok)


def test_criterion_10_appendix_derivative():
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.0):
        for x in (1.0, 2.0):
            rec = appendix_derivative_check(nu, x)
            assert rec.verdict is Verdict.VERIFIED, (nu, x, rec.abs_err)
            worst = max(worst, min(rec.abs_err, rec.rel_err))
    report_line(10, "derivative ladder check at the default tolerances",
                worst <= DEFAULT_TOLERANCES.tol_abs, f"worst err {worst:.3e}")


def test_criterion_12_engine_honesty(monkeypatch):
    budget = series.MAX_TERMS
    worst = 0.0
    checked = 0
    cases = [
        (rule_ascending_gen, (0.5, 3.0, 0.675)),
        (rule_ascending_gen, (2.5, 5.0, -1.125)),
        (rule_descending_gen, (1.0, 2.0, 0.45)),
        (rule_graf, (1.0, 5.0, 1.0, 2.0)),
        (rule_neumann_ext, (1.0, 1.5, 0.8)),
        (rule_multiple_order, (2, 1.5, 0.9)),
    ]
    for fn, args in cases:
        a = fn(*args)
        with monkeypatch.context() as patch:
            patch.setattr(series, "MAX_TERMS", 2 * budget)
            b = fn(*args)
        assert a.verdict is Verdict.VERIFIED
        bound = 10.0 * (series.ABS_TOL + series.REL_TOL * abs(a.lhs))
        drift = abs(a.lhs - b.lhs)
        worst = max(worst, drift / bound)
        checked += 1
    report_line(12, "doubling max_terms moves no verified left side past 10x its bound",
                worst <= 1.0, f"worst drift/bound {worst:.3f} over {checked} cases")
