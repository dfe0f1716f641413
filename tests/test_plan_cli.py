"""Plan loading/validation, the runner, report emission, and the CLI."""

import hashlib
import inspect
import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from besselsums import (
    DEFAULT_TOLERANCES,
    RULES,
    PlanError,
    RuleId,
    Tolerances,
    Verdict,
    VerificationPlan,
    appendix_derivative_check,
    default_plan_path,
    load_plan,
    rule_ascending_gen,
    rule_bessel_laguerre,
    rule_descending_gen,
    rule_fractional_order,
    rule_graf,
    rule_graf_phase,
    rule_laguerre_hermite,
    rule_multiple_order,
    rule_neumann_ext,
    run_plan,
    weighted_sum_E,
    weighted_sum_S,
)
from besselsums import series
from besselsums.cli import main
from besselsums.report import emit_report, render_csv, render_json, render_table, VerdictReport
from besselsums.rules import VerificationRecord


def write_plan(tmp_path, payload, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def fail_ascending_gen(monkeypatch):
    """Make every ASCENDING_GEN case raise when the plan runner evaluates it."""
    import besselsums.plan as plan_mod

    def boom(**kwargs):
        raise RuntimeError("synthetic failure")

    schema = plan_mod.RULES[RuleId.ASCENDING_GEN]
    monkeypatch.setitem(
        plan_mod.RULES,
        RuleId.ASCENDING_GEN,
        schema.__class__(**{**schema.__dict__, "run": boom, "validate": None}),
    )


MINIMAL = {
    "entries": [{"rule": "ASCENDING_GEN", "grid": {"nu": [0], "x": [2], "t": [0]}}]
}

TRIVIAL_THREE = {
    "entries": [
        {"rule": "ASCENDING_GEN", "grid": {"nu": [0, 1, 2.5], "x": [2], "t": [0]}}
    ]
}


# 200,000 levels: past the recursion limit of the json decoder
DEEP_NESTING = {
    "arrays": '{"entries": ' + "[" * 200_000 + "]" * 200_000 + "}",
    "objects": '{"entries": [' + '{"a": ' * 200_000 + "{}" + "}" * 200_000 + "]}",
}


class TestLoadPlan:
    def test_minimal(self, tmp_path):
        plan = load_plan(write_plan(tmp_path, MINIMAL))
        assert len(plan.entries) == 1
        assert plan.entries[0].case_count() == 1

    def test_domain_checked_at_load(self, tmp_path):
        bad = {"entries": [{"rule": "ASCENDING_GEN", "grid": {"nu": [0], "x": [1], "t": [2]}}]}
        with pytest.raises(PlanError, match=r"\|2t\| < x"):
            load_plan(write_plan(tmp_path, bad))

    def test_default_plan_covers_eleven_rules(self):
        plan = load_plan(default_plan_path())
        rules = {entry.rule_id for entry in plan.entries}
        assert len(rules) == 11

    def test_unknown_rule(self, tmp_path):
        with pytest.raises(PlanError, match="unknown rule"):
            load_plan(write_plan(tmp_path, {"entries": [{"rule": "NOPE", "grid": {}}]}))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"grid": {}}, "entry 0: missing 'rule'"),
            ({"rule": "ASCENDING_GEN"}, "entry 0 (ASCENDING_GEN): missing 'grid' object"),
            ({"rule": "ASCENDING_GEN", "grid": [1]}, "entry 0 (ASCENDING_GEN): missing 'grid' object"),
            ({"rule": "ASCENDING_GEN", "grid": {"nu": [], "x": [2], "t": [0]}},
             "entry 0 (ASCENDING_GEN): parameter 'nu' must be a nonempty list"),
            ({"rule": "ASCENDING_GEN", "grid": {"nu": 0, "x": [2], "t": [0]}},
             "entry 0 (ASCENDING_GEN): parameter 'nu' must be a nonempty list"),
        ],
        ids=["no rule", "no grid", "grid a list", "empty list", "bare number"],
    )
    def test_malformed_entry_message(self, tmp_path, capsys, entry, message):
        path = write_plan(tmp_path, {"entries": [entry]})
        assert main(["verify", "--plan", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_missing_parameter_named(self, tmp_path):
        bad = {"entries": [{"rule": "ASCENDING_GEN", "grid": {"nu": [0], "x": [2]}}]}
        with pytest.raises(PlanError, match="entry 0.*missing parameter.*'t'"):
            load_plan(write_plan(tmp_path, bad))

    def test_extra_parameter_named(self, tmp_path):
        bad = {
            "entries": [
                {"rule": "NEUMANN_EXT", "grid": {"x": [1], "y": [1], "t": [0.5], "q": [1]}}
            ]
        }
        with pytest.raises(PlanError, match="unexpected parameter.*'q'"):
            load_plan(write_plan(tmp_path, bad))

    def test_integer_param_enforced(self, tmp_path):
        bad = {
            "entries": [
                {"rule": "MULTIPLE_ORDER", "grid": {"m": [1.5], "x": [1], "t": [0.1]}}
            ]
        }
        with pytest.raises(PlanError, match="must be integer"):
            load_plan(write_plan(tmp_path, bad))

    def test_non_numeric_value(self, tmp_path):
        bad = {"entries": [{"rule": "ASCENDING_GEN", "grid": {"nu": ["a"], "x": [2], "t": [0]}}]}
        with pytest.raises(PlanError, match="non-numeric"):
            load_plan(write_plan(tmp_path, bad))

    def test_grid_size_cap(self, tmp_path):
        bad = {
            "entries": [
                {
                    "rule": "ASCENDING_GEN",
                    "grid": {"nu": [0], "x": [2], "t": [0.0] * 100_001},
                }
            ]
        }
        with pytest.raises(PlanError, match="limit"):
            load_plan(write_plan(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(PlanError, match=f"^plan file not found: {re.escape(str(path))}$"):
            load_plan(path)

    def test_directory_is_a_plan_error(self, tmp_path):
        with pytest.raises(PlanError, match=f"^cannot read plan file: {re.escape(str(tmp_path))}: "):
            load_plan(tmp_path)

    @pytest.mark.parametrize("nest", sorted(DEEP_NESTING))
    def test_nesting_past_the_recursion_limit(self, tmp_path, nest):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_NESTING[nest])
        with pytest.raises(PlanError, match=f"^{re.escape(str(path))}: not valid json: "):
            load_plan(path)

    def test_bad_policy(self, tmp_path):
        bad = dict(MINIMAL, policy={"max_terms": 1})
        with pytest.raises(PlanError, match="policy"):
            load_plan(write_plan(tmp_path, bad))

    def test_unknown_keys_are_named(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(ascending_plan(perturb=3))
        with pytest.raises(PlanError, match=r"entry 0 \(ASCENDING_GEN\): unknown key 'perturb'"):
            load_plan(path)
        path.write_text(json.dumps({"polcy": {}, "entries": [ASCENDING]}))
        with pytest.raises(PlanError, match="unknown key 'polcy'"):
            load_plan(path)


class TestRunPlan:
    def test_trivial_cases_all_verified(self, tmp_path):
        plan = load_plan(write_plan(tmp_path, TRIVIAL_THREE))
        report = run_plan(plan)
        assert len(report.records) == 3
        assert all(r.verdict is Verdict.VERIFIED for r in report.records)
        assert report.exit_code() == 0

    def test_perturbation_hook_gives_discrepant(self, tmp_path):
        payload = {
            "entries": [
                {
                    "rule": "ASCENDING_GEN",
                    "grid": {"nu": [0], "x": [2], "t": [0]},
                    "perturb_rhs": 1e-3,
                }
            ]
        }
        report = run_plan(load_plan(write_plan(tmp_path, payload)))
        assert report.records[0].verdict is Verdict.DISCREPANT
        assert report.exit_code() == 2

    def test_integral_float_budget_runs(self, tmp_path):
        # a plan may restate the fixed policy, and json 400.0 restates 400
        policy = {"abs_tol": 1e-14, "rel_tol": 1e-12, "max_terms": 400.0, "consecutive_small": 3.0}
        plan = load_plan(write_plan(tmp_path, dict(TRIVIAL_THREE, policy=policy)))
        report = run_plan(plan)
        assert [r.verdict for r in report.records] == [Verdict.VERIFIED] * 3

    def test_starved_budget_gives_inconclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(series, "MAX_TERMS", 8)
        payload = {
            "entries": [
                {"rule": "GRAF_REAL", "grid": {"nu": [0], "x": [5], "y": [1], "t": [2]}}
            ],
        }
        report = run_plan(load_plan(write_plan(tmp_path, payload)))
        assert report.records[0].verdict is Verdict.INCONCLUSIVE
        assert report.exit_code() == 3

    def test_weighted_s_emits_two_routes(self, tmp_path):
        payload = {
            "entries": [
                {"rule": "WEIGHTED_S", "grid": {"l": [1], "m": [1], "x": [3], "y": [1]}}
            ]
        }
        report = run_plan(load_plan(write_plan(tmp_path, payload)))
        routes = [r.params.get("route") for r in report.records]
        assert routes == ["derivative", "closed"]
        assert report.records[1].report_only

    def test_report_only_never_fails_run(self, tmp_path):
        payload = {
            "entries": [
                {
                    "rule": "WEIGHTED_S",
                    "grid": {"l": [1], "m": [1], "x": [3], "y": [1]},
                    "tol_abs": 1e-30,
                    "tol_rel": 1e-30,
                }
            ]
        }
        report = run_plan(load_plan(write_plan(tmp_path, payload)))
        hard = [r for r in report.records if not r.report_only]
        assert all(r.verdict is Verdict.DISCREPANT for r in hard)  # absurd tolerance
        # exit code reflects the hard records only
        assert report.exit_code() == 2

    def test_deterministic_records(self, tmp_path):
        plan = load_plan(write_plan(tmp_path, TRIVIAL_THREE))
        a = render_csv(run_plan(plan))
        b = render_csv(run_plan(plan))
        assert a == b

    def test_parallel_equivalence(self):
        plan = load_plan(default_plan_path())
        # trim to a fast subset: first six entries
        small = VerificationPlan(entries=plan.entries[:6], parallelism=1)
        seq = render_csv(run_plan(small))
        par = render_csv(
            run_plan(VerificationPlan(entries=small.entries, parallelism=8))
        )
        assert seq == par

    def test_contained_failure_is_inconclusive(self, tmp_path, monkeypatch):
        fail_ascending_gen(monkeypatch)
        report = run_plan(load_plan(write_plan(tmp_path, MINIMAL)))
        rec = report.records[0]
        assert rec.verdict is Verdict.INCONCLUSIVE
        assert "synthetic failure" in rec.note

    def test_perturbed_failure_is_one_inconclusive_record(self, tmp_path, monkeypatch):
        fail_ascending_gen(monkeypatch)
        plan = {"entries": [{**MINIMAL["entries"][0], "perturb_rhs": 0.5}]}
        out = tmp_path / "report.json"
        assert main(["verify", "--plan", str(write_plan(tmp_path, plan)),
                     "--format", "json", "--out", str(out)]) == 3

        def refuse(token):
            raise ValueError(f"not json: {token}")

        (rec,) = json.loads(out.read_text(), parse_constant=refuse)["records"]
        assert rec["verdict"] == "INCONCLUSIVE"
        assert rec["note"] == (
            "evaluation failed: RuntimeError: synthetic failure; rhs perturbed by 0.5"
        )
        assert [rec[k] for k in ("lhs", "rhs", "abs_err", "rel_err")] == [None] * 4

    def test_perturbation_shifts_the_right_certificate(self, tmp_path):
        entries = [
            {"rule": "ASCENDING_GEN", "grid": {"nu": [0.5], "x": [2], "t": [0.3]}},
            {"rule": "GRAF_PHASE", "grid": {"nu": [1], "x": [4], "y": [2], "theta": [1.3]}},
            {"rule": "WEIGHTED_S", "grid": {"l": [1], "m": [1], "x": [3], "y": [1]}},
        ]
        plain = run_plan(load_plan(write_plan(tmp_path, {"entries": entries}, "plain.json")))
        shifted = run_plan(load_plan(write_plan(
            tmp_path, {"entries": [{**e, "perturb_rhs": 1e-3} for e in entries]}
        )))
        assert len(shifted.records) == len(plain.records) == 4
        for old, new in zip(plain.records, shifted.records):
            assert new.rhs == old.rhs + 1e-3
            assert new.lhs_certificate == old.lhs_certificate
            assert new.report_only == old.report_only
            assert new.verdict is Verdict.DISCREPANT
            assert new.note.endswith("rhs perturbed by 0.001")
            if old.rhs_certificate is None:  # WEIGHTED_S: both routes are bare numbers
                assert new.rhs_certificate is None
                continue
            assert new.rhs_certificate.value == new.rhs
            assert new.rhs_certificate._replace(value=old.rhs) == old.rhs_certificate
        # the json certificates are unchanged by the shift
        old_rows = json.loads(render_json(plain))["records"]
        new_rows = json.loads(render_json(shifted))["records"]
        assert [r["rhs_certificate"] for r in new_rows] == [r["rhs_certificate"] for r in old_rows]


def test_table_prints_na_for_a_rule_with_no_finite_error():
    failed = VerificationRecord(
        rule_id=RuleId.NEUMANN_EXT,
        params={"x": 1.0, "y": 0.0, "t": 1.0},
        lhs=math.nan,
        rhs=math.nan,
        abs_err=math.nan,
        rel_err=math.nan,
        verdict=Verdict.INCONCLUSIVE,
        note="evaluation failed",
    )
    text = render_table(VerdictReport(records=[failed]))
    assert "NEUMANN_EXT: 0/1 verified  (max abs err n/a, max rel err n/a)" in text


def test_table_totals_count_report_only_records():
    """The totals line counts every record; the exit code reads the hard ones."""

    def record(verdict, report_only):
        return VerificationRecord(
            rule_id=RuleId.WEIGHTED_S, params={"l": 1.0}, lhs=1.0, rhs=1.0, abs_err=0.0,
            rel_err=0.0, verdict=verdict, report_only=report_only,
        )

    report = VerdictReport(records=[
        record(Verdict.VERIFIED, False),
        record(Verdict.VERIFIED, False),
        record(Verdict.DISCREPANT, True),
        record(Verdict.INCONCLUSIVE, True),
        record(Verdict.INCONCLUSIVE, True),
    ])
    lines = render_table(report).splitlines()
    assert "records: 5  verified: 2  discrepant: 1  inconclusive: 2" in lines
    assert "  WEIGHTED_S: 2/5 verified  (max abs err 0.000e+00, max rel err 0.000e+00)" in lines
    assert report.exit_code() == 0


class TestDefaultPlanEndToEnd:
    def test_shipped_plan_all_verified(self):
        report = run_plan(load_plan(default_plan_path()))
        assert report.exit_code() == 0
        d = sum(counts["discrepant"] for counts in report.summary.values())
        i = sum(counts["inconclusive"] for counts in report.summary.values())
        assert d == 0 and i == 0
        assert len(report.records) == 296
        # every rule of the shipped plan appears in the summary
        assert len(report.summary) == 11


class TestReportEmission:
    def test_unknown_format_is_refused(self):
        with pytest.raises(ValueError) as err:
            emit_report(VerdictReport(records=[]), fmt="xml")
        assert str(err.value) == "unknown format 'xml'; expected one of ('table', 'csv', 'json')"

    def test_empty_csv_is_header_only(self):
        text = render_csv(VerdictReport(records=[]))
        assert text == "rule_id,lhs,rhs,abs_err,rel_err,verdict\n"

    def test_csv_row_count_matches_default_plan(self, tmp_path):
        report = run_plan(load_plan(default_plan_path()))
        lines = render_csv(report).strip().splitlines()
        assert len(lines) == 1 + len(report.records)

    def test_failed_case_gives_strict_json(self, tmp_path, monkeypatch):
        fail_ascending_gen(monkeypatch)
        plan = {"entries": [*MINIMAL["entries"], {"rule": "GRAF_REAL",
                "grid": {"nu": [0], "x": [5], "y": [1], "t": [1.5]}}]}
        out = tmp_path / "report.json"
        assert main(["verify", "--plan", str(write_plan(tmp_path, plan)),
                     "--format", "json", "--out", str(out)]) == 3
        text = out.read_text()

        def refuse(token):
            raise ValueError(f"not json: {token}")

        data = json.loads(text, parse_constant=refuse)
        failed = data["records"][0]
        assert failed["verdict"] == "INCONCLUSIVE"
        assert [failed[k] for k in ("lhs", "rhs", "abs_err", "rel_err")] == [None] * 4

    def test_single_record_json_summary(self, tmp_path):
        plan = load_plan(write_plan(tmp_path, MINIMAL))
        data = json.loads(render_json(run_plan(plan)))
        assert data["schema_version"] == 1
        assert len(data["records"]) == 1
        assert data["summary"]["ASCENDING_GEN"]["verified"] == 1

    def test_json_stable_except_wall_time(self, tmp_path):
        plan = load_plan(write_plan(tmp_path, TRIVIAL_THREE))
        a = json.loads(render_json(run_plan(plan)))
        b = json.loads(render_json(run_plan(plan)))
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_table_contains_summary(self, tmp_path):
        plan = load_plan(write_plan(tmp_path, MINIMAL))
        text = render_table(run_plan(plan))
        assert "ASCENDING_GEN" in text
        assert "verified: 1" in text

    def test_complex_values_in_csv(self, tmp_path):
        payload = {
            "entries": [
                {
                    "rule": "GRAF_PHASE",
                    "grid": {"nu": [1], "x": [3], "y": [1], "theta": [1.0471975511965976]},
                }
            ]
        }
        text = render_csv(run_plan(load_plan(write_plan(tmp_path, payload))))
        assert "j" in text.splitlines()[1]


def readme_eval_examples():
    """(argv, expected stdout) for each `$ besselsums eval ...` line of the
    README: the expected output is the lines under it, up to a blank line."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ besselsums eval "):
            shown = itertools.takewhile(lambda out: out and out[0] not in "$`", lines[i + 1:])
            examples.append((line.split()[2:], "".join(out + "\n" for out in shown)))
    return examples


def test_readme_eval_examples_are_current(capsys):
    examples = readme_eval_examples()
    # one sum stopped on a proved tail bound and one on the negligible-term streak
    assert {"tail_bound=none" in out for _, out in examples} == {True, False}
    for argv, expected in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


# sha256 of the `besselsums list-rules` output
LIST_RULES_SHA256 = "4036d3bb73479cf83e875e9477f0a09053842ca43f21f318c44feebaff461841"

# The arguments `besselsums eval` takes: each function's signature.
EVAL_ARGUMENTS = {
    "bessel_j": ("nu", "x"),
    "tricomi_c": ("alpha", "x"),
    "laguerre2": ("n", "x", "y"),
    "hermite_m": ("n", "m", "x", "y"),
    "wright": ("nu", "mu", "x"),
    "h_tricomi": ("nu", "m", "u", "v"),
    "l_tricomi": ("nu", "u", "v"),
    "h_wright": ("nu", "m", "mu", "u", "v"),
    "hybrid_k": ("mu", "m", "x", "y", "xi"),
}


class TestCli:
    def test_eval_bessel(self, capsys):
        assert main(["eval", "bessel_j", "nu=0", "x=0"]) == 0
        out = capsys.readouterr().out
        assert "value = 1" in out
        assert "converged=True" in out

    def test_eval_laguerre(self, capsys):
        assert main(["eval", "laguerre2", "n=2", "x=1", "y=1"]) == 0
        out = capsys.readouterr().out
        assert "value = -0.5" in out
        assert "exact finite sum" in out

    def test_eval_integer_argument_checked_by_the_function(self, capsys):
        assert main(["eval", "laguerre2", "n=2.0", "x=1", "y=1"]) == 0
        assert "value = -0.5" in capsys.readouterr().out
        assert main(["eval", "hermite_m", "n=3", "m=2.5", "x=1", "y=1"]) == 1
        assert capsys.readouterr().err == "error: m must be integer, got 2.5\n"

    def test_eval_wright_at_zero(self, capsys):
        assert main(["eval", "wright", "nu=1", "mu=1", "x=0"]) == 0
        assert "value = 1" in capsys.readouterr().out

    def test_eval_unknown_function(self, capsys):
        assert main(["eval", "bessel_k", "nu=0", "x=1"]) == 1
        assert "unknown function" in capsys.readouterr().err

    def test_eval_repeated_argument(self, capsys):
        assert main(["eval", "bessel_j", "nu=1", "nu=2", "x=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bessel_j got 'nu' more than once\n"

    @pytest.mark.parametrize(
        "args, err",
        [
            (["nu"], "error: arguments must look like key=value, got 'nu'\n"),
            (["nu=abc", "x=1"], "error: cannot parse 'nu=abc' as a number\n"),
        ],
    )
    def test_eval_malformed_argument(self, args, err, capsys):
        assert main(["eval", "bessel_j", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_eval_missing_argument(self, capsys):
        assert main(["eval", "bessel_j", "nu=0"]) == 1
        assert "missing" in capsys.readouterr().err

    def test_eval_domain_error(self, capsys):
        assert main(["eval", "wright", "nu=1", "mu=-1", "x=0"]) == 1
        assert "mu > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["h_tricomi", "nu=0", "m=1", "u=3000", "v=0"],
            ["hybrid_k", "mu=0", "m=1", "x=3000", "y=0", "xi=1"],
            ["hybrid_k", "mu=0", "m=-1", "x=3000", "y=0", "xi=1"],
            ["hybrid_k", "mu=200", "m=-2", "x=0.5", "y=1", "xi=0.3"],  # g_200 is past 170
            ["h_wright", "nu=0", "m=1", "mu=1", "u=1e6", "v=0"],
            ["l_tricomi", "nu=0", "u=1e200", "v=1"],
            ["laguerre2", "n=3", "x=1e200", "y=1"],
            ["laguerre2", "n=200", "x=1", "y=1"],
            ["hermite_m", "n=3", "m=1", "x=1e200", "y=1"],
            ["hermite_m", "n=300", "m=1", "x=10", "y=1"],
            ["h_tricomi", "nu=-inf", "m=1", "u=1", "v=1"],
            ["l_tricomi", "nu=-inf", "u=1", "v=1"],
            ["l_tricomi", "nu=-1e12", "u=1", "v=1"],  # first term off the poles is k = 10^12
            ["h_wright", "nu=-inf", "m=1", "mu=1", "u=1", "v=0"],
            ["h_wright", "nu=0", "m=1", "mu=inf", "u=1", "v=0"],
            ["hybrid_k", "mu=nan", "m=1", "x=1", "y=1", "xi=1"],
            ["hybrid_k", "mu=0.5", "m=-2", "x=1", "y=1", "xi=0.001"],
            ["wright", "nu=-inf", "mu=1", "x=1"],
            ["hermite_m", "n=4", "m=2", "x=inf", "y=1"],
            ["laguerre2", "n=0", "x=nan", "y=1"],
            ["laguerre2", "n=2", "x=1", "y=-inf"],
        ],
        ids=lambda args: " ".join(args),
    )
    def test_eval_overflow_is_an_error(self, args, capsys):
        assert main(["eval", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_list_rules(self, capsys):
        assert main(["list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RuleId:
            assert rule.value in out
        assert "parameters" in out

    def test_list_rules_output_is_pinned(self, capsys):
        assert main(["list-rules"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 1 + 4 * len(RuleId)
        assert lines[0] == "default tolerances of every rule: abs 1e-09, rel 1e-08"
        assert "    domain:     x > 0, |2t| < x and x^2-2xt >= 2.22507e-308 (no underflow)" in lines
        assert lines[-2:] == ["    parameters: nu, x", "    domain:     x > 0"]
        assert hashlib.sha256(out.encode()).hexdigest() == LIST_RULES_SHA256

    @pytest.mark.parametrize("name, names", EVAL_ARGUMENTS.items(), ids=EVAL_ARGUMENTS.keys())
    def test_eval_unknown_key_names_the_signature(self, name, names, capsys):
        assert main(["eval", name, "q=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} takes {names}, not 'q'\n"

    def test_verify_exit_codes(self, tmp_path, capsys):
        ok = write_plan(tmp_path, TRIVIAL_THREE, "ok.json")
        assert main(["verify", "--plan", str(ok), "--format", "csv"]) == 0
        capsys.readouterr()

        bad = write_plan(
            tmp_path,
            {
                "entries": [
                    {
                        "rule": "ASCENDING_GEN",
                        "grid": {"nu": [0], "x": [2], "t": [0]},
                        "perturb_rhs": 0.5,
                    }
                ]
            },
            "bad.json",
        )
        assert main(["verify", "--plan", str(bad), "--format", "csv"]) == 2
        capsys.readouterr()

    def test_verify_missing_plan(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert main(["verify", "--plan", str(path)]) == 1
        assert capsys.readouterr().err == f"error: plan file not found: {path}\n"

    def test_verify_plan_is_a_directory(self, tmp_path, capsys):
        assert main(["verify", "--plan", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read plan file: {tmp_path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("nest", sorted(DEEP_NESTING))
    def test_verify_deep_plan(self, tmp_path, capsys, nest):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_NESTING[nest])
        assert main(["verify", "--plan", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not valid json: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_verify_invalid_plan(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "--plan", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_verify_writes_out_file(self, tmp_path, capsys):
        ok = write_plan(tmp_path, MINIMAL)
        out = tmp_path / "report.json"
        assert main(["verify", "--plan", str(ok), "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["records"][0]["verdict"] == "VERIFIED"

    def test_verify_out_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "none" / "report.json"
        assert main(["verify", "--plan", str(write_plan(tmp_path, MINIMAL)), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write report: [Errno 2] No such file or directory: {str(out)!r}\n"
        )

    def test_verify_tolerance_override(self, tmp_path, capsys):
        # an absurdly tight entry tolerance flips trivial-but-inexact cases
        payload = {
            "entries": [
                {"rule": "GRAF_REAL", "grid": {"nu": [1], "x": [5], "y": [1], "t": [2]},
                 "tol_abs": 1e-30, "tol_rel": 1e-30}
            ]
        }
        path = write_plan(tmp_path, payload)
        assert main(["verify", "--plan", str(path), "--format", "csv"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--bogus"],
            ["verify", "--format", "xml"],
            ["verify", "--parallel", "2"],
            # verdict tolerances come from the plan alone
            ["verify", "--tol-abs", "1e-3"],
            ["verify", "--tol-rel", "1e-4"],
            [],
        ],
        ids=lambda args: " ".join(args) or "no command",
    )
    def test_usage_error_exits_1(self, args, capsys):
        # argparse's own exit code 2 would read as "discrepancies"
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_help_exits_0(self, capsys):
        assert main(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--plan" in out
        assert "--tol-abs" not in out


ASCENDING = {"rule": "ASCENDING_GEN", "grid": {"nu": [0], "x": [2], "t": [0.1]}}


def ascending_plan(grid=(), **options):
    """A one-entry ASCENDING_GEN plan as json text, with grid lists replaced."""
    entry = {**ASCENDING, "grid": {**ASCENDING["grid"], **dict(grid)}, **options}
    return json.dumps({"entries": [entry]})


# A policy is checked like an entry: the message names the key.  It may only
# restate the fixed summation policy.
POLICY_MISTAKES = {
    "abs_tol null": ({"abs_tol": None}, "bad policy: abs_tol has non-numeric value None"),
    "misspelt key": (
        {"abs_tols": 1e-14},
        "policy: unknown key 'abs_tols' (expected one of abs_tol, rel_tol, max_terms,"
        " consecutive_small)",
    ),
    "not an object": ([1, 2], "policy must be an object, got [1, 2]"),
    "not the fixed value": ({"max_terms": 800}, "bad policy: max_terms is fixed at 400, got 800"),
    "loosened tolerance": ({"abs_tol": 1e-6}, "bad policy: abs_tol is fixed at 1e-14, got 1e-06"),
}


@pytest.mark.parametrize("policy, message", POLICY_MISTAKES.values(), ids=POLICY_MISTAKES.keys())
def test_policy_mistake_is_named(tmp_path, policy, message):
    path = write_plan(tmp_path, {"policy": policy, "entries": [ASCENDING]})
    with pytest.raises(PlanError) as err:
        load_plan(path)
    assert str(err.value) == f"{path}: {message}"


# An error echoes the offending json value abbreviated: echoed whole, a grid
# value of 100,000 zeros made one 300 kB line.
HUGE_VALUES = {
    "100,000 zeros": (ascending_plan({"x": [[0] * 100_000]}), "parameter 'x' has non-numeric"),
    "900-deep list": (
        ascending_plan({"x": ["DEEP"]}).replace('"DEEP"', "[" * 899 + "]" * 899),
        "parameter 'x' has non-numeric",
    ),
    "1 MB unknown key": (ascending_plan(**{"k" * 1_000_000: 1}), "unknown key 'kkkk"),
    "400-digit int": (ascending_plan({"x": [10**400]}), "parameter 'x' has non-finite"),
}


@pytest.mark.parametrize("text, says", HUGE_VALUES.values(), ids=HUGE_VALUES.keys())
def test_huge_plan_value_is_echoed_short(tmp_path, capsys, text, says):
    path = tmp_path / "plan.json"
    path.write_text(text)
    assert main(["verify", "--plan", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entry 0 (ASCENDING_GEN): ") and says in err
    assert err.count("\n") == 1 and len(err.encode()) < 300


def test_huge_grid_integer_is_echoed_short(tmp_path, capsys):
    # a 301-digit integer is inside float range, so it reaches the rule's own
    # range check: the grid point and the rule's message both abbreviate it
    plan = {"entries": [{"rule": "WEIGHTED_E", "grid": {"l": [10**300], "m": [2], "x": [1.5]}}]}
    assert main(["verify", "--plan", str(write_plan(tmp_path, plan))]) == 1
    err = capsys.readouterr().err
    big = "100000000000000000...0000000000000000000"
    assert err == (
        f"error: entry 0 (WEIGHTED_E): grid point {{'l': {big}, 'm': 2, 'x': 1.5}}:"
        f" l must be <= 30, got {big}\n"
    )
    assert len(err.encode()) < 300


# json.dumps writes float('nan') as NaN and float('inf') as Infinity, both of
# which json.load accepts.
MALFORMED_PLANS = {
    "entries not a list": '{"entries": 5}',
    "entry not an object": '{"entries": [5]}',
    "entry is a string": '{"entries": ["rule"]}',
    "tol_abs not a number": ascending_plan(tol_abs="x"),
    "perturb_rhs not a number": ascending_plan(perturb_rhs="x"),
    "parallelism not a number": json.dumps({"parallelism": "x", "entries": [ASCENDING]}),
    "parallelism negative": json.dumps({"parallelism": -1, "entries": [ASCENDING]}),
    "parallelism fractional": json.dumps({"parallelism": 2.5, "entries": [ASCENDING]}),
    "parallelism boolean": json.dumps({"parallelism": True, "entries": [ASCENDING]}),
    "NaN grid value": ascending_plan({"nu": [float("nan")]}),
    "Infinity grid value": ascending_plan({"x": [float("inf")]}),
    "negative tolerances": ascending_plan(tol_abs=-1, tol_rel=-1),
    "tol_abs null": ascending_plan(tol_abs=None),
    "tol_rel null": ascending_plan(tol_rel=None),
    "tol_abs given, tol_rel null": ascending_plan(tol_abs=1e-9, tol_rel=None),
    "boolean tolerance": ascending_plan(tol_abs=True, perturb_rhs=0.5),
    "boolean policy budget": json.dumps({"policy": {"consecutive_small": True}, "entries": [ASCENDING]}),
    **{f"policy {name}": json.dumps({"policy": policy, "entries": [ASCENDING]})
       for name, (policy, _) in POLICY_MISTAKES.items()},
    "unknown top-level key": json.dumps({"polcy": {"max_terms": 8}, "entries": [ASCENDING]}),
    "unknown entry key": ascending_plan(tol_absolute=1e-30),
    "int past float range": ascending_plan({"x": [10**400]}),
    "GRAF_REAL non-integer nu at x < 0": json.dumps(
        {"entries": [{"rule": "GRAF_REAL", "grid": {"nu": [0.5], "x": [-5], "y": [-10], "t": [1]}}]}
    ),
    "NEUMANN_EXT y=0": json.dumps(
        {"entries": [{"rule": "NEUMANN_EXT", "grid": {"x": [1], "y": [0], "t": [1]}}]}
    ),
    "ASCENDING_GEN x^2 - 2xt underflows to zero": ascending_plan(
        {"nu": [-0.3], "x": [1e-200], "t": [0.0]}
    ),
    "ASCENDING_GEN x^2 - 2xt subnormal": ascending_plan(
        {"nu": [-0.3], "x": [1e-160], "t": [1e-161]}
    ),
}


@pytest.mark.parametrize("text", MALFORMED_PLANS.values(), ids=MALFORMED_PLANS.keys())
def test_malformed_plan_is_a_located_error(tmp_path, capsys, text):
    path = tmp_path / "plan.json"
    path.write_text(text)
    assert main(["verify", "--plan", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# One out-of-domain point per rule with a domain check (BESSEL_LAGUERRE has
# none).  Floats where the loader makes floats, so messages print alike.
OUT_OF_DOMAIN = [
    (RuleId.ASCENDING_GEN, rule_ascending_gen, {"nu": 0.0, "x": 1.0, "t": 2.0}),
    # x^2 - 2xt, the square of J's argument, underflows to zero or to a subnormal
    (RuleId.ASCENDING_GEN, rule_ascending_gen, {"nu": -0.3, "x": 1e-200, "t": 0.0}),
    (RuleId.ASCENDING_GEN, rule_ascending_gen, {"nu": -0.3, "x": 1e-160, "t": 1e-161}),
    (RuleId.DESCENDING_GEN, rule_descending_gen, {"nu": -0.3, "x": 1e-160, "t": 1e-161}),
    (RuleId.DESCENDING_GEN, rule_descending_gen, {"nu": 0.0, "x": -1.0, "t": 0.0}),
    (RuleId.MULTIPLE_ORDER, rule_multiple_order, {"m": 0, "x": 1.0, "t": 0.1}),
    (RuleId.FRACTIONAL_ORDER, rule_fractional_order, {"m": 2, "x": -1.0, "t": 0.1}),
    (RuleId.LAGUERRE_HERMITE, rule_laguerre_hermite,
     {"x": 1.0, "y": 1.0, "z": 1.0, "w": 1.0, "t": 0.5}),
    (RuleId.GRAF_REAL, rule_graf, {"nu": 0.0, "x": 1.0, "y": 2.0, "t": 1.0}),
    # J_{nu+n}(x) at x <= 0 is real and finite for integer orders only
    (RuleId.GRAF_REAL, rule_graf, {"nu": 0.5, "x": -5.0, "y": -10.0, "t": 1.0}),
    (RuleId.GRAF_REAL, rule_graf, {"nu": 0.5, "x": -0.0, "y": -1.0, "t": 1.0}),
    (RuleId.GRAF_PHASE, rule_graf_phase, {"nu": 0.0, "x": 1.0, "y": 2.0, "theta": 0.0}),
    (RuleId.NEUMANN_EXT, rule_neumann_ext, {"x": 1.0, "y": 1.0, "t": 0.0}),
    # y^2 t is zero, or underflows to it: the right side divides by it
    (RuleId.NEUMANN_EXT, rule_neumann_ext, {"x": 1.0, "y": 0.0, "t": 1.0}),
    (RuleId.NEUMANN_EXT, rule_neumann_ext, {"x": 1.0, "y": 1e-200, "t": 1.0}),
    (RuleId.WEIGHTED_S, weighted_sum_S, {"l": 1, "m": 5, "x": 3.0, "y": 1.0}),
    (RuleId.WEIGHTED_S, weighted_sum_S, {"l": 31, "m": 1, "x": 3.0, "y": 1.0}),
    (RuleId.WEIGHTED_E, weighted_sum_E, {"l": 0, "m": 11, "x": 1.0}),
    (RuleId.WEIGHTED_E, weighted_sum_E, {"l": 31, "m": 1, "x": 1.0}),
    (RuleId.APPENDIX_DERIV, appendix_derivative_check, {"nu": 0.0, "x": 0.0}),
]


@pytest.mark.parametrize(
    "rule, fn, point", OUT_OF_DOMAIN, ids=[f"{r.value}-{p}" for r, _, p in OUT_OF_DOMAIN]
)
def test_loader_and_rule_share_the_domain_message(tmp_path, rule, fn, point):
    with pytest.raises(ValueError) as direct:
        fn(**point)
    plan = {"entries": [{"rule": rule.value, "grid": {k: [v] for k, v in point.items()}}]}
    with pytest.raises(PlanError) as loaded:
        load_plan(write_plan(tmp_path, plan))
    assert str(direct.value) in str(loaded.value)


def test_every_domain_check_is_covered():
    checked = {rule for rule, schema in RULES.items() if schema.validate is not None}
    assert checked == {rule for rule, _, _ in OUT_OF_DOMAIN}


RULE_FUNCTIONS = {
    RuleId.ASCENDING_GEN: rule_ascending_gen,
    RuleId.DESCENDING_GEN: rule_descending_gen,
    RuleId.MULTIPLE_ORDER: rule_multiple_order,
    RuleId.FRACTIONAL_ORDER: rule_fractional_order,
    RuleId.BESSEL_LAGUERRE: rule_bessel_laguerre,
    RuleId.LAGUERRE_HERMITE: rule_laguerre_hermite,
    RuleId.GRAF_REAL: rule_graf,
    RuleId.GRAF_PHASE: rule_graf_phase,
    RuleId.NEUMANN_EXT: rule_neumann_ext,
    RuleId.WEIGHTED_S: weighted_sum_S,
    RuleId.WEIGHTED_E: weighted_sum_E,
    RuleId.APPENDIX_DERIV: appendix_derivative_check,
}


def test_registry_runs_the_rule_functions():
    assert {rule: schema.run for rule, schema in RULES.items()} == RULE_FUNCTIONS


@pytest.mark.parametrize("rule", list(RuleId), ids=lambda rule: rule.value)
def test_registry_reads_the_rule_signature(rule):
    """A direct call and a plan entry judge at the one default tolerances and
    read the same parameters."""
    schema = RULES[rule]
    sig = inspect.signature(RULE_FUNCTIONS[rule]).parameters
    assert sig["tolerances"].default is DEFAULT_TOLERANCES
    assert schema.integer_params == tuple(p for p in sig if sig[p].annotation is int)
    assert (*schema.params, "tolerances") == tuple(sig)


class TestTolerances:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), "1e-9", None, True])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError, match="tol_rel must be a finite number >= 0"):
            Tolerances(tol_rel=bad)

    def test_zero_is_allowed(self):
        assert Tolerances(tol_abs=0.0, tol_rel=0).tol_rel == 0

    def test_loader_locates_bad_tolerance(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(ascending_plan(tol_abs=-1, tol_rel=-1))
        with pytest.raises(PlanError, match=r"entry 0 \(ASCENDING_GEN\): tol_abs"):
            load_plan(path)

    def test_override_keeps_rule_default(self, tmp_path):
        # the field not given keeps the one default, for this rule as for any
        payload = {
            "entries": [
                {"rule": "WEIGHTED_S", "grid": {"l": [1], "m": [1], "x": [3], "y": [1]},
                 "tol_abs": 1e-3}
            ]
        }
        entry = load_plan(write_plan(tmp_path, payload)).entries[0]
        assert entry.tolerances == Tolerances(tol_abs=1e-3, tol_rel=1e-8)

    def test_entry_without_tolerances_loads_the_default(self, tmp_path):
        # the runner judges at the value as loaded: there is no unset state
        entry = load_plan(write_plan(tmp_path, MINIMAL)).entries[0]
        assert entry.tolerances == DEFAULT_TOLERANCES


# Fuzzing: arbitrary json made from the words a plan uses, and plan-shaped
# documents whose rule, grid and option values are arbitrary.
_PARAM_NAMES = sorted({name for schema in RULES.values() for name in schema.params})
_KEYS = ["entries", "rule", "grid", "policy", "parallelism", "tol_abs", "tol_rel",
         "perturb_rhs", "abs_tol", "rel_tol", "max_terms", "consecutive_small"]
_RULE_NAMES = [rule.value for rule in RuleId]
_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-3, max_value=40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-5, max_value=5),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), _NUMBERS, st.text(max_size=4),
    st.sampled_from(_RULE_NAMES + _PARAM_NAMES + _KEYS),
)
_ANY_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(_KEYS + _PARAM_NAMES) | st.text(max_size=3), inner,
                        max_size=4),
    ),
    max_leaves=16,
)
_OPTIONS = {"tol_abs": _NUMBERS | _LEAVES, "tol_rel": _NUMBERS | _LEAVES, "perturb_rhs": _LEAVES}
_RULE_ENTRY = st.sampled_from(list(RULES.items())).flatmap(
    lambda item: st.fixed_dictionaries(
        {"rule": st.just(item[0].value),
         "grid": st.fixed_dictionaries(
             {name: st.lists(_NUMBERS, min_size=1, max_size=2) for name in item[1].params})},
        optional=_OPTIONS,
    )
)
_LOOSE_ENTRY = st.fixed_dictionaries(
    {"rule": st.sampled_from(_RULE_NAMES) | _LEAVES,
     "grid": st.dictionaries(st.sampled_from(_PARAM_NAMES),
                             st.lists(_NUMBERS, min_size=1, max_size=3) | _LEAVES, max_size=5)},
    optional=_OPTIONS,
)
_PLAN = st.fixed_dictionaries(
    {"entries": st.lists(_RULE_ENTRY | _RULE_ENTRY | _LOOSE_ENTRY, min_size=1, max_size=3)},
    optional={"parallelism": st.integers(0, 4) | _LEAVES},
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(_ANY_JSON, _PLAN, _PLAN))
def test_load_plan_fuzz(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        path.write_text(json.dumps(doc))
        try:
            plan = load_plan(path)
        except PlanError:
            return
    assert isinstance(plan, VerificationPlan)


@pytest.mark.parametrize("parallelism", [0, 2, 10_000])
def test_parallelism_runs_serially(tmp_path, monkeypatch, capsys, parallelism):
    """Any parallelism gives the records of a serial run, without a process pool."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    serial = render_csv(run_plan(load_plan(
        write_plan(tmp_path, {**TRIVIAL_THREE, "parallelism": 1}, "serial.json"))))
    path = write_plan(tmp_path, {**TRIVIAL_THREE, "parallelism": parallelism})
    assert render_csv(run_plan(load_plan(path))) == serial
    assert main(["verify", "--plan", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == serial


def _loaded_by_cli_import(module: str) -> bool:
    """Whether ``import besselsums.cli`` in a fresh interpreter loads ``module``."""
    import os
    import subprocess
    import sys

    code = f"import sys, besselsums.cli; print({module!r} in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.strip() == "True"


def test_cli_import_leaves_the_process_pool_unloaded():
    """The runner is serial, so the CLI never imports the process pool."""
    assert not _loaded_by_cli_import("concurrent.futures")


def test_cli_import_leaves_csv_unloaded():
    """Only the csv format imports csv, inside ``render_csv``."""
    assert not _loaded_by_cli_import("csv")


@pytest.mark.parametrize(
    "argv, unbuffered, codes",
    [
        # line by line, so the reader mostly leaves before the last line is written
        (["list-rules"], True, (0, 1)),
        # one buffered write of about 190 KB, more than a pipe holds, so it
        # always meets the closed pipe (an unbuffered write would just stop short)
        (["verify", "--format", "json"], False, (1,)),
    ],
    ids=["list-rules", "verify-json"],
)
def test_reader_leaving_early_is_not_an_error(argv, unbuffered, codes):
    """``besselsums ... | head -1`` prints no traceback and nothing on stderr."""
    import os
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "besselsums", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in codes
    assert first.strip()
    assert err == b""
