"""The default plan's json report, pinned apart from ``wall_time``, and the
report of a seeded plan of distinct points over the rules whose right sides
are hybrid composites.

A change that leaves every number the same must leave these digests the same.
They were recorded on x86-64 with Python 3.11 and the pure-python kernels;
another libm may round ``pow``/``lgamma`` differently and move them.

The json writer fills in one template per record; here it is checked byte for
byte against the dict tree it replaced, dumped by ``json.dumps(indent=2)``.
"""

import dataclasses
import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsums.plan import default_plan_path, load_plan, run_plan
from besselsums.report import VerdictReport, render_json, report_to_json_dict
from besselsums.rules import RuleId, Verdict, VerificationRecord, rule_ascending_gen, weighted_sum_S
from besselsums.series import SeriesEval

# Re-recorded when hybrid_k at m < 0 with integer mu became one series of two
# Hermite tables (only NEUMANN_EXT right sides moved: 12 of the default plan's
# and 20 of the composite plan's certificates, 7 and 10 of their values, by at
# most 8.9e-16 relative; no verdict changed), from
# b2bdeef3f145fdddab03bf308f378737943c3359cad7981ae12fb0a21977ef6f and
# 5ba60d4cb1b8fb3dad0923dfc6c06354997194093ec4f039f41012592bd9366b.
# Re-recorded before that when every sum over n in Z became term(0) plus the pairs
# term(k) + term(-k) through sum_series (the left sides of GRAF_REAL,
# GRAF_PHASE, NEUMANN_EXT and WEIGHTED_S moved by up to 4.5e-13 relative,
# their certificates now count pairs; no verdict changed), from
# 6ddf7643993970190185fb0141fd3376fc74d7e0b7312cd28bd1a308768fdfd3 and
# 0f0bfffc7d43ed6183a5b1f883b3c69e3347926907468c7cccf8dff024598a89.
# Re-recorded before that when the WEIGHTED_S derivative route became exact (its ten
# route "derivative" records at m = 1, 2 moved by up to 4.3e-8 relative, the
# finite-difference error; no verdict changed) and the default plan dropped
# that rule's 1e-6 tolerances, from
# a84ee3d576cd715843d914d1d2382d7642096ded456a3709f4120e37621863f1.
# Re-recorded before that when the J and Tricomi kernels and the J-weighted rule sides
# began to stop on proved tail bounds and 1/Gamma became 1/math.gamma (values
# of every rule but LAGUERRE_HERMITE moved, and the certificates' term counts
# fell; no verdict changed); before that they were
# 427f305c7f9e1f18994c6998154aad2cbbfb53232e2082f8a34bcf689f5981ba and
# aaf8175913a68be24d5a066b45c08f5439f8328b575f7fd6772c3eb7dba342cc.
# Re-recorded before that when the Hermite and Laguerre weights moved to their
# recurrences (ulps in the values of five rules, no verdict changed), from
# 74cbcd1fa10029e411ac59740473e9a942a52374e7e255e3176f65b030712e84 and
# fd574987f85822fba18fc3e94160dfeae04c1532f98707c6c3ba6be25028b0df.
DEFAULT_REPORT_SHA256 = "34622753d166dd1ade641846d4a89d7d669a4301c5573d19b6ffcb77120cf218"
COMPOSITE_REPORT_SHA256 = "ff7937f239cdc3cdeaf47ef5c81bdcf9be3ae4249850d704c67d256fb912f237"

# The default plan has 83 composite cases on a coarse grid.  This plan draws
# 20 distinct points per composite rule from the default plan's ranges: a
# list is a choice, a tuple a uniform range, a list of tuples a choice of ranges.
_COMPOSITE_RULES = (
    ("MULTIPLE_ORDER", {"m": [1, 2, 3], "x": (0.5, 3.0), "t": (-0.5, 0.9)}, 1e-12, 1e-8),
    ("FRACTIONAL_ORDER", {"m": [2, 3], "x": (0.5, 2.0), "t": (-0.4, 0.3)}, 1e-7, 1e-7),
    (
        "BESSEL_LAGUERRE",
        {"z": (1.0, 2.0), "x": (0.4, 0.8), "y": (0.7, 1.0), "t": (-0.25, 0.2)},
        1e-7, 1e-7,
    ),
    (
        "LAGUERRE_HERMITE",
        {"x": (0.4, 0.8), "y": (0.7, 1.0), "z": [1], "w": (-0.3, 0.5), "t": (-0.25, 0.2)},
        1e-7, 1e-7,
    ),
    (
        "NEUMANN_EXT",
        {"x": (0.5, 1.0), "y": (1.0, 1.5), "t": [(-0.6, -0.5), (0.5, 0.8)]},
        1e-7, 1e-7,
    ),
)


def _digest(report: str) -> str:
    lines = report.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith('  "wall_time":')]
    assert len(lines) - len(kept) == 1
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def _assert_certificates_describe_values(report):
    """Wherever a side has a certificate, it certifies the value beside it."""
    for rec in report.records:
        for value, cert in ((rec.lhs, rec.lhs_certificate), (rec.rhs, rec.rhs_certificate)):
            assert cert is None or value == cert.value, (rec.rule_id, rec.params, value, cert)


def _draw(rng: random.Random, spec):
    if isinstance(spec, list):
        spec = rng.choice(spec)
    return rng.uniform(*spec) if isinstance(spec, tuple) else spec


@pytest.mark.parametrize("parallelism", [1, 2])
def test_default_report_digest(parallelism):
    plan = dataclasses.replace(load_plan(default_plan_path()), parallelism=parallelism)
    report = run_plan(plan)
    _assert_certificates_describe_values(report)
    assert _digest(render_json(report)) == DEFAULT_REPORT_SHA256


def _composite_plan(tmp_path):
    rng = random.Random(7)
    entries = [
        {
            "rule": rule,
            "grid": {name: [_draw(rng, spec)] for name, spec in specs.items()},
            "tol_abs": tol_abs,
            "tol_rel": tol_rel,
        }
        for _ in range(20)
        for rule, specs, tol_abs, tol_rel in _COMPOSITE_RULES
    ]
    path = tmp_path / "composite_plan.json"
    path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    return load_plan(path)


def test_composite_sweep_report_digest(tmp_path):
    report = run_plan(_composite_plan(tmp_path))
    assert len(report.records) == 100
    assert {r.verdict.value for r in report.records} == {"VERIFIED"}
    _assert_certificates_describe_values(report)
    assert _digest(render_json(report)) == COMPOSITE_REPORT_SHA256


def _old_float(v):
    return v if math.isfinite(v) else None


def _old_scalar(v):
    if isinstance(v, complex):
        return {"re": _old_float(v.real), "im": _old_float(v.imag)}
    return _old_float(v)


def _old_cert(cert):
    if cert is None:
        return None
    return {"terms_used": cert.terms_used, "last_term_magnitude": _old_float(cert.last_term_magnitude),
            "converged": cert.converged}


def _old_json(report):
    """The dict builder the template writer replaced, as json.dumps wrote it."""
    doc = {
        "schema_version": 1,
        "summary": report.summary,
        "max_abs_err": report.max_abs_err,
        "max_rel_err": report.max_rel_err,
        "wall_time": report.wall_time,
        "records": [
            {
                "rule_id": rec.rule_id.value,
                "params": {k: rec.params[k] for k in sorted(rec.params)},
                "lhs": _old_scalar(rec.lhs),
                "rhs": _old_scalar(rec.rhs),
                "abs_err": _old_float(rec.abs_err),
                "rel_err": _old_float(rec.rel_err),
                "verdict": rec.verdict.value,
                "report_only": rec.report_only,
                "note": rec.note,
                "lhs_certificate": _old_cert(rec.lhs_certificate),
                "rhs_certificate": _old_cert(rec.rhs_certificate),
            }
            for rec in report.records
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _assert_written_as_before(report):
    text = render_json(report)
    assert text == _old_json(report)
    assert report_to_json_dict(report) == json.loads(text)


@pytest.mark.parametrize("which", ["default", "composite"])
def test_writer_matches_the_dict_builder(tmp_path, which):
    plan = load_plan(default_plan_path()) if which == "default" else _composite_plan(tmp_path)
    _assert_written_as_before(run_plan(plan))


def test_empty_report_is_written_as_before():
    _assert_written_as_before(VerdictReport(records=[]))


NAN, INF = math.nan, math.inf
CERT = SeriesEval(0.5, 12, 5e-324, True, 1e-17)


def _hand_built(**fields):
    base = dict(rule_id=RuleId.GRAF_PHASE, params={"x": 1.0}, lhs=0.25, rhs=0.25, abs_err=0.0,
                rel_err=0.0, verdict=Verdict.VERIFIED)
    return VerificationRecord(**{**base, **fields})


def test_odd_records_are_written_as_before():
    records = [
        _hand_built(lhs=complex(NAN, 1.0), rhs=complex(-0.0, INF), abs_err=NAN, rel_err=NAN,
                    verdict=Verdict.INCONCLUSIVE),
        _hand_built(abs_err=INF, rel_err=-INF, verdict=Verdict.DISCREPANT),
        _hand_built(params={"nu": -0.0, "x": 5e-324, "y": 1e308}, lhs=-0.0, rhs=5e-324,
                    abs_err=1e308, rel_err=1.0,
                    lhs_certificate=CERT, rhs_certificate=CERT._replace(last_term_magnitude=NAN)),
        rule_ascending_gen(0, 40, 1),  # int params
        *weighted_sum_S(2, 1, 3.0, 1.0),  # the route string, a report-only record
        _hand_built(note='quote " backslash \\ newline \n tab \t \u00e9 \U0001f600', report_only=True),
        _hand_built(params={}, lhs_certificate=None, rhs_certificate=None),
    ]
    assert isinstance(records[3].params["x"], int) and records[4].params["route"] == "derivative"
    report = VerdictReport(records=records, wall_time=0.125)
    _assert_written_as_before(report)
    assert "\\ud83d\\ude00" in render_json(report)  # ensure_ascii, as json.dumps


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_non_finite_param_is_refused(bad):
    report = VerdictReport(records=[_hand_built(params={"x": bad})])
    with pytest.raises(ValueError):
        _old_json(report)
    with pytest.raises(ValueError):
        render_json(report)


_NUMBERS = st.floats() | st.integers(-(10**30), 10**30)
_CERTS = st.none() | st.builds(SeriesEval, st.floats(), st.integers(0, 10**6), st.floats(),
                               st.booleans(), st.none() | st.floats())
_RECORDS = st.builds(
    VerificationRecord,
    rule_id=st.sampled_from(RuleId),
    params=st.dictionaries(st.text(), st.floats(allow_nan=False, allow_infinity=False)
                           | st.integers(-(10**30), 10**30) | st.text(), max_size=5),
    lhs=_NUMBERS | st.complex_numbers(),
    rhs=_NUMBERS | st.complex_numbers(),
    abs_err=st.floats(),
    rel_err=st.floats(),
    verdict=st.sampled_from(Verdict),
    lhs_certificate=_CERTS,
    rhs_certificate=_CERTS,
    report_only=st.booleans(),
    note=st.text(),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_RECORDS, max_size=4), st.floats(0.0, 1e3))
def test_random_records_are_written_as_before(records, wall_time):
    _assert_written_as_before(VerdictReport(records=records, wall_time=wall_time))
