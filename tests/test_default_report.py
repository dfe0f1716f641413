"""The default plan's json report, pinned apart from ``wall_time``, and the
report of a seeded plan of distinct points over the rules whose right sides
are hybrid composites.

A change that leaves every number the same must leave these digests the same.
They were recorded on x86-64 with Python 3.11 and the pure-python kernels;
another libm may round ``pow``/``lgamma`` differently and move them.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from besselsums.plan import default_plan_path, load_plan, run_plan
from besselsums.report import render_json

# Re-recorded when the J and Tricomi kernels and the J-weighted rule sides
# began to stop on proved tail bounds and 1/Gamma became 1/math.gamma (values
# of every rule but LAGUERRE_HERMITE moved, and the certificates' term counts
# fell; no verdict changed); before that they were
# 427f305c7f9e1f18994c6998154aad2cbbfb53232e2082f8a34bcf689f5981ba and
# aaf8175913a68be24d5a066b45c08f5439f8328b575f7fd6772c3eb7dba342cc.
# Re-recorded before that when the Hermite and Laguerre weights moved to their
# recurrences (ulps in the values of five rules, no verdict changed), from
# 74cbcd1fa10029e411ac59740473e9a942a52374e7e255e3176f65b030712e84 and
# fd574987f85822fba18fc3e94160dfeae04c1532f98707c6c3ba6be25028b0df.
DEFAULT_REPORT_SHA256 = "a84ee3d576cd715843d914d1d2382d7642096ded456a3709f4120e37621863f1"
COMPOSITE_REPORT_SHA256 = "0f0bfffc7d43ed6183a5b1f883b3c69e3347926907468c7cccf8dff024598a89"

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


def test_composite_sweep_report_digest(tmp_path):
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
    report = run_plan(load_plan(path))
    assert len(report.records) == 100
    assert {r.verdict.value for r in report.records} == {"VERIFIED"}
    _assert_certificates_describe_values(report)
    assert _digest(render_json(report)) == COMPOSITE_REPORT_SHA256
