"""The default plan's json report, pinned apart from ``wall_time``.

A change that leaves every number the same must leave this digest the same.
The digest was recorded on x86-64 with Python 3.11 and the pure-python
kernels; another libm may round ``pow``/``lgamma`` differently and move it.
"""

import dataclasses
import hashlib

import pytest

from besselsums.plan import default_plan_path, load_plan, run_plan
from besselsums.report import render_json

DEFAULT_REPORT_SHA256 = "74cbcd1fa10029e411ac59740473e9a942a52374e7e255e3176f65b030712e84"


@pytest.mark.parametrize("parallelism", [1, 2])
def test_default_report_digest(parallelism):
    plan = dataclasses.replace(load_plan(default_plan_path()), parallelism=parallelism)
    lines = render_json(run_plan(plan)).splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith('  "wall_time":')]
    assert len(lines) - len(kept) == 1
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == DEFAULT_REPORT_SHA256
