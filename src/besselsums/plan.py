"""Verification plans: which rules to run, over which parameter grids.

A plan is a json document::

    {
      "entries": [
        {"rule": "ASCENDING_GEN",
         "grid": {"nu": [0, 0.5], "x": [2], "t": [0, 0.2]},
         "tol_abs": 1e-9, "tol_rel": 1e-8}
      ]
    }

Every key outside "entries" is optional, as are the per-entry tolerance
overrides.  Each entry expands to the cartesian product of its grid lists,
validated against the rule's parameter schema and domain check before
anything is evaluated.  Grid values must be finite numbers (json's NaN and
Infinity are rejected); tolerances must be finite numbers >= 0, not booleans
or null.  Any key not named here is an error.
The summation policy is fixed (``besselsums.series``).  The optional
``policy`` object may restate it, as plans written before it was fixed do:
each of its keys, "abs_tol", "rel_tol", "max_terms" and "consecutive_small",
must be a number equal to the fixed value (400.0 counts as 400).
The optional ``parallelism`` (an integer >= 0) is checked but has no effect:
every plan runs serially in the calling process.
The per-entry ``perturb_rhs`` (a finite number added to every right side) is
a test hook for exercising the DISCREPANT paths.  Every violation raises
PlanError, which names the file or the entry at fault; so does a file that
cannot be opened, read or parsed as json.

Each entry's cases run through ``rules.run_cases``, which turns a case that
raises into an INCONCLUSIVE record.  The rules read Bessel J values through
one least-recently-used cache of 1,024 values (``rules._bessel_j``), which
``run_plan`` empties when a run starts: a J evaluated once serves the later
cases of that entry and of later entries (the brute-force sides re-evaluate
the same J_{nu+n}(x) for each shift t or theta, and entries share points on
purpose), and a run reuses only its own values.  A J value depends on its
arguments alone, so the reuse leaves every record as it is.
"""

import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from besselsums.report import VerdictReport
from besselsums.rules import DEFAULT_TOLERANCES, RULES, RuleId, Tolerances, _bessel_j, run_cases
from besselsums.series import ABS_TOL, CONSECUTIVE_SMALL, MAX_TERMS, REL_TOL, require_int, short_repr

MAX_GRID_CASES = 100_000
_PLAN_KEYS = ("policy", "parallelism", "entries")
_POLICY = {"abs_tol": ABS_TOL, "rel_tol": REL_TOL,  # the fixed values a plan may restate
           "max_terms": MAX_TERMS, "consecutive_small": CONSECUTIVE_SMALL}
_ENTRY_KEYS = ("rule", "grid", "tol_abs", "tol_rel", "perturb_rhs")


class PlanError(ValueError):
    """A plan file failed validation; the message carries the location."""


@dataclass(frozen=True)
class PlanEntry:
    rule_id: RuleId
    grid: dict
    tolerances: Tolerances = DEFAULT_TOLERANCES
    perturb_rhs: float = 0.0

    def cases(self):
        names = list(self.grid)
        for values in itertools.product(*(self.grid[n] for n in names)):
            yield dict(zip(names, values))

    def case_count(self) -> int:
        return math.prod(len(v) for v in self.grid.values())


@dataclass(frozen=True)
class VerificationPlan:
    entries: tuple
    parallelism: int = 1  # checked on load, otherwise unused: every run is serial


def default_plan_path() -> Path:
    """Path of the bundled default plan (the full shipped grid)."""
    return Path(__file__).parent / "data" / "default_plan.json"


def load_plan(path) -> VerificationPlan:
    """Parse and validate a plan file; raises PlanError for a file that cannot
    be read or parsed, and with the offending entry index and parameter name
    on schema violations."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise PlanError(f"plan file not found: {path}") from None
    except OSError as exc:  # a directory, no read permission, ...
        raise PlanError(f"cannot read plan file: {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad json or utf-8, a huge int, deep nesting
        raise PlanError(f"{path}: not valid json: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise PlanError(f"{path}: plan must be an object with an 'entries' list")
    _reject_unknown_keys(data, _PLAN_KEYS, str(path))

    raw = data.get("policy", {})
    if not isinstance(raw, dict):
        raise PlanError(f"{path}: policy must be an object, got {short_repr(raw)}")
    _reject_unknown_keys(raw, tuple(_POLICY), f"{path}: policy")
    for key, value in raw.items():
        try:
            if _number(key, value) != _POLICY[key]:
                raise ValueError(f"{key} is fixed at {_POLICY[key]:g}, got {short_repr(value)}")
        except ValueError as exc:
            raise PlanError(f"{path}: bad policy: {exc}") from exc

    try:
        parallelism = require_int(
            "parallelism", _number("parallelism", data.get("parallelism", 1)), minimum=0
        )
    except ValueError as exc:
        raise PlanError(f"{path}: {exc}") from exc

    entries = tuple(_load_entry(raw, idx) for idx, raw in enumerate(data["entries"]))
    return VerificationPlan(entries=entries, parallelism=parallelism)


def _number(what: str, value):
    """``value`` if it is a finite json number, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} has non-numeric value {short_repr(value)}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, or an int past float range
        raise ValueError(f"{what} has non-finite value {short_repr(value)}")
    return value


def _reject_unknown_keys(obj: dict, known: tuple, where: str) -> None:
    """Refuse a misspelt setting rather than drop it."""
    for key in obj:
        if key not in known:
            raise PlanError(
                f"{where}: unknown key {short_repr(key)} (expected one of {', '.join(known)})"
            )


def _load_entry(raw: dict, idx: int) -> PlanEntry:
    where = f"entry {idx}"
    if not isinstance(raw, dict):
        raise PlanError(f"{where}: must be an object, got {short_repr(raw)}")
    if "rule" not in raw:
        raise PlanError(f"{where}: missing 'rule'")
    try:
        rule_id = RuleId(raw["rule"])
    except ValueError:
        raise PlanError(f"{where}: unknown rule {short_repr(raw['rule'])}") from None
    schema = RULES[rule_id]
    where = f"entry {idx} ({rule_id.value})"
    _reject_unknown_keys(raw, _ENTRY_KEYS, where)

    grid = raw.get("grid")
    if not isinstance(grid, dict):
        raise PlanError(f"{where}: missing 'grid' object")
    missing = set(schema.params) - set(grid)
    extra = set(grid) - set(schema.params)
    if missing:
        raise PlanError(f"{where}: missing parameter {sorted(missing)}")
    if extra:
        raise PlanError(f"{where}: unexpected parameter {short_repr(sorted(extra))}")

    clean = {}
    for name in schema.params:  # keep schema order for deterministic case order
        values = grid[name]
        if not isinstance(values, list) or not values:
            raise PlanError(f"{where}: parameter {name!r} must be a nonempty list")
        what = f"parameter {name!r}"
        try:
            if name in schema.integer_params:
                clean[name] = [require_int(name, _number(what, v)) for v in values]
            else:
                clean[name] = [float(_number(what, v)) for v in values]
        except ValueError as exc:
            raise PlanError(f"{where}: {exc}") from exc

    try:
        given = {key: raw[key] for key in ("tol_abs", "tol_rel") if key in raw}
        tol = replace(DEFAULT_TOLERANCES, **given)
        perturb = float(_number("perturb_rhs", raw.get("perturb_rhs", 0.0)))
    except ValueError as exc:
        raise PlanError(f"{where}: {exc}") from exc

    entry = PlanEntry(rule_id=rule_id, grid=clean, tolerances=tol, perturb_rhs=perturb)
    if entry.case_count() > MAX_GRID_CASES:
        raise PlanError(f"{where}: grid has {entry.case_count()} cases (limit {MAX_GRID_CASES})")

    if schema.validate is not None:
        for params in entry.cases():
            try:
                schema.validate(**params)
            except ValueError as exc:
                point = ", ".join(f"{name!r}: {short_repr(v)}" for name, v in params.items())
                raise PlanError(f"{where}: grid point {{{point}}}: {exc}") from exc
    return entry


def run_plan(plan: VerificationPlan) -> VerdictReport:
    """Evaluate every case in one process, in deterministic order: rule id,
    then entry, then grid position.  The entries share the J cache, emptied
    first (see the module docstring)."""
    t0 = time.perf_counter()
    _bessel_j.cache_clear()
    rule_order = {rule: i for i, rule in enumerate(RuleId)}
    records = []
    for entry in sorted(plan.entries, key=lambda e: rule_order[e.rule_id]):
        records += run_cases(entry.rule_id, entry.cases(), entry.tolerances, entry.perturb_rhs)
    report = VerdictReport(records=records)
    report.wall_time = time.perf_counter() - t0
    return report
