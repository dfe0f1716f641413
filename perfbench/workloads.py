"""The benchmark's workloads: why each exists, the plan it runs, and the
correctness gate every request passes through.

Parameter ranges are the bundled default plan's own (so every Bessel argument
x <= 5); the seed only chooses points inside them.  Generated plans are written
as plan files and read back through ``besselsums.load_plan``, so they take the
same path a user's plan does.  ``besselsums`` is imported lazily: importing it
is part of the measured set-up time.
"""

import json
import random
from pathlib import Path

# Why each workload exists.  Shares were measured on a 2-cpu x86_64 box with
# python 3.11 and the pure-python kernels, seed 1: distinct_frac from the
# traced run; time shares of run_plan with only `bessel_j` and the four
# composites timed where the rules call them.
WORKLOADS = {
    # `besselsums verify --format json --out FILE` on the bundled default plan
    # (278 cases, 296 records), one subprocess at a time: the command a user
    # types.  Interpreter start and imports take most of its time (run_plan is
    # about 0.1 s of about 0.3 s), so import and emit work shows here.  J:
    # 5,973 calls, 519 distinct (distinct_frac 0.087), 63-67% of run_plan.
    "cli_default": "the command a user types: one `verify --format json` subprocess at a time on the bundled plan",
    # Serial in-process run_plan on the default plan's entries and Bessel
    # arguments with 10x as many seeded shifts t / theta: few arguments and
    # many shifts, the shape of real sweeps.  J evaluation is most of the work
    # and repeats a lot: 46,762 bessel_j calls with 2,032 distinct
    # (distinct_frac 0.043); J takes 64-65% of run_plan, the composites 15%.
    # A per-run memo cache or a faster J kernel shows here.
    "sweep_shared": "few Bessel arguments and many seeded shifts, so J calls repeat (distinct_frac about 0.04)",
    # Serial in-process run_plan on 1,000 single-point cases of MULTIPLE_ORDER,
    # FRACTIONAL_ORDER, BESSEL_LAGUERRE, LAGUERRE_HERMITE and NEUMANN_EXT,
    # each drawing fresh continuous parameters.  Every J call is distinct
    # (12,179 calls, distinct_frac 1.0), and the hybrid composites take 45% of
    # run_plan against 35% for J (shares measured on a 300-case plan of the
    # same rule mix).  A memo cache gets no hits here, so the prediction for
    # one is no change; a hybrid / _hermite_ratio change shows.  The plan is
    # that large so that one run_plan call takes about 0.3 s: at 0.1 s the
    # per-call times split into the box's fast and slow phases, and their
    # median jumped between the two from run to run.
    "sweep_distinct": "fresh continuous parameters per case, so no J call repeats and the hybrid composites weigh most",
    # The sweep_shared plan and seed with `parallelism: 2` (nproc on the
    # measuring box), the only workload that enters the process pool.  It
    # decides whether the pool pays on a realistic plan: go serial below some
    # case count, or delete it.  Its traced run sees only the parent's plan
    # layer; the other layers run in the workers and read 0.
    "sweep_parallel": "the sweep_shared plan through the two-worker process pool, the only user of the pool",
}
# No rule reaches kernels.wright_series or functions.wright: both read 0 calls
# on every workload, so a change to them shows no effect here by design.

# Records one case emits, for rules that emit more than one.
RECORDS_PER_CASE = {"WEIGHTED_S": 2}

_POLICY = {"abs_tol": 1e-14, "rel_tol": 1e-12, "max_terms": 400, "consecutive_small": 3}

# A parameter spec is a list of choices; a choice is a number or an interval
# (lo, hi) drawn uniformly.

# sweep_shared: the default plan's entries with their fixed grids, the shift
# parameter each one jitters, its range, and how many shifts a scale-1 plan
# draws (10x the default plan's count).  Entries without a shift keep their
# grid.  The APPENDIX_DERIV entry is not in the default plan; it is here so
# that every registered rule runs in at least one workload.
_SHARED_ENTRIES = (
    # rule, fixed grid, shift name, shift spec, shifts, tol_abs, tol_rel
    ("ASCENDING_GEN", {"nu": [0, 0.5, 1, 2.5], "x": [1]}, "t", [(-0.225, 0.225)], 50, 1e-12, 1e-8),
    ("ASCENDING_GEN", {"nu": [0, 0.5, 1, 2.5], "x": [2]}, "t", [(-0.45, 0.45)], 50, 1e-12, 1e-8),
    ("ASCENDING_GEN", {"nu": [0, 0.5, 1, 2.5], "x": [5]}, "t", [(-1.125, 1.125)], 50, 1e-12, 1e-8),
    ("DESCENDING_GEN", {"nu": [0, 0.5, 1, 2.5], "x": [1]}, "t", [(-0.225, 0.225)], 50, 1e-12, 1e-8),
    ("DESCENDING_GEN", {"nu": [0, 0.5, 1, 2.5], "x": [2]}, "t", [(-0.45, 0.45)], 50, 1e-12, 1e-8),
    ("DESCENDING_GEN", {"nu": [0, 0.5, 1, 2.5], "x": [5]}, "t", [(-1.125, 1.125)], 50, 1e-12, 1e-8),
    ("MULTIPLE_ORDER", {"m": [1, 2, 3], "x": [0.5, 1.5, 3]}, "t", [(-0.5, 0.9)], 30, 1e-12, 1e-8),
    ("FRACTIONAL_ORDER", {"m": [2, 3], "x": [0.5, 1, 2]}, "t", [(-0.4, 0.3)], 20, 1e-7, 1e-7),
    ("BESSEL_LAGUERRE", {"z": [1, 2], "x": [0.4, 0.8], "y": [0.7, 1]}, "t", [(-0.25, 0.2)], 20, 1e-7, 1e-7),
    (
        "LAGUERRE_HERMITE",
        {"x": [0.4, 0.8], "y": [0.7, 1], "z": [1], "w": [-0.3, 0.5]},
        "t", [(-0.25, 0.2)], 20, 1e-7, 1e-7,
    ),
    ("GRAF_REAL", {"nu": [0, 1, 2.5], "x": [5], "y": [1]}, "t", [(1.5, 2.0)], 20, 1e-9, 1e-9),
    # x = 4, y = 2 needs t < 2 for a real closed form; the default grid uses 1.5
    ("GRAF_REAL", {"nu": [0, 1, 2.5], "x": [4], "y": [2]}, "t", [(1.5, 1.75)], 10, 1e-9, 1e-9),
    ("GRAF_PHASE", {"nu": [0, 1, 2.5], "x": [5], "y": [1]}, "theta", [(0.0, 3.141592653589793)], 40, 1e-8, 1e-8),
    ("GRAF_PHASE", {"nu": [0, 1, 2.5], "x": [4], "y": [2]}, "theta", [(0.0, 3.141592653589793)], 40, 1e-8, 1e-8),
    ("NEUMANN_EXT", {"x": [0.5, 1], "y": [1, 1.5]}, "t", [(-0.6, -0.5), (0.5, 0.8)], 30, 1e-7, 1e-7),
    ("WEIGHTED_S", {"l": [0, 1, 2], "m": [0, 1, 2], "x": [3], "y": [1]}, None, None, 0, 1e-6, 1e-6),
    ("WEIGHTED_S", {"l": [0, 1, 2], "m": [0, 1, 2], "x": [5], "y": [2]}, None, None, 0, 1e-6, 1e-6),
    ("WEIGHTED_E", {"l": [0, 1], "m": [1, 2, 3], "x": [0.5, 1.5, 2, 4]}, None, None, 0, 1e-9, 1e-9),
    ("APPENDIX_DERIV", {"nu": [0, 0.5, 1, 2.5], "x": [1, 2, 5]}, None, None, 0, 1e-6, 1e-6),
)

# sweep_distinct: the five rules whose right sides are hybrid composites, each
# case a single point drawn from the default plan's ranges for that rule.
_DISTINCT_RULES = (
    ("MULTIPLE_ORDER", {"m": [1, 2, 3], "x": [(0.5, 3.0)], "t": [(-0.5, 0.9)]}, 1e-12, 1e-8),
    ("FRACTIONAL_ORDER", {"m": [2, 3], "x": [(0.5, 2.0)], "t": [(-0.4, 0.3)]}, 1e-7, 1e-7),
    (
        "BESSEL_LAGUERRE",
        {"z": [(1.0, 2.0)], "x": [(0.4, 0.8)], "y": [(0.7, 1.0)], "t": [(-0.25, 0.2)]},
        1e-7, 1e-7,
    ),
    (
        "LAGUERRE_HERMITE",
        {"x": [(0.4, 0.8)], "y": [(0.7, 1.0)], "z": [1], "w": [(-0.3, 0.5)], "t": [(-0.25, 0.2)]},
        1e-7, 1e-7,
    ),
    ("NEUMANN_EXT", {"x": [(0.5, 1.0)], "y": [(1.0, 1.5)], "t": [(-0.6, -0.5), (0.5, 0.8)]}, 1e-7, 1e-7),
)
_DISTINCT_CASES_PER_RULE = 200


def _draw(rng: random.Random, spec):
    choice = rng.choice(spec)
    if isinstance(choice, tuple):
        return rng.uniform(*choice)
    return choice


def _entry(rule, grid, tol_abs, tol_rel):
    return {"rule": rule, "grid": grid, "tol_abs": tol_abs, "tol_rel": tol_rel}


def plan_document(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The plan of a generated workload; ``scale`` shrinks it for self-checks."""
    entries = []
    if workload in ("sweep_shared", "sweep_parallel"):
        rng = random.Random(f"sweep_shared:{seed}")  # one plan for both workloads
        for rule, grid, shift, spec, count, tol_abs, tol_rel in _SHARED_ENTRIES:
            grid = dict(grid)
            if shift is not None:
                grid[shift] = [_draw(rng, spec) for _ in range(max(1, round(count * scale)))]
            entries.append(_entry(rule, grid, tol_abs, tol_rel))
    elif workload == "sweep_distinct":
        rng = random.Random(f"sweep_distinct:{seed}")
        for _ in range(max(1, round(_DISTINCT_CASES_PER_RULE * scale))):
            for rule, specs, tol_abs, tol_rel in _DISTINCT_RULES:
                grid = {name: [_draw(rng, spec)] for name, spec in specs.items()}
                entries.append(_entry(rule, grid, tol_abs, tol_rel))
    else:
        raise ValueError(f"workload {workload!r} has no generated plan")
    return {
        "policy": dict(_POLICY),
        "parallelism": 2 if workload == "sweep_parallel" else 1,
        "entries": entries,
    }


def prepare(workload: str, seed: int, workdir: Path, scale: float = 1.0, perturb_rhs: float = 0.0):
    """Set-up for one workload: import besselsums and load (or generate and
    load) the workload's plan.  Returns ``(plan, plan_path)``.

    ``perturb_rhs`` shifts every right side through the plan's own test hook,
    so that the gate has something to catch.
    """
    from besselsums import default_plan_path, load_plan

    if workload == "cli_default":
        path = default_plan_path()
    else:
        doc = plan_document(workload, seed, scale)
        if perturb_rhs:
            for entry in doc["entries"]:
                entry["perturb_rhs"] = perturb_rhs
        path = Path(workdir) / f"{workload}-{seed}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
    return load_plan(path), path


def case_count(plan) -> int:
    return sum(entry.case_count() for entry in plan.entries)


def expected_records(plan) -> int:
    """Records a correct run of ``plan`` emits, from its case expansion."""
    return sum(
        entry.case_count() * RECORDS_PER_CASE.get(entry.rule_id.value, 1) for entry in plan.entries
    )


def gate(verdicts, expected: int):
    """Check one request's records, given as ``(report_only, verdict)`` pairs.

    Returns ``(checked, failed)``: every record a correct run emits counts as
    checked; a record that is missing, or not report-only and not VERIFIED,
    counts as failed.
    """
    verdicts = list(verdicts)
    bad = sum(1 for report_only, verdict in verdicts if not report_only and verdict != "VERIFIED")
    return max(expected, len(verdicts)), bad + abs(expected - len(verdicts))
