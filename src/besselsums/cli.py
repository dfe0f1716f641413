"""Command-line front end.

Subcommands::

    besselsums verify [--plan FILE] [--format table|csv|json] [--out FILE]
                      [--tol-abs X] [--tol-rel Y]
    besselsums eval NAME key=value ...
    besselsums list-rules

Exit codes: 0 all verified; 2 discrepancies; 3 inconclusive results (and no
discrepancy); 1 usage or I/O errors, including the ones argparse reports and
a reader that leaves early (``besselsums list-rules | head -1``), which is quiet.
"""

import argparse
import dataclasses
import os
import sys

from besselsums import functions, hybrid
from besselsums.plan import PlanError, default_plan_path, load_plan, run_plan
from besselsums.report import FORMATS, emit_report
from besselsums.rules import RULES
from besselsums.series import SeriesEval

# eval-subcommand dispatch: name -> (callable, argument names).  Every value is
# parsed as a float; a function checks its own integer arguments.
FUNCTIONS = {
    "bessel_j": (functions.bessel_j, ("nu", "x")),
    "tricomi_c": (functions.tricomi_c, ("alpha", "x")),
    "laguerre2": (functions.laguerre2, ("n", "x", "y")),
    "hermite_m": (functions.hermite_m, ("n", "m", "x", "y")),
    "wright": (functions.wright, ("nu", "mu", "x")),
    "h_tricomi": (hybrid.h_tricomi, ("nu", "m", "u", "v")),
    "l_tricomi": (hybrid.l_tricomi, ("nu", "u", "v")),
    "h_wright": (hybrid.h_wright, ("nu", "m", "mu", "u", "v")),
    "hybrid_k": (hybrid.hybrid_k, ("mu", "m", "x", "y", "xi")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselsums",
        description="Evaluate Bessel-family special functions and verify their sum rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification plan and report verdicts")
    verify.add_argument("--plan", default=None, help="plan file (default: bundled plan)")
    verify.add_argument("--format", default="table", choices=FORMATS)
    verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    verify.add_argument("--tol-abs", type=float, default=None,
                        help="verdict abs tolerance for entries without their own override")
    verify.add_argument("--tol-rel", type=float, default=None,
                        help="verdict rel tolerance for entries without their own override")

    ev = sub.add_parser("eval", help="evaluate one function family at a point")
    ev.add_argument("name", help=f"one of: {', '.join(sorted(FUNCTIONS))}")
    ev.add_argument("args", nargs="*", metavar="key=value")

    sub.add_parser("list-rules", help="list the verifiable rules and their parameters")
    return parser


def _cmd_verify(opts) -> int:
    path = opts.plan if opts.plan is not None else default_plan_path()
    try:
        plan = load_plan(path)
    except FileNotFoundError:
        print(f"error: plan file not found: {path}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory, no read permission, ...
        print(f"error: cannot read plan file: {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if opts.tol_abs is not None or opts.tol_rel is not None:
        try:  # every rule's merge, so a bad flag fails even when no entry uses it
            merged = {r: s.tolerances(opts.tol_abs, opts.tol_rel) for r, s in RULES.items()}
        except ValueError as exc:
            print(f"error: --tol-abs/--tol-rel: {exc}", file=sys.stderr)
            return 1
        entries = tuple(
            e if e.tolerances is not None else dataclasses.replace(e, tolerances=merged[e.rule_id])
            for e in plan.entries
        )
        plan = dataclasses.replace(plan, entries=entries)

    report = run_plan(plan)
    try:
        emit_report(report, fmt=opts.format, path=opts.out)
    except BrokenPipeError:  # standard output closed early: main stops quietly
        raise
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return report.exit_code()


def _cmd_eval(opts) -> int:
    if opts.name not in FUNCTIONS:
        print(f"error: unknown function {opts.name!r}; try one of: "
              f"{', '.join(sorted(FUNCTIONS))}", file=sys.stderr)
        return 1
    fn, names = FUNCTIONS[opts.name]
    given = {}
    for item in opts.args:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"error: arguments must look like key=value, got {item!r}", file=sys.stderr)
            return 1
        if key not in names:
            print(f"error: {opts.name} takes {names}, not {key!r}", file=sys.stderr)
            return 1
        if key in given:
            print(f"error: {opts.name} got {key!r} more than once", file=sys.stderr)
            return 1
        try:
            given[key] = float(value)
        except ValueError:
            print(f"error: cannot parse {item!r} as a number", file=sys.stderr)
            return 1
    missing = [n for n in names if n not in given]
    if missing:
        print(f"error: {opts.name} is missing {missing}", file=sys.stderr)
        return 1
    try:
        result = fn(*(given[n] for n in names))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, SeriesEval):
        print(f"value = {result.value:.17g}")
        print(
            f"certificate: terms_used={result.terms_used}"
            f" last_term_magnitude={result.last_term_magnitude:.3e}"
            f" converged={result.converged}"
        )
    else:
        print(f"value = {result:.17g}")
        print("certificate: exact finite sum")
    return 0


def _cmd_list_rules() -> int:
    for rule_id, schema in RULES.items():
        ints = set(schema.integer_params)
        params = ", ".join(f"{p} (int)" if p in ints else p for p in schema.params)
        print(rule_id.value)
        print(f"    identity:   {schema.statement}")
        print(f"    parameters: {params}")
        print(f"    domain:     {schema.constraint}")
        print(
            f"    default tolerances: abs {schema.default_tolerances.tol_abs:g},"
            f" rel {schema.default_tolerances.tol_rel:g}"
        )
    return 0


def _dispatch(argv) -> int:
    try:
        opts = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means discrepancies here
        return 1 if exc.code else 0
    if opts.command == "verify":
        return _cmd_verify(opts)
    if opts.command == "eval":
        return _cmd_eval(opts)
    return _cmd_list_rules()


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # so a reader that left early shows here, not at interpreter exit
    except BrokenPipeError:  # stop quietly; on devnull the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
