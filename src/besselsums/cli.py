"""Command-line front end.

Subcommands::

    besselsums verify [--plan FILE] [--format table|csv|json] [--out FILE]
    besselsums eval NAME key=value ...
    besselsums list-rules

Exit codes: 0 all verified; 2 discrepancies; 3 inconclusive results (and no
discrepancy); 1 usage or I/O errors, including the ones argparse reports and
a reader that leaves early (``besselsums list-rules | head -1``), which is quiet.

``verify`` prints the ``PlanError`` that ``load_plan`` raises for any plan that
fails to load.
"""

import argparse
import inspect
import os
import sys

from besselsums import functions, hybrid
from besselsums.plan import PlanError, default_plan_path, load_plan, run_plan
from besselsums.report import FORMATS, emit_report
from besselsums.rules import DEFAULT_TOLERANCES, RULES
from besselsums.series import SeriesEval

# eval-subcommand dispatch: name -> function, whose signature names its arguments.
# Every value is parsed as a float; a function checks its integers.  Each sums
# under the fixed summation policy of ``besselsums.series``.
FUNCTIONS = {
    "bessel_j": functions.bessel_j,
    "tricomi_c": functions.tricomi_c,
    "laguerre2": functions.laguerre2,
    "hermite_m": functions.hermite_m,
    "wright": functions.wright,
    "h_tricomi": hybrid.h_tricomi,
    "l_tricomi": hybrid.l_tricomi,
    "h_wright": hybrid.h_wright,
    "hybrid_k": hybrid.hybrid_k,
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

    ev = sub.add_parser("eval", help="evaluate one function family at a point")
    ev.add_argument("name", help=f"one of: {', '.join(sorted(FUNCTIONS))}")
    ev.add_argument("args", nargs="*", metavar="key=value")

    sub.add_parser("list-rules", help="list the verifiable rules and their parameters")
    return parser


def _cmd_verify(opts) -> int:
    path = opts.plan if opts.plan is not None else default_plan_path()
    try:
        plan = load_plan(path)
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
    fn = FUNCTIONS[opts.name]
    names = tuple(inspect.signature(fn).parameters)
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
        # a stop proved by a bound on the terms left out shows it; a streak stop shows none
        tail = "none" if result.tail_bound is None else f"{result.tail_bound:.3e}"
        print(f"value = {result.value:.17g}")
        print(
            f"certificate: terms_used={result.terms_used}"
            f" last_term_magnitude={result.last_term_magnitude:.3e}"
            f" converged={result.converged} tail_bound={tail}"
        )
    else:
        print(f"value = {result:.17g}")
        print("certificate: exact finite sum")
    return 0


def _cmd_list_rules() -> int:
    print(
        f"default tolerances of every rule: abs {DEFAULT_TOLERANCES.tol_abs:g},"
        f" rel {DEFAULT_TOLERANCES.tol_rel:g}"
    )
    for rule_id, schema in RULES.items():
        ints = set(schema.integer_params)
        params = ", ".join(f"{p} (int)" if p in ints else p for p in schema.params)
        print(rule_id.value)
        print(f"    identity:   {schema.statement}")
        print(f"    parameters: {params}")
        print(f"    domain:     {schema.constraint}")
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
