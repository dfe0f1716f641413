"""Aggregate verdicts for a grid sweep, with table / csv / json emitters.

Output is deterministic: two runs of the same plan differ only in
``wall_time``.  Floats round-trip exactly (17 significant digits in csv,
``repr`` in json); json writes a non-finite float as null, so a strict parser
accepts every report.  The json is what ``json.dumps(indent=2)`` writes, one
template per record: with an indent, 3.10-3.12's encoder is pure Python and
2-3 times slower.  ``report_to_json_dict`` parses that text back.
"""

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from besselsums.rules import Verdict

SCHEMA_VERSION = 1

FORMATS = ("table", "csv", "json")


@dataclass
class VerdictReport:
    records: list
    summary: dict = field(init=False)
    max_abs_err: dict = field(init=False)
    max_rel_err: dict = field(init=False)
    wall_time: float = 0.0

    def __post_init__(self):
        summary = {}
        max_abs = {}
        max_rel = {}
        for rec in self.records:
            rule = rec.rule_id.value
            counts = summary.setdefault(
                rule, {"verified": 0, "discrepant": 0, "inconclusive": 0}
            )
            counts[rec.verdict.value.lower()] += 1
            if math.isfinite(rec.abs_err):
                max_abs[rule] = max(max_abs.get(rule, 0.0), rec.abs_err)
            if math.isfinite(rec.rel_err):
                max_rel[rule] = max(max_rel.get(rule, 0.0), rec.rel_err)
        self.summary = summary
        self.max_abs_err = max_abs
        self.max_rel_err = max_rel

    def exit_code(self) -> int:
        """0 all verified, 2 any discrepancy, 3 any inconclusive (and no
        discrepancy); report-only records never affect the code."""
        verdicts = {rec.verdict for rec in self.records if not rec.report_only}
        if Verdict.DISCREPANT in verdicts:
            return 2
        if Verdict.INCONCLUSIVE in verdicts:
            return 3
        return 0


def _fmt_float(v: float) -> str:
    return format(v, ".17g")


def _fmt_scalar(v) -> str:
    if isinstance(v, complex):
        return f"{_fmt_float(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt_float(abs(v.imag))}j"
    return _fmt_float(v)


def _layout(keys, depth: int) -> str:
    """A %-template of a json object with these keys, as ``json.dumps(indent=2)`` writes one."""
    pad = "\n" + "  " * depth
    return "{" + ",".join(f'{pad}  "{key}": %s' for key in keys) + pad + "}"


_RECORD = _layout(("rule_id", "params", "lhs", "rhs", "abs_err", "rel_err", "verdict",
                   "report_only", "note", "lhs_certificate", "rhs_certificate"), 2)
_COMPLEX = _layout(("re", "im"), 3)
_CERTIFICATE = _layout(("terms_used", "last_term_magnitude", "converged"), 3)
_string = json.encoder.encode_basestring_ascii


def _json(v) -> str:
    """``v`` as ``json.dumps(v, allow_nan=False)`` writes it, or its error (a nan param)."""
    kind = type(v)
    if kind is float and v - v == 0.0 or kind is int:
        return repr(v)
    if kind is str:
        return _string(v)
    return ("false", "true")[v] if kind is bool else json.dumps(v, allow_nan=False)


def _number(v) -> str:
    """A side, error or last-term magnitude; null where not finite, re/im where complex."""
    if type(v) is float:  # the usual case, in one call
        return repr(v) if v - v == 0.0 else "null"
    if isinstance(v, complex):
        return _COMPLEX % (_number(v.real), _number(v.imag))
    return _json(v) if math.isfinite(v) else "null"


def _certificate(c) -> str:
    if c is None:
        return "null"
    return _CERTIFICATE % (_json(c.terms_used), _number(c.last_term_magnitude), _json(c.converged))


def _record(rec) -> str:
    params = ",".join(f"\n        {_string(k)}: {_json(rec.params[k])}" for k in sorted(rec.params))
    return _RECORD % (
        _json(rec.rule_id.value), "{%s\n      }" % params if params else "{}",
        _number(rec.lhs), _number(rec.rhs), _number(rec.abs_err), _number(rec.rel_err),
        _json(rec.verdict.value), _json(rec.report_only), _json(rec.note),
        _certificate(rec.lhs_certificate), _certificate(rec.rhs_certificate),
    )


def render_json(report: VerdictReport) -> str:
    head = dict(schema_version=SCHEMA_VERSION, summary=report.summary, max_abs_err=report.max_abs_err,
                max_rel_err=report.max_rel_err, wall_time=report.wall_time)
    records = ",\n    ".join(map(_record, report.records))
    records = f"[\n    {records}\n  ]" if records else "[]"
    return f'{json.dumps(head, indent=2, allow_nan=False)[:-2]},\n  "records": {records}\n}}\n'


def report_to_json_dict(report: VerdictReport) -> dict:
    return json.loads(render_json(report))


def render_csv(report: VerdictReport) -> str:
    param_names = sorted({name for rec in report.records for name in rec.params})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rule_id", *param_names, "lhs", "rhs", "abs_err", "rel_err", "verdict"])
    for rec in report.records:
        row = [rec.rule_id.value]
        for name in param_names:
            v = rec.params.get(name, "")
            row.append(v if isinstance(v, str) else _fmt_float(v))
        row += [
            _fmt_scalar(rec.lhs),
            _fmt_scalar(rec.rhs),
            _fmt_float(rec.abs_err),
            _fmt_float(rec.rel_err),
            rec.verdict.value,
        ]
        writer.writerow(row)
    return buf.getvalue()


def _fmt_max(maxima: dict, rule: str) -> str:
    """A rule's largest finite error, or n/a when none of its records had one."""
    return f"{maxima[rule]:.3e}" if rule in maxima else "n/a"


def render_table(report: VerdictReport) -> str:
    headers = ["rule", "params", "lhs", "rhs", "abs_err", "rel_err", "verdict"]
    rows = []
    for rec in report.records:
        params = ", ".join(
            f"{k}={rec.params[k]:g}"
            if not isinstance(rec.params[k], str)
            else f"{k}={rec.params[k]}"
            for k in sorted(rec.params)
        )
        verdict = rec.verdict.value + ("*" if rec.report_only else "")
        rows.append(
            [
                rec.rule_id.value,
                params,
                f"{rec.lhs:.10g}",
                f"{rec.rhs:.10g}",
                f"{rec.abs_err:.3e}",
                f"{rec.rel_err:.3e}",
                verdict,
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(r[i].ljust(widths[i]) for i in range(len(headers))) for r in rows]
    lines.append("")
    columns = ("verified", "discrepant", "inconclusive")
    v, d, i = (sum(counts[k] for counts in report.summary.values()) for k in columns)
    lines.append(f"records: {len(report.records)}  verified: {v}  discrepant: {d}  inconclusive: {i}")
    for rule, counts in report.summary.items():
        lines.append(
            f"  {rule}: {counts['verified']}/{sum(counts.values())} verified"
            f"  (max abs err {_fmt_max(report.max_abs_err, rule)},"
            f" max rel err {_fmt_max(report.max_rel_err, rule)})"
        )
    lines.append(f"wall time: {report.wall_time:.2f} s" if report.wall_time else "wall time: n/a")
    lines.append("(* report-only records never affect the exit code)")
    return "\n".join(lines) + "\n"


def emit_report(report: VerdictReport, fmt: str = "table", path=None) -> None:
    """Write the report in the chosen format to ``path`` or standard output."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    text = {"table": render_table, "csv": render_csv, "json": render_json}[fmt](report)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
