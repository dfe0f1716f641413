"""Aggregate verdicts for a grid sweep, with table / csv / json emitters.

Output is deterministic: two runs of the same plan differ only in
``wall_time``.  Floats are written with 17 significant digits in csv and json
so values round-trip exactly; json writes a non-finite float as null, so a
strict parser accepts every report.
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
            rule = rec.case.rule_id.value
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

    def counts(self, report_only: bool = False):
        """Total (verified, discrepant, inconclusive) over records, keeping or
        dropping report-only ones."""
        v = d = i = 0
        for rec in self.records:
            if rec.report_only and not report_only:
                continue
            if rec.verdict is Verdict.VERIFIED:
                v += 1
            elif rec.verdict is Verdict.DISCREPANT:
                d += 1
            else:
                i += 1
        return v, d, i

    def exit_code(self) -> int:
        """0 all verified, 2 any discrepancy, 3 any inconclusive (and no
        discrepancy); report-only records never affect the code."""
        _, d, i = self.counts(report_only=False)
        if d:
            return 2
        if i:
            return 3
        return 0


def _fmt_float(v: float) -> str:
    return format(v, ".17g")


def _fmt_scalar(v) -> str:
    if isinstance(v, complex):
        return f"{_fmt_float(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt_float(abs(v.imag))}j"
    return _fmt_float(v)


def _float_to_json(v):
    """A finite float as itself, anything else (nan, +-inf) as json's null."""
    return v if math.isfinite(v) else None


def _scalar_to_json(v):
    if isinstance(v, complex):
        return {"re": _float_to_json(v.real), "im": _float_to_json(v.imag)}
    return _float_to_json(v)


def _cert_to_json(cert):
    if cert is None:
        return None
    return {
        "terms_used": cert.terms_used,
        "last_term_magnitude": _float_to_json(cert.last_term_magnitude),
        "converged": cert.converged,
    }


def report_to_json_dict(report: VerdictReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "summary": report.summary,
        "max_abs_err": report.max_abs_err,
        "max_rel_err": report.max_rel_err,
        "wall_time": report.wall_time,
        "records": [
            {
                "rule_id": rec.case.rule_id.value,
                "params": {k: rec.case.params[k] for k in sorted(rec.case.params)},
                "lhs": _scalar_to_json(rec.lhs),
                "rhs": _scalar_to_json(rec.rhs),
                "abs_err": _float_to_json(rec.abs_err),
                "rel_err": _float_to_json(rec.rel_err),
                "verdict": rec.verdict.value,
                "report_only": rec.report_only,
                "note": rec.note,
                "lhs_certificate": _cert_to_json(rec.lhs_certificate),
                "rhs_certificate": _cert_to_json(rec.rhs_certificate),
            }
            for rec in report.records
        ],
    }


def render_json(report: VerdictReport) -> str:
    return json.dumps(report_to_json_dict(report), indent=2, allow_nan=False) + "\n"


def render_csv(report: VerdictReport) -> str:
    param_names = sorted({name for rec in report.records for name in rec.case.params})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rule_id", *param_names, "lhs", "rhs", "abs_err", "rel_err", "verdict"])
    for rec in report.records:
        row = [rec.case.rule_id.value]
        for name in param_names:
            v = rec.case.params.get(name, "")
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
            f"{k}={rec.case.params[k]:g}"
            if not isinstance(rec.case.params[k], str)
            else f"{k}={rec.case.params[k]}"
            for k in sorted(rec.case.params)
        )
        verdict = rec.verdict.value + ("*" if rec.report_only else "")
        rows.append(
            [
                rec.case.rule_id.value,
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
    v, d, i = report.counts(report_only=True)
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
