"""Bessel-family special functions and a verification harness for their sum
rules.

The function families (Bessel J, Tricomi, two-variable Laguerre, higher-order
Hermite, Wright, and their Hermite-/Laguerre-based composites) are evaluated
from their defining series through an adaptive engine that attaches a
convergence certificate to every value.  One verification operation per sum
rule compares a brute-force series evaluation of the identity's left side
against its closed form over parameter grids.
"""

from besselsums.backend import BACKEND
from besselsums.functions import bessel_j, hermite_m, laguerre2, reciprocal_gamma, tricomi_c, wright
from besselsums.hybrid import h_tricomi, h_wright, hybrid_k, l_tricomi
from besselsums.plan import (
    PlanEntry,
    PlanError,
    VerificationPlan,
    default_plan_path,
    load_plan,
    run_plan,
)
from besselsums.report import VerdictReport, emit_report, report_to_json_dict
from besselsums.rules import (
    EXACTNESS_BOUND,
    RULES,
    DEFAULT_TOLERANCES,
    RuleCase,
    RuleId,
    Tolerances,
    Verdict,
    VerificationRecord,
    appendix_derivative_check,
    rule_ascending_gen,
    rule_bessel_laguerre,
    rule_descending_gen,
    rule_fractional_order,
    rule_graf,
    rule_graf_phase,
    rule_laguerre_hermite,
    rule_multiple_order,
    rule_neumann_ext,
    stirling2,
    weighted_sum_E,
    weighted_sum_S,
)
from besselsums.series import (
    DEFAULT_POLICY,
    EvaluationDomainError,
    SeriesEval,
    SummationPolicy,
    central_derivative,
    sum_bilateral,
    sum_series,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DEFAULT_POLICY",
    "DEFAULT_TOLERANCES",
    "EXACTNESS_BOUND",
    "EvaluationDomainError",
    "PlanEntry",
    "PlanError",
    "RULES",
    "RuleCase",
    "RuleId",
    "SeriesEval",
    "SummationPolicy",
    "Tolerances",
    "VerdictReport",
    "Verdict",
    "VerificationPlan",
    "VerificationRecord",
    "appendix_derivative_check",
    "bessel_j",
    "central_derivative",
    "default_plan_path",
    "emit_report",
    "h_tricomi",
    "h_wright",
    "hermite_m",
    "hybrid_k",
    "l_tricomi",
    "laguerre2",
    "load_plan",
    "reciprocal_gamma",
    "report_to_json_dict",
    "rule_ascending_gen",
    "rule_bessel_laguerre",
    "rule_descending_gen",
    "rule_fractional_order",
    "rule_graf",
    "rule_graf_phase",
    "rule_laguerre_hermite",
    "rule_multiple_order",
    "rule_neumann_ext",
    "run_plan",
    "stirling2",
    "sum_bilateral",
    "sum_series",
    "tricomi_c",
    "weighted_sum_E",
    "weighted_sum_S",
    "wright",
]
