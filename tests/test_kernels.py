"""The scalar kernels in ``besselsums.backend``.

The pinned table holds kernel outputs as ``(value.hex(), terms_used,
last_term_magnitude.hex(), converged)``; the fifth output, the tail bound the
loop stopped on, is present exactly when the sum converged.  The table was
first recorded when the Bessel and Tricomi kernels still ran two separate
loops.  The rows were re-recorded when the loop began to stop on a proved tail
and 1/Gamma became 1/math.gamma; each keeps its previous record and ``err``,
both records' errors against mpmath (40 digits).  The new values are within
min(abs_tol, rel_tol |value|), plus rounding, of the exact ones, as the stop
rule promises; the old ones were closer only because the negligible-term
streak summed a few terms past it.  The kernels sum under the fixed summation
policy, so two rows pin its 400-term budget with sums that run out of it.
"""

import dataclasses
from pathlib import Path

import pytest

import besselsums
from besselsums import (
    Verdict,
    backend,
    bessel_j,
    default_plan_path,
    load_plan,
    run_plan,
    tricomi_c,
)
from besselsums.series import EvaluationDomainError

PINNED = [
    # k0 = 0
    # was ("0x1.57c14f27a1dc6p-1", 10, "0x1.e3fa3c245f925p-58", True), err 1.27e-16 -> 2.20e-15
    ("bessel_j_series", 0.5, 1.0,
     ("0x1.57c14f27a1db1p-1", 8, "0x1.577ca88f10943p-41", True)),
    # was ("0x1.8512214c114aep-10", 15, "0x1.02b299da9ed96p-59", True), err 2.02e-18 -> 6.67e-17
    ("bessel_j_series", 11.25, 6.0,
     ("0x1.8512214c115ebp-10", 13, "0x1.5b93eb2502431p-49", True)),
    # k0 even, k0 odd
    # was ("0x1.f1c1e84c59ec7p-2", 14, "0x1.821f585c26a59p-57", True), err 5.97e-18 -> 8.82e-16
    ("bessel_j_series", -2.0, 3.0,
     ("0x1.f1c1e84c59eb7p-2", 12, "0x1.310289cc5931ep-44", True)),
    # was ("-0x1.bb98fc5e82abbp-3", 13, "0x1.85c3fc9ebf0a1p-61", True), err 3.56e-18 -> 7.41e-15
    ("bessel_j_series", -3.0, 2.5,
     ("-0x1.bb98fc5e829b0p-3", 10, "0x1.5f23ca445d69bp-41", True)),
    # integer nu with x < 0
    # was ("0x1.20802c5da89aep-2", 12, "0x1.806526df87b9bp-64", True), err 1.64e-17 -> 2.65e-15
    ("bessel_j_series", 2.0, -1.7,
     ("0x1.20802c5da89dep-2", 9, "0x1.9cd0fc5230698p-42", True)),
    # was ("0x1.3fc463094efb9p-3", 15, "0x1.2b0773af9502ap-58", True), err 2.16e-18 -> 2.48e-16
    ("bessel_j_series", -5.0, -4.2,
     ("0x1.3fc463094efc2p-3", 13, "0x1.d34f045c6063bp-47", True)),
    # x = +-0.0
    # was ("0x0.0p+0", 3, "0x0.0p+0", True), err 0.00e+00 -> 0.00e+00
    ("bessel_j_series", 1.0, 0.0,
     ("0x0.0p+0", 1, "0x0.0p+0", True)),
    # was ("0x0.0p+0", 3, "0x0.0p+0", True), err 0.00e+00 -> 0.00e+00
    ("bessel_j_series", 1.0, -0.0,
     ("0x0.0p+0", 1, "0x0.0p+0", True)),
    # the fixed 400-term budget runs out (J_0(300) = -0.033; the partial sum is 5e110)
    ("bessel_j_series", 0.0, 300.0,
     ("0x1.a774b700db959p+367", 400, "0x1.948b68e2489f2p+13", False)),
    # alpha = -3 (k0 odd), both signs of x
    # was ("-0x1.9287ceca38d6ap-1", 13, "0x1.e281a409e08fap-55", True), err 7.37e-17 -> 4.59e-15
    ("tricomi_series", -3.0, 2.0,
     ("-0x1.9287ceca38d94p-1", 11, "0x1.982ccb549b078p-42", True)),
    # was ("0x1.161d50d83500ep-4", 11, "0x1.fa35cdcd0fb5fp-62", True), err 1.22e-17 -> 8.16e-17
    ("tricomi_series", -3.0, -0.7,
     ("0x1.161d50d835009p-4", 9, "0x1.baa42e1304f51p-47", True)),
    # was ("-0x1.b53a446e8ed0ep-3", 17, "0x1.61c07dc1de43dp-59", True), err 5.46e-17 -> 9.10e-15
    ("tricomi_series", 0.5, 4.0,
     ("-0x1.b53a446e8ee58p-3", 14, "0x1.06b9aaa2d03fep-41", True)),
    # was ("0x1.0000000000000p-1", 4, "0x0.0p+0", True), err 0.00e+00 -> 0.00e+00
    ("tricomi_series", 2.0, -0.0,
     ("0x1.0000000000000p-1", 1, "0x1.0000000000000p-1", True)),
    # the fixed 400-term budget runs out
    ("tricomi_series", 0.0, 1e5,
     ("-0x1.e8a01754ccbffp+870", 400, "0x1.3d3b170186354p+872", False)),
    # both prologue branches: an order with no leading pole (k0 = 0, first
    # term (x/2)^nu / Gamma(nu + 1)) and one with a run of poles (k0 > 0);
    # recorded before the k0 = 0 branch skipped the shift and the 1/0! factor
    ("bessel_j_series", 0.0, 2.0,
     ("0x1.ca873fb24cf0ep-3", 11, "0x1.5601885e63e5dp-44", True)),
    ("bessel_j_series", -0.0, 2.0,
     ("0x1.ca873fb24cf0ep-3", 11, "0x1.5601885e63e5dp-44", True)),
    ("bessel_j_series", -0.5, 1.5,
     ("0x1.7983674d06149p-5", 10, "0x1.52a15d4af4bdfp-43", True)),
    ("bessel_j_series", -1.0, 2.0,
     ("-0x1.27487958371b2p-1", 10, "0x1.ab81ea75fcdf3p-41", True)),
    ("bessel_j_series", -2.5, 3.0,
     ("0x1.79e5d02a3c545p-2", 14, "0x1.a1b41a750b844p-43", True)),
    ("bessel_j_series", 0.0, 0.0,
     ("0x1.0000000000000p+0", 1, "0x1.0000000000000p+0", True)),
    ("bessel_j_series", 0.0, -0.0,
     ("0x1.0000000000000p+0", 1, "0x1.0000000000000p+0", True)),
    ("bessel_j_series", -2.0, 0.0,
     ("0x0.0p+0", 1, "0x0.0p+0", True)),
    ("bessel_j_series", -2.0, -0.0,
     ("0x0.0p+0", 1, "0x0.0p+0", True)),
    ("tricomi_series", 0.0, 1.5,
     ("-0x1.784a6fb1e81e2p-6", 12, "0x1.e8f84fa6de401p-45", True)),
    ("tricomi_series", -0.0, 1.5,
     ("-0x1.784a6fb1e81e2p-6", 12, "0x1.e8f84fa6de401p-45", True)),
    ("tricomi_series", -0.5, 2.0,
     ("-0x1.12d0c96d5b21ap-1", 13, "0x1.196c313f9681fp-44", True)),
    ("tricomi_series", -3.0, 0.0,
     ("0x0.0p+0", 1, "0x0.0p+0", True)),
    ("tricomi_series", -1.0, 2.0,
     ("-0x1.21c581744c383p-1", 12, "0x1.e2637bef9ff18p-43", True)),
]


@pytest.mark.parametrize("kernel, order, x, expected", PINNED)
def test_kernel_output_pinned(kernel, order, x, expected):
    value, terms, last_mag, converged, tail = getattr(backend, kernel)(order, x)
    assert (value.hex(), terms, last_mag.hex(), converged) == expected
    assert (tail is not None) == converged


@pytest.mark.parametrize("kernel", ["bessel_j_series", "tricomi_series"])
def test_overflow_sentinel(kernel):
    # 1/Gamma(-199.5) overflows: the kernel itself refuses the sum at its first term
    with pytest.raises(EvaluationDomainError) as info:
        getattr(backend, kernel)(-200.5, 5.0)
    assert info.value.index == 0


def test_a_sum_of_finite_terms_that_overflows_is_refused():
    # with a = 0 and c = 1 the second term equals the first: both finite, their sum not
    with pytest.raises(EvaluationDomainError) as info:
        backend._ratio_series(1e308, 0.0, 1.0, 0, "C", -1.0)
    assert str(info.value) == "non-finite term while summing C_0.0(-1.0)"
    assert info.value.index == 1


@pytest.mark.parametrize("function, symbol", [(bessel_j, "J"), (tricomi_c, "C")])
def test_non_finite_term_message_is_pinned(function, symbol):
    # the message reaches `eval`'s stderr and the notes of failed records
    with pytest.raises(EvaluationDomainError) as info:
        function(-200.5, 5.0)
    assert str(info.value) == f"non-finite term while summing {symbol}_-200.5(5.0)"
    assert info.value.index == 0


def test_backend_is_pure_python():
    assert besselsums.BACKEND == "pure-python"


def test_kernels_bypass_public_recip_gamma(monkeypatch):
    calls = []
    real = backend.recip_gamma

    def spy(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(backend, "recip_gamma", spy)
    backend.bessel_j_series(0.5, 1.0)
    backend.tricomi_series(-3.0, 2.0)
    assert calls == []
    # reciprocal_gamma looks the kernel up by attribute, so a patched one sees its calls
    besselsums.reciprocal_gamma(0.5)
    assert calls == [0.5]


def test_public_names_resolve_once():
    names = besselsums.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(besselsums, name)] == []


def test_perfbench_tracer_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer().install()
    try:
        # the Wright kernel loop is gone: wright() sums through hybrid.h_wright;
        # the rules read the tabled weights, not laguerre2 or hermite_m; the
        # Hermite table runs its recurrence inline, with no per-degree helper
        assert tracer.missing == [
            "kernels.wright_series", "besselsums.rules.laguerre2", "besselsums.rules.hermite_m",
            "hybrid._hermite_ratio",
        ]
    finally:
        tracer.uninstall()


def test_perfbench_tracer_counts_kernel_terms(monkeypatch):
    # the tracer reads a kernel's term count as result[1], an engine sum's as
    # result.terms_used: a certificate must be a tuple with both
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    plan = load_plan(default_plan_path())
    first = dataclasses.replace(plan, entries=plan.entries[:1], parallelism=1)  # ASCENDING_GEN
    with tracing.Tracer() as tracer:
        report = run_plan(first)
    spans = tracer.snapshot()
    assert report.records and {rec.verdict for rec in report.records} == {Verdict.VERIFIED}
    assert spans["kernels.bessel_j_series"]["terms"] > 0
    assert spans["series.sum_series"]["terms"] > 0
