"""The scalar kernels in ``besselsums.backend``.

The pinned table holds kernel outputs as ``(value.hex(), terms_used,
last_term_magnitude.hex(), converged)``, recorded when the Bessel and Tricomi
kernels still ran two separate loops; the shared loop must reproduce them bit
for bit.
"""

import math
from pathlib import Path

import pytest

import besselsums
from besselsums import SummationPolicy, backend, bessel_j, tricomi_c
from besselsums.series import EvaluationDomainError

POLICY_ARGS = (1e-14, 1e-12, 400, 3)
EIGHT_TERMS = (1e-14, 1e-12, 8, 3)

PINNED = [
    # k0 = 0
    ("bessel_j_series", 0.5, 1.0, POLICY_ARGS,
     ("0x1.57c14f27a1dc6p-1", 10, "0x1.e3fa3c245f925p-58", True)),
    ("bessel_j_series", 11.25, 6.0, POLICY_ARGS,
     ("0x1.8512214c114aep-10", 15, "0x1.02b299da9ed96p-59", True)),
    # k0 even, k0 odd
    ("bessel_j_series", -2.0, 3.0, POLICY_ARGS,
     ("0x1.f1c1e84c59ec7p-2", 14, "0x1.821f585c26a59p-57", True)),
    ("bessel_j_series", -3.0, 2.5, POLICY_ARGS,
     ("-0x1.bb98fc5e82abbp-3", 13, "0x1.85c3fc9ebf0a1p-61", True)),
    # integer nu with x < 0
    ("bessel_j_series", 2.0, -1.7, POLICY_ARGS,
     ("0x1.20802c5da89aep-2", 12, "0x1.806526df87b9bp-64", True)),
    ("bessel_j_series", -5.0, -4.2, POLICY_ARGS,
     ("0x1.3fc463094efb9p-3", 15, "0x1.2b0773af9502ap-58", True)),
    # x = +-0.0
    ("bessel_j_series", 1.0, 0.0, POLICY_ARGS,
     ("0x0.0p+0", 3, "0x0.0p+0", True)),
    ("bessel_j_series", 1.0, -0.0, POLICY_ARGS,
     ("0x0.0p+0", 3, "0x0.0p+0", True)),
    # budget of 8 terms runs out
    ("bessel_j_series", 0.0, 9.5, EIGHT_TERMS,
     ("-0x1.01689a3b5e8a4p+5", 8, "0x1.d4b734bf5d114p+6", False)),
    # alpha = -3 (k0 odd), both signs of x
    ("tricomi_series", -3.0, 2.0, POLICY_ARGS,
     ("-0x1.9287ceca38d6ap-1", 13, "0x1.e281a409e08fap-55", True)),
    ("tricomi_series", -3.0, -0.7, POLICY_ARGS,
     ("0x1.161d50d83500ep-4", 11, "0x1.fa35cdcd0fb5fp-62", True)),
    ("tricomi_series", 0.5, 4.0, POLICY_ARGS,
     ("-0x1.b53a446e8ed0ep-3", 17, "0x1.61c07dc1de43dp-59", True)),
    ("tricomi_series", 2.0, -0.0, POLICY_ARGS,
     ("0x1.0000000000000p-1", 4, "0x0.0p+0", True)),
    ("tricomi_series", 1.5, 30.0, EIGHT_TERMS,
     ("-0x1.58b69b4e3a439p+3", 8, "0x1.2300627cf5fd7p+5", False)),
]


@pytest.mark.parametrize("kernel, order, x, policy_args, expected", PINNED)
def test_kernel_output_pinned(kernel, order, x, policy_args, expected):
    value, terms, last_mag, converged = getattr(backend, kernel)(order, x, *policy_args)
    assert (value.hex(), terms, last_mag.hex(), converged) == expected


@pytest.mark.parametrize("kernel", ["bessel_j_series", "tricomi_series"])
def test_overflow_sentinel(kernel):
    # 1/Gamma(-199.5) overflows: the kernel hands back the nan sentinel
    value, terms, last_mag, converged = getattr(backend, kernel)(-200.5, 5.0, *POLICY_ARGS)
    assert math.isnan(value)
    assert (terms, last_mag, converged) == (1, math.inf, False)


@pytest.mark.parametrize("function", [bessel_j, tricomi_c])
def test_overflow_sentinel_raises_at_first_term(function):
    with pytest.raises(EvaluationDomainError) as info:
        function(-200.5, 5.0, SummationPolicy(*POLICY_ARGS))
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
    backend.bessel_j_series(0.5, 1.0, *POLICY_ARGS)
    backend.tricomi_series(-3.0, 2.0, *POLICY_ARGS)
    backend.wright_series(0.5, 0.5, 1.0, *POLICY_ARGS)
    assert calls == []


def test_perfbench_tracer_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
