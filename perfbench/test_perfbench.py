"""Check of the benchmark itself: every workload runs at a tiny size and prints
every metric ``BENCHMARK.json`` names, with its unit; a plan whose right sides
are moved through the ``perturb_rhs`` hook makes the gate fail; and outside a
checkout the benchmark refuses to run.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(__file__).parent / "run.py"), "--seed", "3", "--seconds", "0.3",
         "--scale", "0.05", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return json.loads(info_line)["info"], result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    info, result = _result(_bench("--workload", workload, "--trace", str(trace)))
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: {"unit": m["unit"]} for name, m in result["metrics"].items()} == {
        s["name"]: {"unit": s["unit"]} for s in specs
    }
    assert result["correct"] and result["failed"] == 0
    assert info["backend"] and info["nproc"] >= 1 and info["seed"] == 3
    if not trace:
        assert result["metrics"]["verified_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_gate_fails_a_perturbed_plan(trace):
    info, result = _result(
        _bench("--workload", "sweep_distinct", "--trace", str(trace), "--perturb-rhs", "0.5")
    )
    assert not result["correct"]
    assert result["failed"] > 0
    assert info["failed_frac"] > 0
    if trace:
        assert result["metrics"]["failed_frac"]["value"] > 0
    else:
        assert result["metrics"]["verified_frac"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
