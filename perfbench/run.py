#!/usr/bin/env python3
"""Benchmark of besselsums, run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep_shared --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that installs layer spans (``tracing.py``) and reports the
per-layer metrics.  The workloads and why each exists are in ``workloads.py``.

Requests form a closed loop from one client: the next starts when the previous
one has finished.  Only the call into the program is timed.  Every request's
records then pass the correctness gate; a failure is counted, never raised.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run information: machine, sample counts, tail percentiles, failures,
spans, and a reference-loop time taken at start and end that shows
machine-speed drift between runs (it rescales nothing).

The program is imported from ``src/`` of the checkout, pure Python as built
from source.  Scratch files go under ``.bench_build/perfbench/`` and are
removed at exit.  ``--scale`` and ``--perturb-rhs`` exist for the benchmark's
own check, ``test_perfbench.py``.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
import workloads

# Set-up probes in a fresh interpreter, spread evenly over an untraced run.
SETUP_PROBES = 15
INTERPRETER_PROBES = 5
CHILD_TIMEOUT_S = 120
# Share of --seconds a sweep workload spends on the CLI running its plan.
CLI_SHARE = 0.25
# Share of a traced run's --seconds spent untraced, for the tracing overhead.
UNTRACED_SHARE = 1 / 3

RULE_IDS = (
    "ASCENDING_GEN", "DESCENDING_GEN", "MULTIPLE_ORDER", "FRACTIONAL_ORDER",
    "BESSEL_LAGUERRE", "LAGUERRE_HERMITE", "GRAF_REAL", "GRAF_PHASE", "NEUMANN_EXT",
    "WEIGHTED_S", "WEIGHTED_E", "APPENDIX_DERIV",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "sweep_p50_s": "s",
    "sweep_tail_s": "s",
    "cli_p50_s": "s",
    "cli_tail_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "fraction",
}

# Span name -> the per-layer fields reported for it.
SPAN_FIELDS = {
    "kernels.bessel_j_series": ("calls", "terms", "self_s"),
    "kernels.tricomi_series": ("calls", "terms", "self_s"),
    "kernels.recip_gamma": ("calls", "self_s"),
    "kernels.wright_series": ("calls",),
    "functions.bessel_j": ("calls", "distinct_frac", "self_s"),
    "functions.tricomi_c": ("calls", "self_s"),
    "functions.laguerre2": ("calls", "self_s"),
    "functions.hermite_m": ("calls", "self_s"),
    "functions.wright": ("calls",),
    "series.sum_series": ("calls", "terms", "self_s"),
    "series.sum_bilateral": ("calls", "terms", "self_s"),
    "hybrid.h_tricomi": ("calls", "terms", "self_s"),
    "hybrid.l_tricomi": ("calls", "terms", "self_s"),
    "hybrid.h_wright": ("calls", "terms", "self_s"),
    "hybrid.hybrid_k": ("calls", "terms", "self_s"),
    "hybrid._hermite_ratio": ("calls", "self_s"),
    **{f"rules.{rule}": ("cases", "s") for rule in RULE_IDS},
}
_FIELD_UNITS = {"calls": "count", "terms": "count", "self_s": "s", "distinct_frac": "fraction",
                "cases": "count", "s": "s"}
LAYER_UNITS = {
    **{f"{span}.{f}": _FIELD_UNITS[f] for span, fields in SPAN_FIELDS.items() for f in fields},
    "plan.load_plan_s": "s",
    "plan.run_plan_overhead_s": "s",
    "plan.workers": "count",
    "plan.pool_efficiency": "fraction",
    "report.emit_json_s": "s",
    # varies by a few bytes with the digits of the report's wall_time
    "report.json_bytes": "bytes",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "fraction",
    "failed_frac": "fraction",
}

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def tail(samples):
    """The highest percentile with at least ten samples beyond it, and that
    percentile.  Below 20 samples that percentile is under the median, so the
    median is reported, as percentile 50."""
    s = sorted(samples)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return statistics.median(s), 50.0


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300_000):
            acc += (i % 7) * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_child(argv, **kwargs):
    """Run a child process to its end; returns ``(exit code, stdout)``.

    A timer kills a child that outlives CHILD_TIMEOUT_S.  This is not
    ``subprocess.run(timeout=...)``: with a timeout, ``Popen.wait`` polls with
    sleeps of up to 50 ms, which rounds every measured child time up to that
    step, so that medians jump by 50 ms between runs.
    """
    with subprocess.Popen(argv, **kwargs) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    return proc.returncode, stdout


def _python(root: Path, env, *args) -> str:
    """Standard output of ``python *args``, which must exit 0."""
    code, stdout = run_child([sys.executable, *args], cwd=root, env=env,
                             stdout=subprocess.PIPE, text=True)
    if code != 0:
        raise RuntimeError(f"python {' '.join(args[:2])} ... exited with {code}")
    return stdout


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_time(n, fn) -> float:
    return statistics.median(_timed(fn) for _ in range(n))


def _loop(seconds, request):
    """Call ``request`` (which returns its own measured time) until
    ``seconds`` have passed, at least once; returns the times."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(request())
    return times


class Bench:
    def __init__(self, root: Path, tmp: Path, opts):
        self.root = root
        self.tmp = tmp
        self.workload = opts.workload
        self.seed = opts.seed
        self.seconds = opts.seconds
        self.scale = opts.scale
        self.perturb = opts.perturb_rhs
        here = Path(__file__).resolve().parent
        self.env = dict(
            os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(here)]), TMPDIR=str(tmp)
        )
        self.checked = 0
        self.failed = 0
        self.failures = []
        self.reference = None
        self.reference_json = None
        self.info = {}

    # -- set-up ------------------------------------------------------------

    def setup(self):
        t0 = time.perf_counter()
        self.plan, self.plan_path = workloads.prepare(
            self.workload, self.seed, self.tmp, self.scale, self.perturb
        )
        own_setup_s = time.perf_counter() - t0
        import besselsums

        src = (self.root / "src").resolve()
        if src not in Path(besselsums.__file__).resolve().parents:
            raise RuntimeError(f"besselsums imported from {besselsums.__file__}, not from {src}")
        self.besselsums = besselsums
        self.cases = workloads.case_count(self.plan)
        self.expected = workloads.expected_records(self.plan)
        self.info.update(cases=self.cases, records=self.expected, setup_in_process_s=own_setup_s)
        # The serial in-process run that every other request must reproduce.
        self.reference, _ = self._run_plan(dataclasses.replace(self.plan, parallelism=1))
        if self.reference is not None:
            from besselsums.report import render_json

            self.reference_json = json.loads(render_json(self.reference))["records"]

    def setup_probe(self) -> float:
        """Set-up in a fresh interpreter: import besselsums, generate and load
        the plan (in a directory of its own, so the plan in use stays)."""
        probe_dir = self.tmp / "probe"
        probe_dir.mkdir(exist_ok=True)
        stdout = _python(self.root, self.env, "-c", _SETUP_PROBE, self.workload, str(self.seed),
                         str(probe_dir), str(self.scale))
        return float(stdout.split()[-1])

    # -- requests: each runs the program once, then the gate ---------------

    def _fail(self, count: int, why: str):
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(why)

    def _gate(self, verdicts, same_as_reference: bool):
        checked, bad = workloads.gate(verdicts, self.expected)
        self.checked += checked
        if bad:
            self._fail(bad, f"{bad} of {checked} records not VERIFIED or missing")
        if not same_as_reference:
            self._fail(1, "records differ from the serial in-process run")

    def _run_plan(self, plan):
        """One in-process run_plan: (report or None if it raised, seconds)."""
        from besselsums import plan as plan_mod

        t0 = time.perf_counter()
        try:
            report = plan_mod.run_plan(plan)  # looked up per call: tracing wraps it
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            report = None
            error = exc
        elapsed = time.perf_counter() - t0
        if report is None:
            self.checked += self.expected
            self._fail(self.expected, f"run_plan raised {type(error).__name__}: {error}")
            return None, elapsed
        same = self.reference is None or report.records == self.reference.records
        self._gate(((r.report_only, r.verdict.value) for r in report.records), same)
        return report, elapsed

    def _check_json_report(self, status, out: Path):
        """Gate a `verify --format json` result (``status`` 0 means it exited
        0); returns the parsed report."""
        if status != 0:
            self._fail(1, f"verify did not exit 0: {status}")
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
            records = doc["records"]
        except (OSError, ValueError, KeyError) as exc:
            self.checked += self.expected
            self._fail(self.expected, f"report unreadable: {exc}")
            return None
        same = self.reference_json is None or records == self.reference_json
        self._gate(((r["report_only"], r["verdict"]) for r in records), same)
        return doc

    def _verify_argv(self, out: Path):
        argv = ["verify", "--format", "json", "--out", str(out)]
        if self.workload != "cli_default":
            argv += ["--plan", str(self.plan_path)]
        return argv

    def cli_subprocess(self):
        """One `besselsums verify` subprocess: (wall seconds, the report's
        run_plan seconds)."""
        out = self.tmp / "report.json"
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code, _ = run_child(
            [sys.executable, "-m", "besselsums", *self._verify_argv(out)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )  # a child killed after CHILD_TIMEOUT_S exits with -9
        wall = time.perf_counter() - t0
        doc = self._check_json_report(code, out)
        return wall, (doc or {}).get("wall_time", wall)

    def cli_in_process(self) -> float:
        """The same command through `besselsums.cli.main` in this process."""
        from besselsums import cli

        out = self.tmp / "report.json"
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = cli.main(self._verify_argv(out))
        except Exception as exc:  # counted like a non-zero exit
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self._check_json_report(code, out)
        return elapsed

    def request(self, plan=None) -> float:
        """The workload's in-process request; returns its time."""
        if self.workload == "cli_default":
            return self.cli_in_process()
        return self._run_plan(plan or self.plan)[1]

    # -- runs ----------------------------------------------------------------

    def end_to_end(self):
        # Set-up probes, CLI runs and in-process runs are interleaved over the
        # whole run, so all of them see the same stretch of machine speed.
        cli_default = self.workload == "cli_default"
        sweep, cli, setup = [], [], []
        start = time.perf_counter()
        end = start + self.seconds
        while not (sweep and cli) or time.perf_counter() < end:
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_PROBES and elapsed >= len(setup) * self.seconds / SETUP_PROBES:
                setup.append(self.setup_probe())
            elif cli_default:
                wall, run_plan_s = self.cli_subprocess()
                cli.append(wall)
                sweep.append(run_plan_s)
            elif sweep and sum(cli) < CLI_SHARE * (sum(cli) + sum(sweep)):
                cli.append(self.cli_subprocess()[0])
            else:
                sweep.append(self.request())
        if cli_default:
            cases_per_s = self.cases * len(cli) / sum(cli)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            cases_per_s = self.cases * len(sweep) / sum(sweep)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sweep_tail, sweep_pct = tail(sweep)
        cli_tail, cli_pct = tail(cli)
        self.info.update(
            setup_samples=len(setup),
            sweep_samples=len(sweep), sweep_tail_percentile=sweep_pct,
            cli_samples=len(cli), cli_tail_percentile=cli_pct,
        )
        return {
            "setup_s": statistics.median(setup),
            "cases_per_s": cases_per_s,
            "sweep_p50_s": statistics.median(sweep),
            "sweep_tail_s": sweep_tail,
            "cli_p50_s": statistics.median(cli),
            "cli_tail_s": cli_tail,
            "peak_rss_mb": rss_kb / 1024.0,
            "verified_frac": 1.0 - self.failed / max(self.checked, 1),
        }

    def per_layer(self):
        untraced_s = self.seconds * UNTRACED_SHARE
        parallel = self.plan.parallelism != 1
        serial_plan = dataclasses.replace(self.plan, parallelism=1)
        serial, untraced = [], []

        def untraced_request():
            if parallel:  # pool efficiency compares the two on the same stretch
                serial.append(self.request(serial_plan))
            untraced.append(self.request())
            return untraced[-1]

        _loop(untraced_s, untraced_request)

        snapshots, traced = [], []
        with tracing.Tracer() as tracer:
            def traced_request():
                tracer.reset()
                traced.append(self.request())
                snapshots.append(tracer.snapshot())
                return traced[-1]

            _loop(self.seconds - untraced_s, traced_request)
        first = snapshots[0]
        counts = [{k: (v["calls"], v["terms"]) for k, v in s.items()} for s in snapshots]
        self.info.update(
            untraced_samples=len(untraced), traced_samples=len(traced),
            trace_sites_missing=tracer.missing,
            counts_stable=all(c == counts[0] for c in counts),
            spans=first,
        )

        def median_of(field, span):
            return statistics.median(s[span][field] for s in snapshots)

        metrics = {}
        for span, fields in SPAN_FIELDS.items():
            stats = first.get(span)
            for f in fields:
                if stats is None:  # the site is not in this version of the program
                    value = 0
                elif f == "self_s":
                    value = median_of("self_s", span)
                elif f == "s":
                    value = median_of("total_s", span)
                elif f == "cases":
                    value = stats["calls"]
                elif f == "distinct_frac":
                    value = stats["distinct"] / stats["calls"] if stats["calls"] else 0.0
                else:
                    value = stats[f]
                metrics[f"{span}.{f}"] = value

        rule_spans = [n for n in first if n.startswith("rules.")]
        metrics["plan.load_plan_s"] = _median_time(5, lambda: self.besselsums.load_plan(self.plan_path))
        metrics["plan.run_plan_overhead_s"] = statistics.median(
            s["plan.run_plan"]["total_s"] - sum(s[n]["total_s"] for n in rule_spans)
            for s in snapshots
        )
        workers = self.plan.parallelism or os.cpu_count() or 1
        metrics["plan.workers"] = workers
        metrics["plan.pool_efficiency"] = (
            statistics.median(serial) / (workers * statistics.median(untraced)) if parallel else 1.0
        )
        out = self.tmp / "emit.json"
        metrics["report.emit_json_s"] = _median_time(
            3, lambda: self.besselsums.emit_report(self.reference, fmt="json", path=out)
        )
        metrics["report.json_bytes"] = out.stat().st_size
        bare = _median_time(INTERPRETER_PROBES, lambda: _python(self.root, self.env, "-c", "pass"))
        metrics["cli.interpreter_s"] = bare
        metrics["cli.import_s"] = _median_time(
            INTERPRETER_PROBES, lambda: _python(self.root, self.env, "-c", "import besselsums.cli")
        ) - bare
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        metrics["failed_frac"] = self.failed / max(self.checked, 1)
        return metrics



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink generated plans (self-check only)")
    parser.add_argument("--perturb-rhs", type=float, default=0.0,
                        help="shift every right side of a generated plan (self-check only)")
    opts = parser.parse_args(argv)
    if not opts.seconds > 0 or not opts.scale > 0:
        parser.error("--seconds and --scale must be positive")
    if opts.perturb_rhs and opts.workload == "cli_default":
        parser.error("--perturb-rhs needs a generated plan, not cli_default")

    root = Path.cwd()
    if not (root / "src" / "besselsums" / "__init__.py").is_file():
        print(f"error: {root} is not a besselsums checkout (no src/besselsums)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    tempfile.tempdir = str(tmp)
    try:
        bench = Bench(root, tmp, opts)
        ref_start = reference_loop_s()
        bench.setup()
        metrics = bench.per_layer() if opts.trace else bench.end_to_end()
        ref_end = reference_loop_s()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = LAYER_UNITS if opts.trace else END_TO_END_UNITS
    info = dict(
        workload=opts.workload, seed=opts.seed, seconds=opts.seconds, trace=opts.trace,
        nproc=os.cpu_count(), python=platform.python_version(),
        implementation=platform.python_implementation(), machine=platform.machine(),
        backend=bench.besselsums.BACKEND, reference_loop_s=[ref_start, ref_end],
        attempted=bench.checked, failed=bench.failed,
        failed_frac=bench.failed / max(bench.checked, 1), failures=bench.failures,
        **bench.info,
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": bench.failed == 0,
        "attempted": max(bench.checked, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
