"""Layer spans recorded from outside the program.

A ``Tracer`` replaces functions at the module attributes their callers read
with wrappers that count calls, summed terms and time.  ``rules`` imports the
function families, the composites and the summation engine by name and
``hybrid`` imports ``sum_series`` by name, so each importer's attribute is
wrapped as well as the defining module's.  The rule runners are wrapped in the
``RULES`` registry the plan runner reads.

Spans are aggregated in memory per name (no output while a sweep runs) and
read out with ``snapshot`` when the benchmark is done with a sweep.  A span's
self time is its time minus the time of the spans it called.  Wrappers see
only this process: worker processes of the plan runner keep their own copies.
"""

import dataclasses
import importlib
import time


def _kernel_terms(raw):
    return raw[1]


def _series_terms(result):
    return result.terms_used


# span name, defining module, attribute, modules that import it by name, terms
SITES = (
    # The pure kernels call their own recip_gamma directly, so
    # kernels.recip_gamma counts only the calls made through ``backend``.
    ("kernels.bessel_j_series", "besselsums.backend", "bessel_j_series", (), _kernel_terms),
    ("kernels.tricomi_series", "besselsums.backend", "tricomi_series", (), _kernel_terms),
    ("kernels.recip_gamma", "besselsums.backend", "recip_gamma", (), None),
    ("kernels.wright_series", "besselsums.backend", "wright_series", (), _kernel_terms),
    ("functions.bessel_j", "besselsums.functions", "bessel_j", ("besselsums.rules",), None),
    ("functions.tricomi_c", "besselsums.functions", "tricomi_c", ("besselsums.rules",), None),
    ("functions.laguerre2", "besselsums.functions", "laguerre2", ("besselsums.rules",), None),
    ("functions.hermite_m", "besselsums.functions", "hermite_m", ("besselsums.rules",), None),
    ("functions.wright", "besselsums.functions", "wright", (), None),
    (
        "series.sum_series", "besselsums.series", "sum_series",
        ("besselsums.rules", "besselsums.hybrid"), _series_terms,
    ),
    ("series.sum_bilateral", "besselsums.series", "sum_bilateral", ("besselsums.rules",), _series_terms),
    ("hybrid.h_tricomi", "besselsums.hybrid", "h_tricomi", ("besselsums.rules",), _series_terms),
    ("hybrid.l_tricomi", "besselsums.hybrid", "l_tricomi", ("besselsums.rules",), _series_terms),
    ("hybrid.h_wright", "besselsums.hybrid", "h_wright", ("besselsums.rules",), _series_terms),
    ("hybrid.hybrid_k", "besselsums.hybrid", "hybrid_k", ("besselsums.rules",), _series_terms),
    ("hybrid._hermite_ratio", "besselsums.hybrid", "_hermite_ratio", (), None),
    ("plan.load_plan", "besselsums.plan", "load_plan", ("besselsums.cli",), None),
    ("plan.run_plan", "besselsums.plan", "run_plan", ("besselsums.cli",), None),
)

# Spans whose distinct argument tuples are counted, per sweep.
DISTINCT = ("functions.bessel_j",)


class SpanStats:
    __slots__ = ("calls", "terms", "total_s", "self_s", "keys")

    def __init__(self):
        self.calls = 0
        self.terms = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.keys = set()


class Tracer:
    """Installs span wrappers; use as a context manager to restore the
    originals on exit."""

    def __init__(self):
        self.spans = {}
        self.missing = []  # sites this version of the program does not have
        self._stack = []  # time spent in child spans, one slot per open span
        self._restore = []

    def wrap(self, name, fn, terms=None):
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        keys = stats.keys if name in DISTINCT else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
            if terms is not None:
                stats.terms += terms(out)
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
            return out

        return traced

    def _patch(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        for name, home, attr, importers, terms in SITES:
            home_mod = importlib.import_module(home)
            if not hasattr(home_mod, attr):
                self.missing.append(name)
                continue
            wrappers = {}  # one wrapper per distinct function object
            for mod_name in (home, *importers):
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn, terms)
                self._patch(mod, attr, wrappers[id(fn)])
        from besselsums import rules

        for rule_id, schema in list(rules.RULES.items()):
            traced = self.wrap(f"rules.{rule_id.value}", schema.run)
            self._restore.append((rules.RULES, rule_id, schema))
            rules.RULES[rule_id] = dataclasses.replace(schema, run=traced)
        return self

    def uninstall(self):
        while self._restore:
            target, key, original = self._restore.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self):
        for stats in self.spans.values():
            stats.calls = stats.terms = 0
            stats.total_s = stats.self_s = 0.0
            stats.keys.clear()  # the wrappers hold this set

    def snapshot(self) -> dict:
        """Per-span figures since the last reset."""
        out = {}
        for name, s in self.spans.items():
            out[name] = {
                "calls": s.calls,
                "terms": s.terms,
                "self_s": s.self_s,
                "total_s": s.total_s,
                "distinct": len(s.keys),
            }
        return out
