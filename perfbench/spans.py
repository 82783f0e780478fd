"""Span tracing of the package's public entry points, from outside the package.

:class:`Tracer` replaces each entry point, in every ``fekete`` module that
binds it, by a wrapper that records a span: name, start, end, parent span,
op id, the call's size n (or argument) and a note taken from its result.
Spans stay in memory; :meth:`Tracer.dump` writes them out once the run
ends, and :func:`layer_metrics` turns them into per-module metrics.  Self
time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict


def _first(*args, **_):
    return args[0]


def _n_points(config, *_, **__):
    return len(config.points)


def _solve_note(report):
    return [report.iterations, report.converged]


ENERGY_EXACT = ("potential_energy_exact", "elliptic_log_energy_exact",
                "interval_energy_exact", "discriminant_N_log", "pq_discriminant_log")
ASYM_BUILD = ("leading_coeff_expansion", "value_at_one_expansion", "discriminant_expansion",
              "potential_energy_expansion", "elliptic_log_energy_expansion",
              "interval_energy_expansion", "general_interval_energy_expansion")
CLI_CMD = ("cmd_exact", "cmd_coeffs", "cmd_table", "cmd_verify", "cmd_zeros", "cmd_minimize")

#: (module, attribute, span name, size-or-argument extractor, result note)
ENTRY_POINTS = (
    [("fekete.jacobi", "zeros", "jacobi.zeros", _first, None),
     ("fekete.jacobi", "discriminant_log", "jacobi.discriminant_log", _first, None),
     ("fekete.jacobi", "leading_coeff_log", "jacobi.leading_coeff_log", _first, None),
     ("fekete.jacobi", "value_at_one_log", "jacobi.value_at_one_log", _first, None),
     ("fekete.energy", "log_energy_config", "energy.config", _n_points, None),
     ("fekete.energy", "potential_energy_config", "energy.config", _n_points, None),
     ("fekete.minimize", "minimize_potential", "minimize.solve", _first, _solve_note),
     ("fekete.specfun", "negapolygamma2", "specfun.negapolygamma2", str, None),
     ("fekete.specfun", "log_gamma", "specfun.log_gamma", None, None),
     ("fekete.specfun", "bernoulli_table", "specfun.bernoulli_table", None, None),
     ("fekete.asym", "evaluate_expansion", "asym.evaluate", None, None)]
    + [("fekete.energy", f, "energy.exact", _first, None) for f in ENERGY_EXACT]
    + [("fekete.asym", f, "asym.build", None, None) for f in ASYM_BUILD]
    + [("fekete.cli", f, "cli.cmd", None, None) for f in CLI_CMD]
)
#: entry points that are only counted: a span per call would cost more than they do
COUNTED = (("fekete.precision", "active", "precision.active"),)


class Tracer:
    """Records spans around the entry points while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, size, note]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, name, fn, size, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                   size(*args, **kwargs) if size else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note:
                rec[6] = note(result)
            return result
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every fekete module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fekete" or mod_name.startswith("fekete.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> "Tracer":
        """Wrap every entry point the package still has; a missing one reads 0."""
        for mod_name, attr, name, size, note in ENTRY_POINTS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is not None:
                self._replace(original, self._span(name, original, size, note))
        for mod_name, attr, name in COUNTED:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is not None:
                self._replace(original, self._counter(name, original))
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "size", "note")
        with open(path, "w") as handle:
            for rec in self.spans:
                handle.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def fit_exponent(sizes, times) -> float:
    """Least-squares slope of log(median time per size) against log(size)."""
    by_size = defaultdict(list)
    for n, t in zip(sizes, times):
        if n and n > 0 and t > 0:
            by_size[n].append(t)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(n) for n in by_size]
    ys = [math.log(statistics.median(ts)) for ts in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


SPAN_NAMES = ("jacobi.zeros", "energy.config", "minimize.solve", "jacobi.discriminant_log",
              "energy.exact", "jacobi.leading_coeff_log", "jacobi.value_at_one_log",
              "specfun.negapolygamma2", "specfun.log_gamma", "specfun.bernoulli_table",
              "asym.build", "asym.evaluate", "cli.cmd")
SIZED = {"jacobi.zeros": ("roots", lambda n: n),
         "energy.config": ("pairs", lambda n: n * (n - 1) // 2),
         "jacobi.discriminant_log": ("terms", lambda n: 4 * n)}
FITTED = ("jacobi.zeros", "energy.config", "jacobi.discriminant_log", "energy.exact")


def metric_units() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in the order BENCHMARK.json lists them."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
        units[f"{name}.share"] = ("frac", "lower")
        if name in SIZED:
            units[f"{name}.{SIZED[name][0]}"] = ("count", "lower")
        if name in FITTED:
            units[f"{name}.exp"] = ("exponent", "lower")
    units.update({
        "minimize.iterations": ("count", "lower"),
        "minimize.converged_frac": ("frac", "higher"),
        "minimize.energy_evals_per_iter": ("evals/iter", "lower"),
        "specfun.negapolygamma2.distinct_frac": ("frac", "lower"),
        "precision.active.calls": ("count", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead_frac": ("frac", "lower"),
        "trace.unattributed_frac": ("frac", "lower"),
        "check.fail_frac": ("frac", "lower"),
        "check.max_rel_err": ("rel", "lower"),
    })
    return units


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-module totals over the traced rounds.

    ``traced_wall`` is the summed wall time of the traced rounds, the base
    of every ``share``; ``untraced_wall`` the same rounds run untraced.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        idx = by_name.get(name, [])
        self_s = sum(own[i] for i in idx)
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = self_s / traced_wall
        if name in SIZED:
            label, work = SIZED[name]
            out[f"{name}.{label}"] = sum(work(spans[i][5]) for i in idx)
        if name in FITTED:
            out[f"{name}.exp"] = fit_exponent([spans[i][5] for i in idx], [own[i] for i in idx])
    solves = by_name.get("minimize.solve", [])
    iterations = sum(spans[i][6][0] for i in solves)
    out["minimize.iterations"] = iterations
    out["minimize.converged_frac"] = (sum(spans[i][6][1] for i in solves) / len(solves)
                                      if solves else 1.0)
    in_solve = sum(1 for i in by_name.get("energy.config", []) if _under(spans, i, "minimize.solve"))
    out["minimize.energy_evals_per_iter"] = in_solve / iterations if iterations else 0.0
    args = [spans[i][5] for i in by_name.get("specfun.negapolygamma2", [])]
    out["specfun.negapolygamma2.distinct_frac"] = len(set(args)) / len(args) if args else 0.0
    out["precision.active.calls"] = tracer.counts["precision.active"]
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    out["trace.unattributed_frac"] = 1 - sum(out[f"{name}.share"] for name in SPAN_NAMES)
    return out


def _under(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
