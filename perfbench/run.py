#!/usr/bin/env python3
"""Run one benchmark workload against the package in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload verify_ext --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the ops of a round run back to back.
The run makes ``ceil(seconds / ROUND_S[workload])`` rounds (at least
MIN_ROUNDS), so every commit measures the same seeded ops.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
half as many rounds, each once untraced and once traced, and prints the
per-module metrics.  The end-to-end times are speed-normalised, so that
the speed of a shared host, which drifts by up to 1.7x within seconds,
does not decide the figures: while the untraced rounds run, a timer
signal times a short fixed probe every SAMPLE_S, and each op's time,
less the probes inside it, is scaled by ``PROBE_REF_S`` over the mean
probe time in and next to it; each set-up interpreter's time is scaled
likewise by a fixed reference interpreter started before and after it.
Every output is checked against the independent references in
``reference.py`` after the timed region.  The last stdout line is the
result object; the line before it is a report with the generated mix,
the tail percentile and the failure details.
"""
import argparse
import contextlib
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: nominal wall time of one round on a 2-vCPU x86-64 container, seconds
ROUND_S = {"verify_ext": 3.0, "exact_std": 4.0, "oracle": 6.0}
MIN_ROUNDS = 2
MODE = {"verify_ext": "ext", "exact_std": "std", "oracle": "std"}
SETUP_RUNS = 7
#: Normalised times are expressed at the speed of an unloaded 2-vCPU x86-64
#: container (Intel Xeon, 2.0 GHz nominal, Python 3.11), where the probe
#: takes PROBE_REF_S and the reference interpreter SETUP_REF_S.
PROBE_LOOPS = 1000
PROBE_MASK = (1 << 256) - 1
PROBE_REF_S = 0.3e-3
#: wall time between two speed samples
SAMPLE_S = 0.025
#: reference interpreter: no package code, but the same kind of start-up work
#: as SETUP_CODE (a C-extension import and pure-Python module imports)
SETUP_REF_CODE = "import numpy, decimal, asyncio, json, email.mime.multipart, fractions, statistics"
SETUP_REF_S = 0.27
#: what every fekete invocation pays before its first op: the import, and
#: through one small `fekete coeffs` the lazily built Bernoulli table,
#: Context constants and Gauss-Legendre rule
SETUP_CODE = """\
from fekete import cli, precision
precision.use({mode!r})
cli.cmd_coeffs(cli.RunConfig(command="coeffs", kind="potential", p=1.0, q=1.0, order=4))
"""
#: largest relative deviation (floor 1) from the reference an exact value may show
VALUE_TOL = {"ext": 1e-24, "std": 1e-9}
ZEROS_TOL = 1e-10
POINTS_TOL = 1e-8  # the `fekete verify --kind minimize` default
#: end-to-end metric -> (unit, better)
END_TO_END = {"setup_s": ("s", "lower"), "wall_s": ("s", "lower"),
              "op_p50_ms": ("ms", "lower"), "op_tail_ms": ("ms", "lower"),
              "peak_rss_mb": ("MiB", "lower")}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe() -> float:
    """Wall time of a fixed piece of interpreter work like the package's
    (dict stores, list and float allocation, 256-bit integer arithmetic):
    the machine's current speed."""
    start = time.perf_counter()
    table, x, big = {}, 1.0, 1
    for i in range(PROBE_LOOPS):
        table[i & 255] = [x, i]
        x = x * 1.0000001 + 0.5 / (i + 1)
        big = (big * 3 + i) & PROBE_MASK
    return time.perf_counter() - start


class Speedometer:
    """Speed samples taken while in use: every SAMPLE_S of wall time a
    SIGALRM handler runs :func:`probe` between two bytecodes of whatever
    runs, and records when it started and how long it took."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.times.append(probe())
        self.starts.append(start)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Latency of an op that ran from ``t0`` to ``t1``, less the samples
        taken inside it, and that latency normalised by the samples taken
        in it or within SAMPLE_S of it (the nearest one if there are none)."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        latency = t1 - t0 - sum(self.times[lo:hi])
        near = self.times[bisect_left(self.starts, t0 - SAMPLE_S):
                          bisect_right(self.starts, t1 + SAMPLE_S)]
        if not near:
            k = min(bisect_left(self.starts, t0), len(self.starts) - 1)
            near = self.times[max(k - 1, 0):k + 1]
        return latency, latency * PROBE_REF_S / statistics.mean(near)


def interpreter(code: str, env) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(mode: str) -> tuple[float, float]:
    """Median normalised and median raw wall time of fresh interpreters
    doing SETUP_CODE, each between two reference interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE.format(mode=mode)
    scaled, raw = [], []
    before = interpreter(SETUP_REF_CODE, env)
    for _ in range(SETUP_RUNS):
        raw.append(interpreter(code, env))
        after = interpreter(SETUP_REF_CODE, env)
        scaled.append(raw[-1] * 2 * SETUP_REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Executes ops through the package and checks their outputs."""

    def __init__(self, mode: str):
        from fekete import cli, energy, jacobi, minimize
        from fekete.cli import RunConfig
        from fekete.energy import Configuration
        from fekete.jacobi import JacobiParams
        import reference  # loads numpy: after main() pins BLAS
        self.cli, self.energy, self.jacobi, self.minimize = cli, energy, jacobi, minimize
        self.RunConfig, self.Configuration, self.JacobiParams = RunConfig, Configuration, JacobiParams
        self.ref = reference
        self.mode = mode
        self.speed_samples: list[float] = []

    def execute(self, op):
        if op.kind in ("verify", "exact", "table"):
            cfg = self.RunConfig(command=op.kind, kind=op.sub, values=op.values,
                                 p=op.p, q=op.q, order=op.order)
            return getattr(self.cli, f"cmd_{op.kind}")(cfg)
        if op.kind == "zeros":
            points = self.jacobi.zeros(op.n, self.JacobiParams.from_charges(op.p, op.q)).points
            return (points,
                    self.energy.potential_energy_config(self.Configuration(points, (op.p, op.q))),
                    self.energy.log_energy_config(self.Configuration(points)))
        if op.kind == "minimize":
            return self.minimize.minimize_potential(op.n, op.p, op.q,
                                                    max_iter=workloads.MINIMIZE_MAX_ITER)
        return self.minimize.fekete_maximize(op.n)

    def run_round(self, ops, tracer=None, first_op=0):
        """Per-op latencies, their normalised values and outputs (exceptions
        included).  Speed is sampled only when no tracer is given: the
        traced pass measures raw times.  The objects alive before the round,
        earlier outputs among them, are frozen out of garbage collection,
        as in a ``fekete`` process that runs one command."""
        gc.collect()
        gc.freeze()
        windows, outputs = [], []
        speedometer = Speedometer()
        with speedometer if tracer is None else contextlib.nullcontext():
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = first_op + i
                t0 = time.perf_counter()
                try:
                    out = self.execute(op)
                except Exception as exc:  # a raising op is a failed op; the run goes on
                    out = exc
                windows.append((t0, time.perf_counter()))
                outputs.append(out)
        if tracer is not None:
            latencies = [t1 - t0 for t0, t1 in windows]
            return latencies, latencies, outputs
        self.speed_samples += speedometer.times
        latencies, scaled = zip(*(speedometer.measure(t0, t1) for t0, t1 in windows))
        return list(latencies), list(scaled), outputs

    def _values(self, op, out):
        """(reported, reference) pairs for the values in a cli command's rows."""
        ref, rows = self.ref, out[1]
        if op.kind == "verify":
            firsts = {int(row[3]): row[4] for row in rows if row[0] == "point"}
            return [(v, ref.exact(op.sub, n, op.p, op.q)) for n, v in firsts.items()]
        if op.kind == "table":
            return [(row[1], ref.exact(op.sub, int(row[0]), op.p, op.q)) for row in rows]
        pairs = []
        for row in rows:
            n = int(row[0])
            if op.sub == "interval":
                expect = (ref.exact("interval", n), -ref.exact("interval", n))
            else:
                expect = [ref.exact(k, n, op.p, op.q) for k in ("potential", "elliptic", "pq_disc")]
            pairs += zip(row[1:], expect)
        return pairs

    def _solution(self, op, out):
        """Points, reference points and tolerance, (energy, reference) pairs, converged."""
        ref = self.ref
        if op.kind == "zeros":
            points, potential, log_energy = out
            return (points, ref.zeros(op.n, op.p, op.q), ZEROS_TOL,
                    [(potential, ref.exact("potential", op.n, op.p, op.q)),
                     (log_energy, ref.exact("elliptic", op.n, op.p, op.q))], True)
        if op.kind == "minimize":
            return (out.points, ref.zeros(op.n, op.p, op.q), POINTS_TOL,
                    [(out.energy, ref.exact("potential", op.n, op.p, op.q))], out.converged)
        inner = ref.zeros(op.n - 2, 1.0, 1.0) if op.n > 2 else ()
        return (out.points, (-1.0,) + inner + (1.0,), POINTS_TOL,
                [(out.energy, ref.exact("interval", op.n))], out.converged)

    def check(self, op, out):
        """(hard failure reason or None, soft failure, relative errors).

        Hard: the op raised, ``verify`` said ok=False, or an output is off
        the reference beyond tolerance.  Soft: a solve returned the right
        points but reported ``converged=False``.
        """
        if isinstance(out, Exception):
            return f"raised {out!r}", False, []
        if op.kind in ("verify", "exact", "table"):
            errs = [self.ref.rel_err(v, e) for v, e in self._values(op, out)]
            if op.kind == "verify" and not out[2]:
                return "verify ok=False", False, errs
            converged = True
        else:
            points, expect, point_tol, energies, converged = self._solution(op, out)
            if len(points) != len(expect):
                return f"{len(points)} points, expected {len(expect)}", False, []
            dev = max(abs(a - b) for a, b in zip(points, expect))
            errs = [self.ref.rel_err(v, e) for v, e in energies]
            if dev > point_tol:
                return f"points off the reference by {dev:.3g}", False, errs + [dev]
            errs.append(dev)
        worst = max(errs)
        if worst > VALUE_TOL[self.mode]:
            return f"off the reference by {worst:.3g} (relative)", False, errs
        return None, not converged, errs


def median_band(latencies):
    """The median latency, estimated as the mean of the middle fifth of the
    sorted latencies (40th to 60th percentile), so that the one or two ops
    that happen to sit at the median do not decide it."""
    ordered = sorted(latencies)
    k = len(ordered)
    return statistics.mean(ordered[int(0.4 * k):max(int(0.6 * k), int(0.4 * k) + 1)])


def tail(latencies):
    """Latency with ten ops beyond it, and its percentile."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def tally(runner: Runner, done):
    """Hard failure reasons, soft failure count and largest relative error
    over (op, output) pairs."""
    hard, soft, max_err = [], 0, 0.0
    for op, out in done:
        reason, is_soft, errs = runner.check(op, out)
        if reason:
            hard.append(f"{op}: {reason}")
        soft += is_soft
        max_err = max([max_err] + errs)
    return hard, soft, max_err


def timed_rounds(runner: Runner, rounds, tracer=None):
    """Run each round once untraced and, given a tracer, once traced,
    alternating which pass goes first.  A round's wall is the sum of its op
    latencies, so speed samples do not count.  Returns the
    untraced and traced round walls, the untraced normalised round walls,
    the untraced normalised op latencies and the (op, output) pairs."""
    walls, traced_walls, scaled_walls, scaled, done, first = [], [], [], [], [], 0
    for r, ops in enumerate(rounds):
        passes = (False,) if tracer is None else ((False, True) if r % 2 == 0 else (True, False))
        for traced in passes:
            if traced:
                tracer.install()
                try:
                    lat, _, outs = runner.run_round(ops, tracer, first)
                finally:
                    tracer.uninstall()
                traced_walls.append(sum(lat))
            else:
                lat, norm, outs = runner.run_round(ops)
                walls.append(sum(lat))
                scaled_walls.append(sum(norm))
                scaled += norm
            done += zip(ops, outs)
        first += len(ops)
    return walls, traced_walls, scaled_walls, scaled, done


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: BLAS pinned to one thread
    if not (SRC / "fekete" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fekete
    if Path(fekete.__file__).resolve().parent != SRC / "fekete":
        print(f"perfbench: imported fekete from {fekete.__file__}, not {SRC}", file=sys.stderr)
        return 2

    mode = MODE[args.workload]
    rounds_n = max(MIN_ROUNDS, math.ceil(args.seconds / ROUND_S[args.workload]))
    if args.trace:
        rounds_n = math.ceil(rounds_n / 2)
    rounds = workloads.generate(args.workload, args.seed, rounds_n)
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(mode)

    exec(SETUP_CODE.format(mode=mode), {})  # warm the lazy tables before timing
    runner = Runner(mode)
    tracer = spans.Tracer() if args.trace else None
    walls, traced_walls, scaled_walls, latencies, done = timed_rounds(runner, rounds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = time.perf_counter()
    hard, soft, max_err = tally(runner, done)
    check_s = time.perf_counter() - check_start
    attempted = len(done)
    fail_frac = (len(hard) + soft) / attempted

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds_n, "mix": workloads.describe(args.workload, rounds),
              "fail_frac": fail_frac, "max_rel_err": max_err,
              "hard_failures": hard[:5], "hard_failure_count": len(hard),
              "soft_failures": soft, "check_s": round(check_s, 3)}
    if args.trace:
        units = spans.metric_units()
        values = spans.layer_metrics(tracer, sum(traced_walls), sum(walls))
        values["check.fail_frac"] = fail_frac
        values["check.max_rel_err"] = max_err
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        tail_s, tail_pct = tail(latencies)
        report["op_tail"] = {"percentile": round(tail_pct, 3), "ops": len(latencies)}
        report["raw"] = {"setup_s": setup_raw_s, "wall_s": statistics.median(walls)}
        samples = sorted(runner.speed_samples)
        report["speed_samples"] = {"count": len(samples), "min_s": samples[0],
                                   "median_s": statistics.median(samples)}
        units = END_TO_END
        values = {"setup_s": setup_s, "wall_s": statistics.median(scaled_walls),
                  "op_p50_ms": 1e3 * median_band(latencies),
                  "op_tail_ms": 1e3 * tail_s, "peak_rss_mb": peak_rss_mb}
    metrics = {k: {"value": values[k], "unit": units[k][0]} for k in units}
    print(json.dumps(report))
    print(json.dumps({"correct": not hard, "attempted": attempted, "failed": len(hard),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
