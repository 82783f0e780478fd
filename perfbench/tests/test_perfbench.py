"""Tests of the benchmark itself: generator, reference routes, checks, tracer."""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fekete import energy, jacobi, precision  # noqa: E402
from fekete.jacobi import JacobiParams  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_fixed_by_seed(workload):
    first = workloads.generate(workload, 7, 3)
    assert first == workloads.generate(workload, 7, 3)
    assert first[:2] == workloads.generate(workload, 7, 2)
    assert first != workloads.generate(workload, 8, 3)
    assert workloads.describe(workload, first) == workloads.describe(workload, first)


def test_verify_ops_stay_in_the_verifiable_region():
    for seed in range(20):
        for op in sum(workloads.generate("verify_ext", seed, 3), []):
            assert 3 <= op.order <= 8
            assert 320 <= op.n <= workloads.ext_cap(op.order)
            assert op.n ** (op.order + 3) <= 1e28
        verify_std = [op for op in sum(workloads.generate("exact_std", seed, 3), [])
                      if op.kind == "verify"]
        for op in verify_std:
            assert op.order <= 2 and 160 <= op.n <= 320
        for op in sum(workloads.generate("verify_ext", seed, 3), []) + verify_std:
            assert workloads.verifiable(op.sub, op.p, op.q)
            if op.sub != "interval":
                assert op.p in workloads.CHARGE_GRID and op.q in workloads.CHARGE_GRID
                assert op.n >= workloads.n_floor(op.sub, op.p, op.q) - 0.5


def test_log_pairs_cover_each_stratum_twice():
    import random
    ns = workloads._Sizes(random.Random(1)).log_pairs("site", 10.0, 1e4, 3)
    assert len(ns) == 6
    for s in range(3):
        lo, hi = 10.0 * 10 ** s, 10.0 * 10 ** (s + 1)
        assert sum(lo <= n <= hi for n in ns) == 2


def test_rounds_spread_each_site_evenly():
    import random
    sizes = workloads._Sizes(random.Random(1))
    draws = []
    for r in range(8):
        sizes.round = r
        draws.append(sizes.uniform("site"))
    offset = draws[0]
    assert sorted(int(8 * ((u - offset) % 1.0) + 1e-9) for u in draws) == list(range(8))


@pytest.mark.parametrize("mode", ["std", "ext"])
@pytest.mark.parametrize("n", [3, 17, 50])
def test_reference_agrees_with_the_package(mode, n):
    p, q = 0.75, 2.5
    params = JacobiParams.from_charges(p, q)
    tol = 1e-12 if mode == "std" else 1e-28
    with precision.precision_mode(mode):
        package = {
            "interval": energy.interval_energy_exact(n),
            "potential": energy.potential_energy_exact(n, p, q),
            "pq_disc": energy.pq_discriminant_log(n, p, q),
            "elliptic": energy.elliptic_log_energy_exact(n, p, q),
            "disc": jacobi.discriminant_log(n, params),
            "lambda": jacobi.leading_coeff_log(n, params),
            "p1": jacobi.value_at_one_log(n, params),
        }
    for kind, value in package.items():
        assert reference.rel_err(value, reference.exact(kind, n, p, q)) < tol, kind
    points = jacobi.zeros(n, params).points
    assert max(abs(a - b) for a, b in zip(points, reference.zeros(n, p, q))) < 1e-13


def test_speedometer_removes_and_normalises_by_its_samples():
    meter = run.Speedometer()
    meter.starts = [0.99, 1.05, 1.10, 2.0]
    meter.times = [0.001, 0.002, 0.002, 0.001]
    latency, scaled = meter.measure(1.0, 1.2)
    assert latency == pytest.approx(0.2 - 0.004)
    # samples within SAMPLE_S of the op count towards its speed
    assert scaled == pytest.approx(latency * run.PROBE_REF_S / (0.005 / 3))
    latency, scaled = meter.measure(1.5, 1.6)  # no sample near: the nearest ones
    assert latency == pytest.approx(0.1)
    assert scaled == pytest.approx(0.1 * run.PROBE_REF_S / 0.0015)


def test_median_band_and_tail():
    latencies = [float(k) for k in range(1, 101)]
    assert run.median_band(latencies) == pytest.approx(50.5)
    assert run.median_band([3.0]) == 3.0
    assert run.tail(latencies) == (90.0, 90.0)


def _runner(mode):
    precision.use(mode)
    return run.Runner(mode)


def test_perturbed_outputs_count_as_failures():
    runner = _runner("std")
    try:
        ops = [workloads.Op("exact", (40,), "pq", 1.25, 2.0),
               workloads.Op("zeros", (30,), "", 0.75, 1.5),
               workloads.Op("minimize", (20,), "", 1.0, 3.0)]
        done = [(op, runner.execute(op)) for op in ops]
        hard, soft, _ = run.tally(runner, done)
        assert hard == [] and soft == 0

        header, rows = done[0][1]
        bumped = [(rows[0][0], repr(float(rows[0][1]) * (1 + 1e-7))) + rows[0][2:]]
        points = list(done[1][1][0])
        points[3] += 1e-6
        report = dataclasses.replace(done[2][1], converged=False)
        perturbed = [(ops[0], (header, bumped)), (ops[1], (tuple(points),) + done[1][1][1:]),
                     (ops[2], report), (ops[0], RuntimeError("boom"))]
        hard, soft, _ = run.tally(runner, done + perturbed)
        assert len(hard) == 3 and soft == 1
        assert (len(hard) + soft) / len(done + perturbed) == 4 / 7
    finally:
        precision.use("std")


def test_verify_ok_false_is_a_hard_failure():
    runner = _runner("std")
    op = workloads.Op("verify", (20, 40, 80, 160), "interval", order=1)
    header, rows, ok = runner.execute(op)
    assert ok
    reason, soft, _ = runner.check(op, (header, rows, False))
    assert reason == "verify ok=False" and not soft


def test_tracer_spans_nest_and_restore_the_package():
    runner = _runner("std")
    ops = [workloads.Op("zeros", (40,), "", 0.75, 1.5),
           workloads.Op("minimize", (24,), "", 1.0, 2.0),
           workloads.Op("maximize", (12,)),
           workloads.Op("verify", (20, 40, 80, 160), "potential", 1.0, 2.0, 2),
           workloads.Op("table", (300,), "disc", 1.5, 0.75, 1)]
    original = jacobi.zeros
    tracer = spans.Tracer().install()
    try:
        assert jacobi.zeros is not original
        latencies, _, _ = runner.run_round(ops, tracer)
        wall = sum(latencies)
    finally:
        tracer.uninstall()
    assert jacobi.zeros is original
    assert tracer.spans
    own = spans.self_times(tracer.spans)
    assert min(own) > -1e-6
    assert sum(own) <= wall
    values = spans.layer_metrics(tracer, wall, wall)
    assert values["jacobi.zeros.calls"] == 1 and values["jacobi.zeros.roots"] == 40
    assert values["minimize.solve.calls"] == 2 and values["minimize.converged_frac"] == 1
    assert values["cli.cmd.calls"] == 2 and values["asym.build.calls"] == 2
    assert set(values) | {"check.fail_frac", "check.max_rel_err"} == set(spans.metric_units())
    assert values["trace.unattributed_frac"] >= 0


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == spans.metric_units()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
