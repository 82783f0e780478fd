import collections
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from typing import NamedTuple
from unittest import mock

import mpmath
import pytest

from fekete import asym, energy
from fekete.cli import _format_scalar, cli
from fekete.energy import IntervalSpec
from fekete.precision import precision_mode, use

from _util import rel_close


class Result(NamedTuple):
    """One in-process run: ``output`` is stdout and stderr as written, with
    CRLF read as LF; ``stdout_bytes`` the raw stdout; ``exception`` what
    ended a run with a nonzero status (a SystemExit, or an uncaught error)."""

    output: str
    stdout_bytes: bytes
    exit_code: int
    exception: BaseException | None


class _Tee(io.StringIO):
    """A stream that also copies what it is given to ``both``."""

    def __init__(self, both):
        super().__init__(newline="")
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class Runner:
    """Runs a command-line function in this process, with its stdout and
    stderr captured and, for the call, ``env`` added to the environment;
    the program name in messages is the function's name."""

    def invoke(self, fn, args, env=None):
        both = io.StringIO(newline="")
        out, err = _Tee(both), _Tee(both)
        exit_code, exception = 0, None
        with mock.patch.dict(os.environ, env or {}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                fn(list(args), prog=fn.__name__)
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return Result(both.getvalue().replace("\r\n", "\n"), out.getvalue().encode(),
                      exit_code, exception)


@pytest.fixture()
def runner():
    return Runner()


#: every exact-side command, each kind, both modes; prints what it loaded of
#: numpy and scipy
_EXACT_SIDE = """
import sys
from fekete import cli, precision
from fekete.cli import KINDS, RunConfig
for mode in ("std", "ext"):
    precision.use(mode)
    cli.cmd_exact(RunConfig("exact", "pq", values=(5, 6), p=1.0, q=1.5))
    cli.cmd_exact(RunConfig("exact", "interval", values=(5, 6)))
    for kind in KINDS:
        cfg = RunConfig("verify", kind, values=(20, 40), p=1.0, q=1.5, order=2, a=-1.0, b=2.0)
        cli.cmd_coeffs(cfg)
        cli.cmd_table(cfg)
        cli.cmd_verify(cfg)
print(" ".join(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_exact_side_leaves_numpy_unloaded():
    # numpy and scipy are most of the import cost, and only the float64
    # kernels (zeros, std configuration energies, the minimizer) need them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", _EXACT_SIDE], env=env, timeout=120,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_solver_names_stay_public():
    import fekete
    import fekete.minimize

    from fekete import SolveReport, fekete_maximize

    assert fekete.minimize_potential is fekete.minimize.minimize_potential
    assert (SolveReport, fekete_maximize) == (fekete.minimize.SolveReport,
                                              fekete.minimize.fekete_maximize)
    namespace = {}
    exec("from fekete import *", namespace)
    assert set(fekete.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        fekete.no_such_name


def test_version_without_install(runner):
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


@pytest.mark.parametrize("args", [
    "exact --n 5 --p inf --q 1",
    "minimize --n 5 --p inf --q 1",
    "table --kind general-interval --n 10,20",
    "coeffs --kind general-interval --a 0 --b nan",
    "verify --kind potential --n 0,5 --p 1 --q 1",
    "verify --kind interval --N 20,20",
    "table --kind lambda --n 10,20",
    "verify --kind potential --n 20,40 --p 1 --q 1 --slope-tol nan",
    "verify --kind potential --n 20,40 --p 1 --q 1 --slope-tol -1",
    "verify --kind minimize --n 5,6 --tol nan",
    "verify --kind minimize --n 5,6 --tol -1",
])
def test_bad_input_is_a_usage_error(runner, args):
    result = runner.invoke(cli, args.split())
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("target, args, message", [
    ("fekete.jacobi.zeros", "zeros --n 100000000000 --p 1 --q 1",
     "cli zeros with n_range='100000000000', p=1.0, q=1.0"),
    ("fekete.minimize.minimize_potential", "verify --kind minimize --n 3000000000",
     "cli verify with kind='minimize', n_range='3000000000'"),
])
def test_memory_error_is_a_usage_error(runner, monkeypatch, target, args, message):
    # stands in for numpy failing to allocate a request this large
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    result = runner.invoke(cli, args.split())
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"not enough memory for {message}\n" in result.output


#: a valid call of each command that takes no charges of its own
_CHARGE_FREE = {
    "exact": "exact --N 2..4 --kind interval",
    "coeffs": "coeffs --kind interval --order 1",
    "table": "table --kind interval --n 20,40 --order 1",
    "zeros": "zeros --n 3",
    "minimize": "minimize --n 3",
    "verify": "verify --kind interval --n 20,40,80 --order 1",
}


@pytest.mark.parametrize("name", _CHARGE_FREE)
@pytest.mark.parametrize("charges, message", [
    ("--p 1", "--p and --q must be given together"),
    ("--alpha 1", "--alpha and --beta must be given together"),
    ("--p 1 --alpha 1", "give either --p/--q or --alpha/--beta, not both"),
], ids=["lone-p", "lone-alpha", "p-with-alpha"])
def test_every_command_checks_its_charges(runner, name, charges, message):
    # exact --kind interval used to ignore a lone --p, and --p with --alpha
    result = runner.invoke(cli, f"{_CHARGE_FREE[name]} {charges}".split())
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"error: {message}\n" in result.output


@pytest.mark.parametrize("args, flags", [
    ("exact --N 2..4 --p 1 --q 1", "--p/--q"),
    ("exact --N 2..4 --kind interval --alpha 1 --beta 1", "--alpha/--beta"),
    ("coeffs --kind interval --order 1 --p 1 --q 1", "--p/--q"),
    ("table --kind interval --n 20,40 --order 1 --p 1 --q 1", "--p/--q"),
    ("verify --kind interval --n 20,40,80 --order 1 --p 1 --q 1", "--p/--q"),
    ("verify --kind general-interval --a 0 --b 3 --n 20,40 --p 1 --q 1", "--p/--q"),
    ("coeffs --kind interval --order 1 --a 0", "--a"),
    ("table --kind potential --p 1 --q 1 --n 20,40 --a 0 --b 3", "--a/--b"),
    ("verify --kind minimize --n 3,4 --b 3", "--b"),
])
def test_kind_rejects_inputs_it_does_not_name(runner, args, flags):
    # these used to run and ignore the inputs
    result = runner.invoke(cli, args.split())
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"takes no {flags}\n" in result.output


#: extreme but finite charges: p x q over this grid
_P_GRID = ("1e-300", "1e-17", "1e-9", "0.5", "1", "1e8", "1e77", "1e200", "1e300", "1e308")
_Q_GRID = ("1e-300", "1", "1e300")
_HUGE = str(10 ** 160)
#: every command that takes charges, at small n and orders
_CHARGED = {
    "exact": "exact --n 2,3",
    "zeros": "zeros --n 5",
    "minimize": "minimize --n 5",
    "verify-minimize": "verify --kind minimize --n 3,5",
    **{f"{name}-{kind}": f"{name} --kind {kind} {extra}"
       for kind in ("lambda", "p1", "disc", "potential", "elliptic")
       for name, extra in (("coeffs", "--order 4"), ("table", "--n 10,20 --order 1"),
                           ("verify", "--n 10,20 --order 1"))},
}


def _assert_total(runner, args, mode):
    """The command exits 0, 1 or 2, with no traceback and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = runner.invoke(cli, [*args.split(), "--precision", mode])
        finally:
            use("std")
    assert result.exit_code in (0, 1, 2), args
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (args, result.exception)
    assert "Traceback" not in result.output, args


@pytest.mark.parametrize("mode", ["std", "ext"])
@pytest.mark.parametrize("name", _CHARGED)
def test_every_command_is_total_over_the_charge_grid(runner, name, mode):
    # charges of 1e77 and more overflow the tails and the Jacobi matrix in
    # float64, and charges of 1e-17 and less make the minimizer's Hessian
    # singular: each must end in a message or a report, not an exception
    for p in _P_GRID:
        for q in _Q_GRID:
            _assert_total(runner, f"{_CHARGED[name]} --p {p} --q {q}", mode)


@pytest.mark.parametrize("mode", ["std", "ext"])
@pytest.mark.parametrize("args", [
    *(f"{name} --kind general-interval --a {a} --b {b} {extra}"
      for a, b in (("-1e300", "1e300"), ("-1e300", "0"), ("0", "1e300"))
      for name, extra in (("coeffs", "--order 2"), ("table", "--n 10,20 --order 1"),
                          ("verify", "--n 10,20 --order 1"))),
    f"exact --n {_HUGE} --p 1 --q 1",
    f"exact --N {_HUGE} --kind interval",
    f"table --kind interval --n {_HUGE} --order 1",
    f"table --kind potential --p 1 --q 1 --n {_HUGE} --order 1",
    f"verify --kind interval --n 10,{_HUGE} --order 1",
    f"verify --kind potential --p 1 --q 1 --n 10,{_HUGE} --order 1",
    # numpy cannot index arrays of these sizes
    f"zeros --n {_HUGE} --p 1 --q 1",
    f"minimize --n {_HUGE} --p 1 --q 1",
    f"verify --kind minimize --n 3,{_HUGE} --p 1 --q 1",
], ids=lambda args: args.replace(_HUGE, "1e160"))
def test_every_command_is_total_at_extreme_ends_and_sizes(runner, args, mode):
    _assert_total(runner, args, mode)


class TestExact:
    def test_interval_range(self, runner):
        result = runner.invoke(cli, ["exact", "--N", "2..4", "--kind", "interval"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].strip() == "N,interval_energy,log_discriminant"
        rows = [line.strip().split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["2", "3", "4"]
        assert rel_close(float(rows[0][1]), -math.log(4), 1e-12)
        assert rel_close(float(rows[1][1]), -math.log(4), 1e-12)

    @pytest.mark.parametrize("precision", ["std", "ext"])
    def test_tiny_charges(self, runner, precision):
        # a tiny charge used to reach lgamma's pole through alpha = 2p - 1
        result = runner.invoke(cli, ["exact", "--n", "2", "--p", "1e-300", "--q", "1e-300",
                                     "--precision", precision])
        assert result.exit_code == 0, result.output
        row = result.output.strip().splitlines()[1].split(",")
        assert all(math.isfinite(float(v)) for v in row[1:])

    def test_pq_single(self, runner):
        result = runner.invoke(cli, ["exact", "--n", "1", "--p", "1", "--q", "1"])
        assert result.exit_code == 0
        row = result.output.strip().splitlines()[1].split(",")
        assert abs(float(row[1])) < 1e-12  # potential energy of one symmetric charge
        assert abs(float(row[2])) < 1e-12
        assert abs(float(row[3])) < 1e-12

    def test_empty_range_usage_error(self, runner):
        result = runner.invoke(cli, ["exact", "--n", "", "--p", "1", "--q", "1"])
        assert result.exit_code == 2

    def test_bad_range_usage_error(self, runner):
        result = runner.invoke(cli, ["exact", "--n", "5..2", "--p", "1", "--q", "1"])
        assert result.exit_code == 2

    def test_missing_charges_usage_error(self, runner):
        result = runner.invoke(cli, ["exact", "--n", "1..3"])
        assert result.exit_code == 2

    def test_both_charge_styles_rejected(self, runner):
        result = runner.invoke(
            cli, ["exact", "--n", "2", "--p", "1", "--q", "1", "--alpha", "1", "--beta", "1"])
        assert result.exit_code == 2

    def test_alpha_beta_derivation(self, runner):
        via_pq = runner.invoke(cli, ["exact", "--n", "2..5", "--p", "0.7", "--q", "1.3"])
        via_ab = runner.invoke(cli, ["exact", "--n", "2..5", "--alpha", "0.4", "--beta", "1.6"])
        assert via_pq.exit_code == 0 and via_ab.exit_code == 0
        assert via_pq.output == via_ab.output

    def test_alpha_beta_reach_the_jacobi_kinds_unrounded(self, runner):
        # through p = (alpha + 1)/2 and back, alpha = 0.1 came out as
        # 0.10000000000000009 and beta = 0.3 as 0.30000000000000004
        from fekete import jacobi
        from fekete.jacobi import JacobiParams

        coeffs = runner.invoke(cli, ["coeffs", "--kind", "lambda", "--alpha", "0.1",
                                     "--beta", "0.3", "--order", "1"])
        assert json.loads(coeffs.output)["params"] == {"alpha": 0.1, "beta": 0.3}
        zeros = runner.invoke(cli, ["zeros", "--n", "12", "--alpha", "0.1", "--beta", "0.3"])
        points = [float(line.split(",")[2]) for line in zeros.output.splitlines()[1:]]
        assert points == list(jacobi.zeros(12, JacobiParams(0.1, 0.3)).points)
        rounded = JacobiParams.from_charges((0.1 + 1) / 2, (0.3 + 1) / 2)
        assert points != list(jacobi.zeros(12, rounded).points)

    def test_interval_domain_error_is_usage_error(self, runner):
        result = runner.invoke(cli, ["exact", "--N", "1..2", "--kind", "interval"])
        assert result.exit_code == 2

    def test_each_closed_form_is_evaluated_once(self, runner, monkeypatch):
        # the log-discriminant column is the negated energy, not a second
        # evaluation through energy.pq_discriminant_log / discriminant_N_log
        calls = collections.Counter()
        for name in ("potential_energy_exact", "interval_energy_exact"):
            def counted(*args, _name=name, _original=getattr(energy, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(energy, name, counted)
        pq = runner.invoke(cli, ["exact", "--n", "1..40", "--p", "0.7", "--q", "1.3"])
        interval = runner.invoke(cli, ["exact", "--N", "2..41", "--kind", "interval"])
        assert pq.exit_code == 0 and interval.exit_code == 0
        assert calls == {"potential_energy_exact": 40, "interval_energy_exact": 40}
        monkeypatch.undo()
        for line in pq.output.splitlines()[1:]:
            n, value, _, disc = line.split(",")
            assert value == _format_scalar(energy.potential_energy_exact(int(n), 0.7, 1.3))
            assert disc == _format_scalar(energy.pq_discriminant_log(int(n), 0.7, 1.3))
        for line in interval.output.splitlines()[1:]:
            N, value, disc = line.split(",")
            assert disc == _format_scalar(energy.discriminant_N_log(int(N)))

    def test_pq_discriminant_is_minus_the_energy_at_large_n(self, runner):
        try:
            result = runner.invoke(
                cli, ["exact", "--n", "100000", "--p", "1", "--q", "1.5", "--precision", "ext"])
        finally:
            use("std")
        assert result.exit_code == 0, result.output
        row = result.output.strip().splitlines()[1].split(",")
        assert row[3] == "-" + row[1]


class TestCoeffs:
    def test_interval_payload(self, runner):
        result = runner.invoke(cli, ["coeffs", "--kind", "interval", "--order", "2"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["kind"] == "interval_E0"
        assert list(data["leading"]) == ["n2", "nlogn", "n", "logn", "const"]
        assert data["tail"][0] == 0.25
        log_a = math.log(1.2824271291006226)
        assert rel_close(data["leading"]["const"], 13 * math.log(2) / 12 - 3 * log_a, 1e-8)

    def test_potential_logn_coefficient(self, runner):
        result = runner.invoke(cli, ["coeffs", "--kind", "potential", "--p", "1", "--q", "1"])
        data = json.loads(result.output)
        assert data["leading"]["logn"] == -2.25

    def test_symmetric_pair_same_output(self, runner):
        one = runner.invoke(cli, ["coeffs", "--kind", "potential", "--p", "0.8", "--q", "0.8"])
        two = runner.invoke(cli, ["coeffs", "--kind", "potential", "--p", "0.8", "--q", "0.8"])
        assert one.output == two.output

    def test_order_capacity_usage_error(self, runner):
        result = runner.invoke(cli, ["coeffs", "--kind", "interval", "--order", "99"])
        assert result.exit_code == 2

    def test_general_interval(self, runner):
        result = runner.invoke(
            cli, ["coeffs", "--kind", "general-interval", "--a", "-2", "--b", "2"])
        data = json.loads(result.output)
        assert data["leading"]["n2"] == 0.0
        assert rel_close(data["leading"]["n"], -math.log(2), 1e-14)


class TestTableAndZeros:
    def test_table_columns(self, runner):
        result = runner.invoke(
            cli, ["table", "--kind", "interval", "--n", "20,40", "--order", "1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].strip() == "n,exact,truncated_0,error_0,truncated_1,error_1"
        assert len(lines) == 3

    def test_general_interval_table(self, runner):
        result = runner.invoke(
            cli, ["table", "--kind", "general-interval", "--a", "0", "--b", "3",
                  "--n", "10,20", "--order", "1"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["10", "20"]
        for row in rows:
            exact = energy.interval_energy_on(IntervalSpec(0, 3), int(row[0]))
            assert float(row[1]) == exact

    def test_zeros_output(self, runner):
        result = runner.invoke(cli, ["zeros", "--n", "2", "--p", "1", "--q", "1"])
        assert result.exit_code == 0
        rows = [line.strip().split(",") for line in result.output.strip().splitlines()[1:]]
        xs = [float(row[2]) for row in rows]
        assert xs[0] == pytest.approx(-1 / math.sqrt(5), abs=1e-12)
        assert xs[1] == pytest.approx(1 / math.sqrt(5), abs=1e-12)

    def test_zeros_at_tiny_charges(self, runner):
        # the exponents are -1 + 2e-9, where the gate used to reject the zeros
        result = runner.invoke(cli, ["zeros", "--n", "3", "--p", "1e-9", "--q", "1e-9"])
        assert result.exit_code == 0, result.output

    def test_minimize_json(self, runner):
        result = runner.invoke(
            cli, ["minimize", "--n", "2", "--p", "1", "--q", "1", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["converged"] is True
        assert data["stop"] == "step"
        assert data["step_norm"] <= 16 * sys.float_info.epsilon
        assert data["points"][1] == pytest.approx(1 / math.sqrt(5), abs=1e-8)

    @pytest.mark.parametrize("precision", ["std", "ext"])
    @pytest.mark.parametrize("p,q,key", [("1e-300", "2e-300", "step_norm"),
                                         ("1e308", "1e308", "energy")])
    def test_minimize_json_writes_non_finite_as_null(self, runner, precision, p, q, key):
        # a singular Hessian leaves the step NaN (unequal charges: p = q takes
        # the half-size route first); charges of 1e308 overflow the energy;
        # NaN and Infinity are no JSON tokens
        def reject(token):
            raise ValueError(f"not JSON: {token}")

        result = runner.invoke(cli, ["minimize", "--n", "5", "--p", p, "--q", q,
                                     "--format", "json", "--precision", precision])
        assert result.exit_code == 0, result.output
        data = json.loads(result.output, parse_constant=reject)
        assert data[key] is None
        assert all(isinstance(x, (float, str)) for x in data["points"])

    @pytest.mark.parametrize("precision", ["std", "ext"])
    def test_minimize_csv_digits(self, runner, precision):
        # every CSV writes its scalars through _format_scalar: 17 significant
        # digits in std (the shortest repr used to be written here)
        args = ["minimize", "--n", "5", "--p", "1", "--q", "1", "--precision", precision]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        xs = [line.split(",")[1] for line in result.output.splitlines()[1:]]
        points = json.loads(runner.invoke(cli, args + ["--format", "json"]).output)["points"]
        with precision_mode(precision):
            assert xs == [_format_scalar(float(x)) for x in points]
        if precision == "std":
            # 17 significant digits, not the shortest repr
            assert len(xs[0].lstrip("-").replace(".", "").lstrip("0")) == 17
            assert xs[0] != repr(float(xs[0]))


class TestVerify:
    def test_interval_slopes_pass(self, runner):
        result = runner.invoke(
            cli, ["verify", "--kind", "interval", "--N", "20,40,80,160", "--order", "2"])
        assert result.exit_code == 0
        slope_rows = [line for line in result.output.splitlines() if line.startswith("slope")]
        assert len(slope_rows) == 3
        assert all(row.strip().endswith("true") for row in slope_rows)

    def test_potential_slopes_pass(self, runner):
        result = runner.invoke(
            cli, ["verify", "--kind", "potential", "--p", "0.7", "--q", "1.3",
                  "--n", "20,40,80,160", "--order", "2"])
        assert result.exit_code == 0

    def test_general_interval_slopes_pass(self, runner):
        result = runner.invoke(
            cli, ["verify", "--kind", "general-interval", "--a", "0", "--b", "3",
                  "--N", "20,40,80,160", "--order", "2"])
        assert result.exit_code == 0
        slope_rows = [line for line in result.output.splitlines() if line.startswith("slope")]
        assert len(slope_rows) == 3
        assert all(row.strip().endswith("true") for row in slope_rows)

    def test_interval_slopes_pass_at_large_N_in_ext(self, runner):
        try:
            result = runner.invoke(
                cli, ["verify", "--kind", "interval", "--n", "12500,25000,50000,100000",
                      "--order", "3", "--precision", "ext"])
        finally:
            use("std")
        assert result.exit_code == 0, result.output

    def test_impossible_slope_tolerance_fails(self, runner):
        result = runner.invoke(
            cli, ["verify", "--kind", "interval", "--N", "20,40,80,160",
                  "--order", "1", "--slope-tol", "0.000001"])
        assert result.exit_code == 1

    def test_minimize_kind(self, runner):
        result = runner.invoke(cli, ["verify", "--kind", "minimize", "--n", "2..20"])
        assert result.exit_code == 0
        rows = [line for line in result.output.splitlines() if line.startswith("point")]
        assert len(rows) == 19
        assert all(row.strip().endswith("true") for row in rows)

    def test_minimize_kind_past_gradient_noise_floor(self, runner):
        result = runner.invoke(cli, ["verify", "--kind", "minimize", "--n", "100,150"])
        assert result.exit_code == 0
        rows = [line for line in result.output.splitlines() if line.startswith("point")]
        assert len(rows) == 2
        assert all(row.strip().endswith("true") for row in rows)

    def test_single_n_usage_error(self, runner):
        result = runner.invoke(cli, ["verify", "--kind", "interval", "--N", "20"])
        assert result.exit_code == 2

    def test_json_format(self, runner):
        result = runner.invoke(
            cli, ["verify", "--kind", "interval", "--N", "20,40,80", "--order", "0",
                  "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["ok"] is True
        records = {row["record"] for row in data["rows"]}
        assert records == {"point", "slope", "best"}


class TestOutputContracts:
    def test_csv_crlf(self, runner):
        # Result.output normalizes line endings; check the raw bytes
        result = runner.invoke(cli, ["exact", "--N", "2..3", "--kind", "interval"])
        assert b"\r\n" in result.stdout_bytes

    def test_deterministic_output(self, runner):
        args = ["exact", "--n", "2..20", "--p", "0.7", "--q", "1.3"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.output == second.output

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "rows.csv"
        result = runner.invoke(
            cli, ["exact", "--N", "2..3", "--kind", "interval", "--out", str(target)])
        assert result.exit_code == 0
        assert target.read_text().startswith("N,interval_energy")

    def test_out_to_a_directory(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["exact", "--N", "2..3", "--kind", "interval", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error: cannot write --out" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args", [
        *(f"{line} --format {fmt}" for fmt in ("csv", "json") for line in (
            "exact --N 2..4 --kind interval",
            "exact --n 2..4 --p 0.7 --q 1.3",
            "table --kind interval --n 20,40 --order 1",
            "zeros --n 3 --p 1 --q 1",
            "minimize --n 3 --p 1 --q 1",
            "verify --kind interval --n 20,40,80 --order 1",
            "verify --kind interval --n 20,40,80 --order 1 --slope-tol 0.000001",
        )),
        "coeffs --kind interval --order 2",
    ])
    def test_out_file_gets_the_stdout_bytes(self, runner, tmp_path, args):
        target = tmp_path / "out"
        to_stdout = runner.invoke(cli, args.split())
        to_file = runner.invoke(cli, [*args.split(), "--out", str(target)])
        assert to_stdout.exit_code == to_file.exit_code
        assert to_stdout.stdout_bytes
        assert to_file.stdout_bytes == b""
        assert target.read_bytes() == to_stdout.stdout_bytes

    def test_seventeen_digit_std(self, runner):
        result = runner.invoke(cli, ["exact", "--N", "4", "--kind", "interval"])
        value = result.output.strip().splitlines()[1].split(",")[1]
        assert float(value) == float(format(float(value), ".17g"))  # round-trips

    def test_precision_flag_ext(self, runner):
        result = runner.invoke(
            cli, ["exact", "--N", "4", "--kind", "interval", "--precision", "ext"])
        assert result.exit_code == 0
        value = result.output.strip().splitlines()[1].split(",")[1]
        # 32 significant digits printed in extended mode
        digits = value.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) >= 30
        assert rel_close(float(value), -0.27057660454883226, 1e-13)

    def test_precision_env_var(self, runner):
        result = runner.invoke(
            cli, ["exact", "--N", "4", "--kind", "interval"],
            env={"FEKETE_PRECISION": "ext"})
        assert result.exit_code == 0
        value = result.output.strip().splitlines()[1].split(",")[1]
        digits = value.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) >= 30

    def test_json_round_trip_expansion(self, runner):
        result = runner.invoke(
            cli, ["coeffs", "--kind", "potential", "--p", "1", "--q", "1", "--order", "4"])
        data = json.loads(result.output)
        from _util import expansion_from_json
        back = expansion_from_json(data)
        rebuilt = asym.potential_energy_expansion(1, 1, 4)
        assert back.tail == rebuilt.tail
        assert back.leading == rebuilt.leading


class TestFormatting:
    """The text of a value is what ``mpmath.nstr`` writes, byte for byte:
    the mode's digits on the CLI, the digits that recover the value in
    the JSON of an expansion."""

    @staticmethod
    def _values():
        rng = random.Random(5)
        values = [mpmath.mpf(v) for v in ("0", "-0.5", "1e-300", "-1e-300", "1e300", "-1e300",
                                          "3", "-17", "1e40", "0.1", "123456.789")]
        values += [mpmath.mpf(rng.uniform(-1, 1)) * mpmath.mpf(10) ** rng.randrange(-40, 40)
                   / 3 for _ in range(200)]
        # ints, and the floats of the std kernels (the minimizer's deviation)
        return values + [0, 7, -12345678901234567890, 0.0, -2.5e-17, 1e-300, 0.1]

    def test_format_scalar_matches_nstr(self):
        with precision_mode("ext"):
            for x in self._values():
                assert _format_scalar(x) == mpmath.nstr(mpmath.mpf(x), 32), x
        for x in self._values():
            assert _format_scalar(x) == format(float(x), ".17g"), x

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_json_scalar_matches_nstr(self, mode):
        with precision_mode(mode):
            digits = mpmath.libmp.repr_dps(mpmath.mp.prec)
            for x in self._values():
                if isinstance(x, mpmath.mpf):
                    assert asym._scalar_to_json(x) == mpmath.nstr(x, digits), x
                elif isinstance(x, float):
                    assert asym._scalar_to_json(x) is x
