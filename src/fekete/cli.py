"""Command-line front end.

Emits exact values, expansion coefficients, convergence tables and
verification reports as CSV (RFC-4180-style) or JSON.  Exit status: 0 on
success, 1 on verification failure, 2 on usage errors.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import mpmath
from mpmath.libmp import to_str

from . import __version__, asym, energy, jacobi
from .energy import IntervalSpec
from .exceptions import FeketeError, check_finite_above
from .jacobi import JacobiParams
from .precision import STD, active, use


class UsageError(Exception):
    """A request the command line cannot run: reported with the command's
    usage, exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: command, ranges, charges, order, tolerances."""

    command: str
    kind: str
    values: tuple[int, ...] = ()
    p: float | None = None
    q: float | None = None
    order: int = 0
    a: float | None = None
    b: float | None = None
    tol: float = 1e-8  # verify --kind minimize: the points' deviation from the zeros
    slope_tol: float = 0.15
    # --alpha/--beta as given: p and q are (alpha + 1)/2 and (beta + 1)/2
    alpha: float | None = None
    beta: float | None = None

    @property
    def params(self) -> JacobiParams | None:
        """The Jacobi exponents: --alpha/--beta unrounded where given, else
        2p - 1 and 2q - 1 in float64; None without charges."""
        if self.alpha is not None:
            return JacobiParams(self.alpha, self.beta)
        return None if self.p is None else JacobiParams.from_charges(self.p, self.q)


def _parse_range(text: str | None, flag: str) -> tuple[int, ...]:
    """Parse 'a..b' (inclusive) or a comma list of integers."""
    if text is None or not text.strip():
        raise UsageError(f"empty range for {flag}")
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError("descending range")
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse range {text!r} for {flag}: {exc}") from exc


def _resolve_charges(p, q, alpha, beta, required: bool) -> tuple:
    """The charges of exactly one of (p, q) / (alpha, beta), or (None, None)
    if not required."""
    has_pq = p is not None or q is not None
    has_ab = alpha is not None or beta is not None
    if has_pq and has_ab:
        raise UsageError("give either --p/--q or --alpha/--beta, not both")
    if has_pq:
        if p is None or q is None:
            raise UsageError("--p and --q must be given together")
        return float(p), float(q)
    if has_ab:
        if alpha is None or beta is None:
            raise UsageError("--alpha and --beta must be given together")
        return (alpha + 1) / 2, (beta + 1) / 2
    if required:
        raise UsageError("this command needs --p/--q (or --alpha/--beta)")
    return None, None


def _format_scalar(x) -> str:
    """17 significant digits in ``std``; in ``ext`` the mode's digits, as
    ``mpmath.nstr`` writes them, of another number (a float of the std
    kernels) rounded at the mode's precision, not mpmath's working one."""
    ctx = active()
    if ctx.mode == STD:
        return format(float(x), ".17g")
    return to_str((x if isinstance(x, mpmath.mpf) else mpmath.mpf(x, prec=ctx.prec))._mpf_, ctx.dps)


def _json_scalar(x):
    """A float64 for JSON: the number in ``std``, the mode's digits in ``ext``,
    and null where it is NaN or infinite, which JSON cannot write."""
    if not math.isfinite(x):
        return None
    return float(x) if active().mode == STD else _format_scalar(x)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        handle = open(out, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    with handle:
        handle.write(text)


# -- command implementations (testable without the option layer) --------------


class Kind(NamedTuple):
    """A quantity: ``exact(n, *inputs)``, ``expansion(order, *inputs)``,
    with ``inputs`` the values of the named :class:`RunConfig` fields."""

    inputs: tuple[str, ...]
    exact: Callable
    expansion: Callable


_CHARGES = ("p", "q")
#: the Jacobi kinds' one input, :attr:`RunConfig.params`, set by the charge options
_JACOBI = ("params",)
# The lambdas look the package functions up at call time, so a wrapper
# installed on a module attribute (a tracer, a mock) sees every call.
KINDS = {
    "lambda": Kind(_JACOBI, lambda n, params: jacobi.leading_coeff_log(n, params),
                   lambda order, params: asym.leading_coeff_expansion(params, order)),
    "p1": Kind(_JACOBI, lambda n, params: jacobi.value_at_one_log(n, params),
               lambda order, params: asym.value_at_one_expansion(params, order)),
    "disc": Kind(_JACOBI, lambda n, params: jacobi.discriminant_log(n, params),
                 lambda order, params: asym.discriminant_expansion(params, order)),
    "potential": Kind(_CHARGES, lambda n, p, q: energy.potential_energy_exact(n, p, q),
                      lambda order, p, q: asym.potential_energy_expansion(p, q, order)),
    "elliptic": Kind(_CHARGES, lambda n, p, q: energy.elliptic_log_energy_exact(n, p, q),
                     lambda order, p, q: asym.elliptic_log_energy_expansion(p, q, order)),
    "interval": Kind((), lambda n: energy.interval_energy_exact(n),
                     lambda order: asym.interval_energy_expansion(order)),
    "general-interval": Kind(
        ("a", "b"), lambda n, a, b: energy.interval_energy_on(IntervalSpec(a, b), n),
        lambda order, a, b: asym.general_interval_energy_expansion(a, b, order)),
}


#: exact --kind -> its header, and the KINDS whose exact values fill a row
_EXACT = {
    "interval": (("N", "interval_energy", "log_discriminant"), ("interval",)),
    "pq": (("n", "potential_energy", "elliptic_log_energy", "log_pq_discriminant"),
           ("potential", "elliptic")),
}


def cmd_exact(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    # the last column, a log-discriminant, is the first value negated
    # (energy.discriminant_N_log, energy.pq_discriminant_log), not evaluated again
    header, names = _EXACT[cfg.kind]
    rows = []
    for n in cfg.values:
        values = [KINDS[k].exact(n, *(getattr(cfg, f) for f in KINDS[k].inputs)) for k in names]
        rows.append((str(n), *map(_format_scalar, values), _format_scalar(-values[0])))
    return header, rows


def _kind(cfg: RunConfig) -> tuple[Kind, tuple]:
    """The table entry for ``cfg.kind`` and the inputs its functions take."""
    kind = KINDS.get(cfg.kind)
    if kind is None:
        raise UsageError(f"unknown kind {cfg.kind!r}")
    inputs = tuple(getattr(cfg, name) for name in kind.inputs)
    if None in inputs:
        flags = _CHARGES if kind.inputs == _JACOBI else kind.inputs
        raise UsageError(f"kind {cfg.kind!r} needs --{'/--'.join(flags)}")
    return kind, inputs


def cmd_coeffs(cfg: RunConfig) -> dict:
    kind, inputs = _kind(cfg)
    return asym.expansion_to_json(kind.expansion(cfg.order, *inputs))


def cmd_table(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    kind, inputs = _kind(cfg)
    expansion = kind.expansion(cfg.order, *inputs)
    header = ["n", "exact"]
    for mp_ in range(cfg.order + 1):
        header += [f"truncated_{mp_}", f"error_{mp_}"]
    rows = []
    distance = active().distance
    for n in cfg.values:
        exact = kind.exact(n, *inputs)
        row = [str(n), _format_scalar(exact)]
        for approx in asym.truncations(expansion, n, cfg.order):
            row += [_format_scalar(approx), _format_scalar(distance(exact, approx))]
        rows.append(tuple(row))
    return tuple(header), rows


def _fit_slope(ns, errors: list[float]) -> float:
    """Least-squares slope of log error against log n; a zero error counts
    as the least normal float."""
    from statistics import linear_regression  # only verify fits slopes

    floor = sys.float_info.min
    return linear_regression([math.log(n) for n in ns],
                             [math.log(max(e, floor)) for e in errors]).slope


def cmd_verify(cfg: RunConfig):
    """Rows of (exact, truncated, error) plus fitted slopes per truncation order.

    Returns (header, rows, ok); ok is False when a slope misses
    -(order+1) by more than the slope tolerance (or, for the minimizer
    check, when a zero deviates beyond the tolerance).
    """
    check_finite_above(0, "tolerances", slope_tol=cfg.slope_tol, tol=cfg.tol)
    header = ("record", "kind", "order", "n", "exact", "truncated", "error",
              "slope", "expected", "ok")
    rows: list[tuple[str, ...]] = []
    ok = True
    if cfg.kind == "minimize":
        from . import minimize as optim  # loads numpy, which no other kind needs

        p = cfg.p if cfg.p is not None else 1.0
        q = cfg.q if cfg.q is not None else 1.0
        params = cfg.params or JacobiParams(1.0, 1.0)
        for n in cfg.values:
            report = optim.minimize_potential(n, p, q)
            target = jacobi.zeros(n, params).points
            deviation = max(abs(u - v) for u, v in zip(report.points, target))
            good = report.converged and deviation <= cfg.tol
            ok = ok and good
            rows.append(("point", "minimize", "", str(n), "", "",
                         _format_scalar(deviation), "", "", str(good).lower()))
        return header, rows, ok
    if len(set(cfg.values)) < 2:
        raise UsageError("verify needs at least two distinct n values to fit slopes")
    kind, inputs = _kind(cfg)
    expansion = kind.expansion(cfg.order, *inputs)
    exacts = {n: kind.exact(n, *inputs) for n in cfg.values}
    exact_text = {n: _format_scalar(exacts[n]) for n in cfg.values}
    approx_by_n = {n: asym.truncations(expansion, n, cfg.order) for n in cfg.values}
    distance = active().distance
    errors_by_n = {n: [distance(exacts[n], a) for a in approx_by_n[n]] for n in cfg.values}
    error_floats = {n: [float(e) for e in errs] for n, errs in errors_by_n.items()}
    error_text = {n: [_format_scalar(e) for e in errs] for n, errs in errors_by_n.items()}
    for order in range(cfg.order + 1):
        for n in cfg.values:
            rows.append(("point", cfg.kind, str(order), str(n),
                         exact_text[n], _format_scalar(approx_by_n[n][order]),
                         error_text[n][order], "", "", ""))
        slope = _fit_slope(cfg.values, [error_floats[n][order] for n in cfg.values])
        expected = -(order + 1)
        good = abs(slope - expected) <= cfg.slope_tol
        ok = ok and good
        rows.append(("slope", cfg.kind, str(order), "", "", "", "",
                     f"{slope:.6f}", str(expected), str(good).lower()))
    # empirically optimal truncation per n (the series is asymptotic: more
    # terms stop helping once below the precision floor)
    for n in cfg.values:
        best = min(range(cfg.order + 1), key=error_floats[n].__getitem__)
        rows.append(("best", cfg.kind, str(best), str(n), "", "",
                     error_text[n][best], "", "", ""))
    return header, rows, ok


def cmd_zeros(cfg: RunConfig) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    header = ("n", "index", "x")
    rows = []
    params = cfg.params
    for n in cfg.values:
        for i, x in enumerate(jacobi.zeros(n, params).points, start=1):
            rows.append((str(n), str(i), _format_scalar(x)))
    return header, rows


def cmd_minimize(cfg: RunConfig) -> dict:
    from . import minimize as optim

    (n,) = cfg.values
    report = optim.minimize_potential(n, cfg.p, cfg.q)
    return {
        "n": n,
        "p": cfg.p,
        "q": cfg.q,
        "converged": report.converged,
        "stop": report.stop,
        "iterations": report.iterations,
        "step_norm": _json_scalar(report.step_norm),
        "energy": _json_scalar(report.energy),
        "points": [_json_scalar(x) for x in report.points],
    }


# -- option layer ----------------------------------------------------------------
#
# cli() is the one path from the options to the output: it builds the
# RunConfig, runs the command's cmd_* function and writes what that returns.
# The options are (flags, add_argument keywords) pairs, and argparse is
# imported and the parser built only when the command line runs.


def _config(name: str, opts: dict) -> RunConfig:
    """The :class:`RunConfig` of command ``name`` from its option values."""
    kind = opts.get("kind", name)  # zeros and minimize take no --kind
    if kind is None:  # exact: Fekete rows when --N is given
        kind = "interval" if opts["N_range"] is not None else "pq"
    values = ()
    if name == "exact":  # exact reports a bad range before bad charges, the others after
        values = (_parse_range(opts["N_range"], "--N") if kind == "interval"
                  else _parse_range(opts["n_range"], "--n"))
    p, q = _resolve_charges(opts["p"], opts["q"], opts["alpha"], opts["beta"],
                            required=kind == "pq" or name in ("zeros", "minimize"))
    # a kind takes only the inputs it names: the charges (or the exponents
    # they set), or --a/--b
    named = KINDS[kind].inputs if kind in KINDS else _CHARGES
    named = _CHARGES if named == _JACOBI else named
    for flags, field in ((("p", "q", "alpha", "beta"), "p"), (("a", "b"), "a")):
        given = [f"--{flag}" for flag in flags if opts.get(flag) is not None]
        if given and field not in named:
            raise UsageError(f"kind {kind!r} takes no {'/'.join(given)}")
    if name == "minimize":
        values = (opts["n_value"],)
    elif name in ("table", "zeros", "verify"):
        values = _parse_range(opts["n_range"], "--n")
    fields = {f: opts[f] for f in ("order", "a", "b", "tol", "slope_tol", "alpha", "beta")
              if f in opts}
    return RunConfig(name, kind, values, p, q, **fields)


def _render(name: str, result, fmt: str | None) -> tuple[str, bool]:
    """The text of a command's result, and False when its check failed.

    Rows ``(header, rows[, ok])`` go out as CRLF CSV or as JSON
    ``{"command", ["ok",] "rows"}``; a dict goes out as JSON, or for
    ``minimize`` in CSV as its ``index,x`` rows.
    """
    if name == "minimize" and fmt == "csv":
        # the points are float64 in every mode, so float() undoes the JSON scalar
        result = ("index", "x"), [(str(i), _format_scalar(float(x)))
                                  for i, x in enumerate(result["points"], 1)]
    verdict = ()
    if not isinstance(result, dict):
        header, rows, *verdict = result
        if fmt == "csv":
            return "".join(",".join(row) + "\r\n" for row in (header, *rows)), all(verdict)
        result = {"command": name, **({"ok": verdict[0]} if verdict else {}),
                  "rows": [dict(zip(header, row)) for row in rows]}
    import json  # only JSON output needs it

    return json.dumps(result, indent=2) + "\n", all(verdict)


#: the charges, taken by every command
_CHARGE_OPTIONS = (
    (("--p",), dict(type=float, help="Charge at +1.")),
    (("--q",), dict(type=float, help="Charge at -1.")),
    (("--alpha",), dict(type=float, help="Jacobi exponent alpha = 2p-1.")),
    (("--beta",), dict(type=float, help="Jacobi exponent beta = 2q-1.")),
)
_OUT_OPTION = (("--out",), dict(metavar="PATH", help="Output path (default: stdout)."))
#: the charges and the output, taken by every command but coeffs (JSON only)
_SHARED_OPTIONS = (
    *_CHARGE_OPTIONS,
    (("--format",), dict(dest="fmt", choices=("csv", "json"), default="csv",
                         help="Output format.")),
    _OUT_OPTION,
)


def _kind_options(*extra_kinds):
    """--kind from :data:`KINDS` (plus ``extra_kinds``), and --a/--b for general-interval."""
    return ((("--kind",), dict(choices=(*KINDS, *extra_kinds), required=True)),
            (("--a",), dict(type=float, help="Left endpoint (general-interval).")),
            (("--b",), dict(type=float, help="Right endpoint (general-interval).")))


#: command name -> (cmd_* function, help text, options)
COMMANDS = {
    "exact": (cmd_exact, "Exact energies and log-discriminants for a range of sizes.", (
        (("--kind",), dict(choices=("pq", "interval"),
                           help="pq: external-field problem rows; interval: Fekete rows.")),
        (("--n",), dict(dest="n_range", metavar="RANGE",
                        help="Range a..b or comma list (pq kind).")),
        (("--N",), dict(dest="N_range", metavar="RANGE",
                        help="Range a..b or comma list (interval kind).")),
        *_SHARED_OPTIONS)),
    "coeffs": (cmd_coeffs, "Expansion coefficients as serialized JSON.", (
        *_kind_options(),
        (("--order", "--M"), dict(dest="order", type=int, default=4,
                                  help="Number of tail coefficients.")),
        *_CHARGE_OPTIONS, _OUT_OPTION)),
    "table": (cmd_table, "Convergence table: exact value, truncations and errors per n.", (
        *_kind_options(),
        (("--n", "--N"), dict(dest="n_range", metavar="RANGE",
                                help="Range a..b or comma list.")),
        (("--order", "--M"), dict(dest="order", type=int, default=2)),
        *_SHARED_OPTIONS)),
    "zeros": (cmd_zeros, "Zeros of the Jacobi polynomial attached to the charges.", (
        (("--n",), dict(dest="n_range", metavar="RANGE", required=True,
                        help="Degree range a..b or comma list.")),
        *_SHARED_OPTIONS)),
    "minimize": (cmd_minimize,
                 "Run the electrostatic Newton solver and report the configuration.", (
        (("--n",), dict(dest="n_value", type=int, required=True)),
        *_SHARED_OPTIONS)),
    "verify": (cmd_verify, "Check truncation-order decay (or minimizer agreement) and set "
                           "the exit status accordingly.", (
        *_kind_options("minimize"),
        (("--n", "--N"), dict(dest="n_range", metavar="RANGE", required=True,
                              help="Sizes to test, e.g. 20,40,80,160.")),
        (("--order", "--M"), dict(dest="order", type=int, default=2,
                                  help="Largest truncation order to check.")),
        (("--slope-tol",), dict(dest="slope_tol", type=float, default=0.15,
                                help="Allowed deviation of fitted slopes from -(order+1).")),
        (("--tol",), dict(type=float, default=1e-8,
                          help="Zero-deviation tolerance for --kind minimize.")),
        *_SHARED_OPTIONS)),
}

#: an option value that argparse would otherwise take for an option: a
#: negative number in any form float() reads, such as -1e5 or -inf
_NEGATIVE_NUMBER = r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$"


def cli(args=None, prog=None):
    """Exact minimal logarithmic energies of interval point configurations,
    their complete asymptotic expansions, and numerical verification.

    Runs the command line ``args`` (default: ``sys.argv[1:]``); ``prog`` is
    the program name in messages (default: from ``sys.argv[0]``).  A usage
    error, a package error and a request too large for memory exit with
    status 2 and a message, without a traceback; a failed verification
    exits with 1.  The mode comes from --precision, else from the
    ``FEKETE_PRECISION`` variable, else ``std``.
    """
    import argparse
    import os
    import re

    parser = argparse.ArgumentParser(prog=prog, description=cli.__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    negative = re.compile(_NEGATIVE_NUMBER, re.IGNORECASE)
    subparsers = {}
    for name, (_, text, options) in COMMANDS.items():
        # options left out take no attribute, so the namespace lists the
        # given ones in command-line order; the defaults are applied below
        sub = subparsers[name] = commands.add_parser(
            name, prog=f"{parser.prog} {name}", help=text, description=text,
            allow_abbrev=False, argument_default=argparse.SUPPRESS)
        sub._negative_number_matcher = negative  # argparse's own reads -1e5 as an option
        for flags, spec in options:
            sub.add_argument(*flags, **{k: v for k, v in spec.items() if k != "default"})
        sub.add_argument("--precision", choices=("std", "ext"),
                         help="Scalar arithmetic mode (also via FEKETE_PRECISION).")
    given = vars(parser.parse_args(args))
    name = given.pop("command")
    sub, (run, _, options) = subparsers[name], COMMANDS[name]
    mode = given.pop("precision", None) or os.environ.get("FEKETE_PRECISION") or "std"
    if mode not in ("std", "ext"):
        sub.error(f"invalid value for --precision (FEKETE_PRECISION): {mode!r} is not one "
                  f"of 'std', 'ext'")
    opts = {spec.get("dest", flags[0][2:]): spec.get("default") for flags, spec in options}
    opts.update(given)
    use(mode)
    try:
        text, ok = _render(name, run(_config(name, opts)), opts.get("fmt"))
        _write(text, opts["out"])
        if not ok:
            sys.exit(1)
    except (UsageError, FeketeError) as exc:
        sub.error(str(exc))
    except MemoryError:
        listed = ", ".join(f"{key}={value!r}" for key, value in given.items())
        sub.error(f"not enough memory for {sub.prog} with {listed}")


def main():
    cli()


if __name__ == "__main__":
    main()
