#!/usr/bin/env python3
"""Check that the ``fekete`` command line prints the same as before.

    python3 scripts/compare_outputs.py --parent HEAD~1 --change HEAD
    python3 scripts/compare_outputs.py --order

A fixed grid of commands (:func:`grid`) runs in process, through
``fekete.cli.cli``: the README and CI examples, every kind at eight or more
charge pairs or intervals in ``std`` and ``ext`` with orders up to the
mode's maximum, the doubling sweeps of the ``verify_ext`` workload in both
modes, JSON output and error exits.  Each command's exit status,
stdout and stderr are recorded.

``--parent`` and ``--change`` are git revisions, exported with
``git archive`` as ``scripts/bench_pairs.py`` does; the grid runs once on
each, in one child process per revision, and every command whose record
differs is listed.  ``--order`` runs the grid on the working tree forward
in one process and reversed in another, each from empty caches, and
compares the two: a value cached by one call and served to another that
needs it at a different precision (std and ext share charges) shows up as
a difference.  (Run twice in one process, the second pass would read the
caches the first filled, and agree with it.)  Under each differing
command its differing exit status and output lines are printed as
first -> second, at most :data:`SHOWN` of them.  The exit status is 1 when
any command differs, else 0.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import checkout

ROOT = Path(__file__).resolve().parent.parent

#: the README's and the CI workflow's example commands
EXAMPLES = """
--version
--help
exact --n x --p 1 --q 1
exact --n {huge} --p 1 --q 1
coeffs --kind disc --p 1e-17 --q 0.5 --order 2
coeffs --kind interval --order 1 --format csv
exact --N 2..4 --p 1 --q 1
coeffs --kind potential --p 1e77 --q 1 --order 4
coeffs --kind potential --p 5e-324 --q 1e308 --order 2 --precision ext
table --kind p1 --alpha 1e-300 --beta 0 --n 320,640 --order 2 --precision ext
zeros --n 5 --p 1 --q 1e300
zeros --n {huge} --p 1 --q 1
minimize --n 5 --p 1e-300 --q 1e-300
minimize --n 12 --p 1e300 --q 1e-300
minimize --n 5 --p 1e308 --q 1e308
minimize --n 3 --p 1e6 --q 1e6
exact --n 1000,10000,100000 --p 1 --q 1.5 --precision ext
exact --n 2,5,1000 --p 5e-324 --q 1e308 --precision ext
exact --n 2,5,1000 --p 1e308 --q 1e308
verify --kind potential --p 1 --q 1.5 --n 12500,25000,50000,100000 --order 3 --precision ext
exact --n 2..6 --p 1e-300 --q 0.5
exact --N 2..10 --kind interval --precision ext
verify --kind elliptic --p 1.25 --q 2.75 --n 320,640,1280,2560 --order 5 --precision ext
verify --kind disc --p 1.25 --q 2.75 --n 640,1280,2560,5120 --order 4 --precision ext
coeffs --kind potential --p 0.1 --q 0.3 --order 16 --precision ext
exact --N 2..10 --kind interval
exact --n 1..20 --p 0.7 --q 1.3
coeffs --kind interval --order 4
coeffs --kind potential --p 1 --q 1 --order 6
table --kind potential --p 1 --q 1 --n 20,40,80 --order 2
table --kind general-interval --a 0 --b 3 --n 20,40,80 --order 2
zeros --n 12 --alpha 0.4 --beta 1.6
zeros --n 100 --alpha 1e8 --beta 0.5
zeros --n 1000 --alpha 1000 --beta 1000
zeros --n 101 --alpha 0 --beta 0
minimize --n 12 --p 1 --q 1
minimize --n 12 --p 1 --q 1 --format json
verify --kind interval --N 20,40,80,160,320 --order 2
verify --kind general-interval --a 0 --b 3 --N 20,40,80,160 --order 2
verify --kind minimize --n 2..20
verify --kind minimize --n 100,300 --p 4 --q 0.75
verify --kind minimize --n 2..12 --p 1e6 --q 1e6
""".format(huge=10 ** 160)

#: usage errors, failed checks and bad values: exit 1 or 2
ERRORS = """
exact --n 3..2 --p 1 --q 1
exact --n 2..4 --p 1
exact --n 2..4 --alpha 1
exact --n 2..4 --p 1 --q 1 --alpha 1 --beta 1
exact --n 2..4 --p nan --q 1
exact --n 2..4 --p 1 --q 1 --out .
coeffs --kind nope --order 2
coeffs --kind general-interval --order 2
coeffs --kind lambda --p 1 --q 1 --order 2 --precision quad
table --kind interval --n 20,40 --order 1 --a 0
verify --kind interval --n 20 --order 1
verify --kind interval --n 20,40,80 --order 1 --slope-tol 0.000001
verify --kind interval --n 20,40,80 --order 1 --tol nan
zeros --n 0 --p 1 --q 1
minimize --n 3
minimize --n 12 --p 1 --q 1 --tol 1e-10
bogus
"""

#: charge pairs (p, q) and intervals (a, b) every kind runs at
CHARGES = [(1, 1), (0.5, 0.5), (0.1, 0.3), (0.75, 2.5), (1.25, 2.75), (1e-3, 4), (7.1, 0.55),
           (1e6, 0.3), (1e-300, 0.5)]
INTERVALS = [(0, 3), (-1, 1), (-2, 5), (0.5, 0.75), (-1e3, 1e3), (1e-3, 2e-3), (-7.5, -1.25),
             (10, 11)]
MAX_ORDER = {"std": 10, "ext": 16}
#: the verify_ext workload's shapes: sweeps n_max/8 ... n_max by doubling, at the
#: highest order the workload runs at that n_max, for every kind but general-interval
SWEEPS = {320: 8, 2560: 5}
SWEEP_CHARGES = [(0.75, 4), (4, 4)]


def grid() -> list[str]:
    """The commands, one string each: the std commands, the examples and
    errors, the ext commands.  Reversed, the grid meets each charge first
    in the other mode."""
    modes = {}
    for mode, top in MAX_ORDER.items():
        commands = modes[mode] = []
        inputs = {"interval": [""]}
        inputs["general-interval"] = [f"--a {a} --b {b}" for a, b in INTERVALS]
        for kind in ("lambda", "p1", "disc", "potential", "elliptic"):
            inputs[kind] = [f"--p {p} --q {q}" for p, q in CHARGES]
        for kind, given in inputs.items():
            for args in given:
                common = f"--kind {kind} {args} --precision {mode}"
                commands += [f"coeffs {common} --order {top}",
                             f"table {common} --n 20,40 --order {top}",
                             f"verify {common} --n 40,80,160 --order {top // 4} --format json"]
        for n_max, order in SWEEPS.items():
            ns = ",".join(str(n_max >> k) for k in (3, 2, 1, 0))
            for kind in ("potential", "elliptic", "disc", "interval", "lambda", "p1"):
                for args in ([""] if kind == "interval" else
                             [f"--p {p} --q {q}" for p, q in SWEEP_CHARGES]):
                    commands.append(f"verify --kind {kind} {args} --n {ns} --order {order} "
                                    f"--precision {mode}")
        for p, q in CHARGES:
            commands += [f"exact --n 2..5,1000 --p {p} --q {q} --precision {mode}",
                         f"zeros --n 7 --p {p} --q {q} --precision {mode} --format json"]
    shared = [c for c in (EXAMPLES + ERRORS).split("\n") if c.strip()]
    return [*modes["std"], *shared, *modes["ext"]]


def run_in_process(commands: list[str]) -> list[list]:
    """[exit status, stdout, stderr] of each command, run by ``fekete.cli.cli``."""
    from fekete.cli import cli

    records = []
    for command in commands:
        out, err, status = io.StringIO(), io.StringIO(), 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(shlex.split(command), prog="fekete")
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:  # a traceback: recorded, not raised
                status = f"uncaught {type(exc).__name__}: {exc}"
        records.append([status, out.getvalue(), err.getvalue()])
    return records


def run_child(src: Path, *flags: str) -> list:
    """The JSON that ``--emit src`` prints, run in a new process."""
    env = {k: v for k, v in os.environ.items() if k != "FEKETE_PRECISION"}
    env["COLUMNS"] = "100"  # argparse wraps --help at the terminal width
    out = subprocess.run([sys.executable, __file__, "--emit", str(src), *flags], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


#: differing lines printed under each differing command
SHOWN = 6


def changed_lines(first: list, second: list) -> list[str]:
    """The differing exit status and output lines of one command's two
    records, as 'first -> second', the stdout lines before the stderr ones.
    Of two CSV rows with as many cells, only the differing cells are given,
    after the cells that precede the first of them (n, or record, kind,
    order and n)."""
    lines = [] if first[0] == second[0] else [f"exit {first[0]} -> {second[0]}"]
    for a, b in zip(first[1:], second[1:]):
        a, b = a.splitlines(), b.splitlines()
        a += [""] * (len(b) - len(a))
        b += [""] * (len(a) - len(b))
        for u, v in zip(a, b):
            cells = list(zip(u.split(","), v.split(",")))
            if u == v:
                continue
            if len(cells) > 2 and u.count(",") == v.count(","):
                same = next(i for i, (x, y) in enumerate(cells) if x != y)
                lines.append(",".join(x for x, _ in cells[:same]) + ": "
                             + ", ".join(f"{x} -> {y}" for x, y in cells if x != y))
            else:
                lines.append(f"{u} -> {v}")
    return lines


def differing(commands, first, second) -> list[tuple[str, list[str]]]:
    """(command, its changed lines) for each command whose records differ."""
    return [(c, changed_lines(a, b)) for c, a, b in zip(commands, first, second) if a != b]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare against")
    parser.add_argument("--change", help="git revision to compare")
    parser.add_argument("--order", action="store_true",
                        help="run the grid on the working tree forward and reversed, "
                             "each in a new process")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--reversed", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    commands = grid()
    if args.emit:
        sys.path.insert(0, args.emit)
        import fekete

        if not Path(fekete.__file__).resolve().is_relative_to(Path(args.emit).resolve()):
            raise SystemExit(f"fekete imports from {fekete.__file__}, not from {args.emit}")
        json.dump(run_in_process(commands[::-1])[::-1] if args.reversed
                  else run_in_process(commands), sys.stdout)
        return 0
    if not args.order and not (args.parent and args.change):
        parser.error("give --parent and --change, or --order")
    diffs = []
    if args.parent and args.change:
        with tempfile.TemporaryDirectory() as tmp:
            records = [run_child(checkout(rev, Path(tmp) / side) / "src")
                       for side, rev in (("parent", args.parent), ("change", args.change))]
        found = differing(commands, *records)
        print(f"{args.parent} vs {args.change}: {len(found)} of {len(commands)} commands differ")
        diffs += found
    if args.order:
        found = differing(commands, run_child(ROOT / "src"),
                          run_child(ROOT / "src", "--reversed"))
        print(f"forward vs reversed: {len(found)} of {len(commands)} commands differ")
        diffs += found
    for command, lines in diffs:
        print(f"  fekete {command}")
        for line in lines[:SHOWN]:
            print(f"      {line}")
        if len(lines) > SHOWN:
            print(f"      ... {len(lines) - SHOWN} more changed lines")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
