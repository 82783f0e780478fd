#!/usr/bin/env python3
"""Find the charge pairs that the verify workloads must leave out.

For every kind and unordered charge pair of ``workloads.CHARGE_GRID`` this
runs ``cli.cmd_verify`` at the smallest, the geometric-middle and the
largest n_max the generator rules allow, for every order the workload
draws, and prints the pairs whose worst fitted slope misses -(order+1)
by more than MARGIN (the CLI's own tolerance is 0.15).  Those pairs sit
near a zero of some tail coefficient c_m, so the order m-1 truncation has
no n^-m error to show.  The result is ``workloads.EXCLUDED``.

    PYTHONPATH=src python3 perfbench/region_scan.py      # about 25 minutes
"""
import itertools
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import workloads  # noqa: E402
from fekete import cli, precision  # noqa: E402
from fekete.cli import RunConfig  # noqa: E402

MARGIN = 0.10
#: mode, orders, smallest n_max, largest n_max for an order
MODES = {"ext": (range(3, 9), 320, workloads.ext_cap), "std": (range(0, 3), 160, lambda _: 320)}


def worst_slope_miss(kind, p, q, order, n_max) -> float:
    _, rows, _ = cli.cmd_verify(RunConfig(command="verify", kind=kind, values=workloads.sweep(n_max),
                                          p=p, q=q, order=order))
    return max(abs(float(r[7]) - int(r[8])) for r in rows if r[0] == "slope")


def main() -> None:
    grid = workloads.CHARGE_GRID
    for mode, (orders, lowest, cap) in MODES.items():
        precision.use(mode)
        for kind in ("interval", "potential", "elliptic", "disc", "lambda", "p1"):
            pairs = itertools.combinations_with_replacement(grid, 2)
            if kind in ("interval", "p1"):  # no charges; p alone
                pairs = [(None, None)] if kind == "interval" else [(p, 1.0) for p in grid]
            for p, q in pairs:
                worst = 0.0
                for order in orders:
                    lo = max(lowest, workloads.n_floor(kind, p, q))
                    if lo > cap(order):
                        continue
                    for n_max in sorted({lo, (lo * cap(order)) ** 0.5, cap(order)}):
                        worst = max(worst, worst_slope_miss(kind, p, q, order, n_max))
                if worst > MARGIN:
                    print(f"{mode} {kind} {p} {q} worst slope miss {worst:.3f}", flush=True)


if __name__ == "__main__":
    main()
