#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternating pairs and write the
result as a JSON bench file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 401-410 --out BENCH_14.json

``--parent`` and ``--change`` are git revisions, exported with
``git archive`` into temporary directories.  For every workload of
``BENCHMARK.json`` and every seed, one pair of ``perfbench/run.py`` runs
is made, one per side, with the same seed and the benchmark's
``run_seconds``; the side that runs first alternates from pair to pair.
The runs are sequential, one process at a time.

For each workload and end-to-end metric the file records both sides'
values run by run, their medians and quartiles, how many pairs the change
won (ties count for neither) and whether the gain rule holds: wins in at
least nine tenths of the pairs, and medians further apart than the
distance between the parent's quartiles.  One traced run per side and
workload, at the first seed, adds the per-layer scaling exponents (the
``*.exp`` metrics).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'401-410' or '401,405,409'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def checkout(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev``, extracted in ``into``."""
    into.mkdir()
    git = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        raise SystemExit(f"git archive {rev} failed")
    return into


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object (the last stdout line) of one ``perfbench/run.py`` run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarise(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": {"median": p_med, "quartiles": [p_q[0], p_q[2]], "runs": parent},
        "change": {"median": c_med, "quartiles": [c_q[0], c_q[2]], "runs": change},
        "change_over_parent": c_med / p_med if p_med else None,
        "wins": wins,
        "pairs": len(parent),
        "gain_rule_met": (wins >= 0.9 * len(parent)
                          and sign * (p_med - c_med) > p_q[2] - p_q[0]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git revision")
    ap.add_argument("--change", default="HEAD", help="git revision")
    ap.add_argument("--seeds", default="401-410", help="'401-410' or '401,402,...'")
    ap.add_argument("--out", required=True, help="path of the JSON bench file")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": checkout(args.parent, Path(tmp) / "parent"),
                 "change": checkout(args.change, Path(tmp) / "change")}
        result = {"parent": args.parent, "change": args.change, "seeds": seeds,
                  "seconds": seconds, "workloads": {}}
        for workload in (w["name"] for w in bench["workloads"]):
            values = {"parent": {m: [] for m in better}, "change": {m: [] for m in better}}
            failed = {"parent": 0, "change": 0}
            order = []
            for i, seed in enumerate(seeds):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(list(sides))
                for side in sides:
                    res = run(trees[side], workload, seed, seconds, 0)
                    failed[side] += res["failed"]
                    for m in better:
                        values[side][m].append(res["metrics"][m]["value"])
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{m}={values[side][m][-1]:.4g}" for m in better),
                          file=sys.stderr)
            row = {"pairing_order": order, "failed_ops": failed,
                   "metrics": {m: summarise(values["parent"][m], values["change"][m], b)
                               for m, b in better.items()}}
            row["layer_exponents"] = {}
            for side in ("parent", "change"):
                metrics = run(trees[side], workload, seeds[0], seconds, 1)["metrics"]
                row["layer_exponents"][side] = {k: v["value"] for k, v in metrics.items()
                                                if k.endswith(".exp")}
            result["workloads"][workload] = row
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
