"""Steadiness check: two sets of benchmark runs of one commit, compared
within the bounds of BENCHMARK.json.

    python3 perfbench/steady.py --workload dunes-6strat

Run from the root of a checkout.  Set after set, each of the two sets runs
the workload once per seed (1 .. 10), sequentially.  For every end-to-end
metric it prints each set's median and quartile spread, (q3 - q1) / median
from ``statistics.quantiles(values, n=4)``, and the second median's change
against the first.  It fails when a spread exceeds its bound, when the two
medians differ by more than the bound in either direction, when a run is
not correct, when the share of failed operations differs between sets, or
when a count or distance metric does not repeat exactly for the same seed.  All values go to
``.perfbench_work/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

#: metrics that criterion 12 makes repeat exactly for a given seed
EXACT = ("n_coeff", "iterations", "surface_bytes", "mean_dist_m")
SETS = 2
RUNS = 10


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)

    sets = []
    for s in range(SETS):
        results = []
        for seed in range(1, RUNS + 1):
            res = run_once(bench, args.workload, seed)
            results.append(res)
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"set {s + 1} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {shown}", flush=True)
        sets.append(results)

    problems = []
    summary = {"workload": args.workload, "runs": sets, "metrics": {}}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        per_set = [[r["metrics"][name]["value"] for r in results] for results in sets]
        rows = [spread(values) for values in per_set]
        summary["metrics"][name] = {"medians": [m for m, _ in rows],
                                    "spreads": [s for _, s in rows], "bound": bound}
        line = f"{name:16s} bound {bound:.2f}"
        for i, (med, sp) in enumerate(rows, start=1):
            line += f" | set {i}: median {med:.6g} spread {sp:.4f}"
            if sp > bound:
                problems.append(f"{name}: set {i} spread {sp:.4f} > bound {bound}")
        m1, m2 = rows[0][0], rows[1][0]
        change = (m2 - m1) / m1
        line += f" | second set {change:+.4f}"
        if abs(change) > bound:
            problems.append(f"{name}: medians differ by {change:+.4f}, beyond bound {bound}")
        if name in EXACT and per_set[0] != per_set[1]:
            problems.append(f"{name}: does not repeat exactly for the same seeds")
        print(line)
    shares = [(sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
              for results in sets]
    print("failed/attempted per set: " + ", ".join(f"{f}/{a}" for f, a in shares))
    if len({f / a for f, a in shares}) != 1:
        problems.append("failed share differs between sets")
    if not all(r["correct"] for results in sets for r in results):
        problems.append("a run reported correct=false")
    summary["problems"] = problems
    os.makedirs(".perfbench_work", exist_ok=True)
    with open(os.path.join(".perfbench_work", f"steady-{args.workload}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
