#!/usr/bin/env python3
"""Compare refinement strategies on a synthetic terrain.

Runs the adaptive loop once per strategy label and prints a summary table:
iterations, final coefficient count, unresolved points, max/avg distance and
wall time.  Mirrors the kind of comparison tables a terrain-fitting report
would contain.

Usage:
    python scripts/compare_strategies.py [--kind dunes] [--n 100000]
        [--tolerance-frac 0.01] [--labels "eFB,eFA,bSB,..."]
"""

import argparse
import time

from lrfit.driver import RunConfig, run
from lrfit.io import KINDS, gen_synthetic

DEFAULT_LABELS = ["eFB", "eFA", "eFA tn", "eMcB", "bSB", "bRA tk", "bR+eLB tk"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", default="dunes", choices=KINDS)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tolerance-frac", type=float, default=0.01,
                    help="tolerance as a fraction of the height range")
    ap.add_argument("--degree", type=int, default=2)
    ap.add_argument("--max-iter", type=int, default=40)
    ap.add_argument("--labels", default=",".join(DEFAULT_LABELS))
    args = ap.parse_args()

    cloud = gen_synthetic(args.kind, args.seed, args.n)
    tol = args.tolerance_frac * float(cloud.z.max() - cloud.z.min())
    print(f"kind={args.kind} n={len(cloud)} tolerance={tol:.4f} "
          f"degree=({args.degree},{args.degree})")
    print(f"{'strategy':12s} {'iters':>5s} {'n_coeff':>8s} {'n_out':>7s} "
          f"{'max':>8s} {'avg':>8s} {'eff':>8s} {'time':>7s}  stop")
    for label in args.labels.split(","):
        label = label.strip()
        cfg = RunConfig(strategy=label, tolerance=tol,
                        degrees=(args.degree, args.degree),
                        max_iterations=args.max_iter)
        t0 = time.perf_counter()
        _, ledger = run(cloud, cfg)
        dt = time.perf_counter() - t0
        last = ledger.rows[-1]
        print(f"{label:12s} {last.iteration:5d} {last.n_coeff:8d} "
              f"{last.n_out:7d} {last.max_dist:8.3f} {last.avg_dist:8.4f} "
              f"{last.efficiency:8.1f} {dt:6.1f}s  {ledger.stop_reason}")


if __name__ == "__main__":
    main()
