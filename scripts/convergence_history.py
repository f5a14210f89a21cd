#!/usr/bin/env python3
"""Print the full per-iteration history of one adaptive run.

Shows how unresolved-point count, coefficient count and the distance
statistics evolve, plus the intermediate-stage split if a milestone is given.

Usage:
    python scripts/convergence_history.py --strategy "eFA tn" \
        [--kind dunes] [--n 100000] [--intermediate-out-frac 0.001]
"""

import argparse

from lrfit.driver import (RunConfig, StagePredicate, detect_intermediate,
                          oscillation_grade, run)
from lrfit.io import KINDS, gen_synthetic


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--strategy", default="eFB")
    ap.add_argument("--kind", default="dunes", choices=KINDS)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tolerance-frac", type=float, default=0.01)
    ap.add_argument("--max-iter", type=int, default=40)
    ap.add_argument("--intermediate-out-frac", type=float, default=0.001,
                    help="milestone: fraction of points allowed out")
    args = ap.parse_args()

    cloud = gen_synthetic(args.kind, args.seed, args.n)
    tol = args.tolerance_frac * float(cloud.z.max() - cloud.z.min())
    stage = StagePredicate(max_out_fraction=args.intermediate_out_frac)
    cfg = RunConfig(strategy=args.strategy, tolerance=tol, max_iterations=args.max_iter)
    _, ledger = run(cloud, cfg)
    print(f"strategy={args.strategy} tolerance={tol:.4f}")
    print(f"{'iter':>4s} {'n_out':>7s} {'n_coeff':>8s} {'max':>8s} "
          f"{'avg':>8s} {'avg_out':>8s} {'segs':>5s} {'ms':>7s}")
    for r in ledger.rows:
        print(f"{r.iteration:4d} {r.n_out:7d} {r.n_coeff:8d} {r.max_dist:8.3f} "
              f"{r.avg_dist:8.4f} {r.avg_out_dist:8.4f} "
              f"{r.segments_inserted:5d} {r.wall_time * 1e3:7.1f}")
    print(f"stop: {ledger.stop_reason}; oscillation: {oscillation_grade(ledger)}")
    reached = detect_intermediate(ledger, stage)
    if reached is not None:
        print(f"intermediate stage at iteration {reached}, "
              f"tail {ledger.rows[-1].iteration - reached} iterations")


if __name__ == "__main__":
    main()
