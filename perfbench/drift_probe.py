"""Machine-drift probe: how steady is this machine's speed?

    python3 perfbench/drift_probe.py --seconds 300

Run from the root of a checkout.  Times a fixed pure-Python loop and one
``LRSurface.evaluate`` call on 2000 points of the stored query surface,
back to back, for ``--seconds``.  Prints the quartiles of the single
timings, then the quartile spread, (q3 - q1) / median, of their sums over
windows of 5, 10, 20 and 30 s: the spread a benchmark run of that length
would see from the machine alone.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from lrfit.io import read_surface  # noqa: E402


def fixed_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=300.0)
    args = ap.parse_args()
    surface = read_surface(os.path.join(ROOT, "perfbench", "data", "dunes1_p2.lrb"))
    u0, u1, v0, v1 = surface.domain
    rng = np.random.default_rng(0)
    x, y = rng.uniform(u0, u1, 2000), rng.uniform(v0, v1, 2000)
    surface.evaluate(x, y)
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        loop = fixed_loop()
        t0 = time.perf_counter()
        surface.evaluate(x, y)
        samples.append((t0 - start, loop, time.perf_counter() - t0))
    for name, col in (("loop", 1), ("evaluate", 2)):
        vals = [s[col] for s in samples]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:8s} n={len(vals)} min {min(vals):.4f} q1 {q1:.4f} median {q2:.4f} "
              f"q3 {q3:.4f} max {max(vals):.4f} s")
    for window in (5, 10, 20, 30):
        sums: dict[int, list[float]] = {}
        for t, loop, ev in samples:
            acc = sums.setdefault(int(t // window), [0.0, 0.0])
            acc[0] += loop
            acc[1] += ev
        full = [v for k, v in sorted(sums.items())][:-1]   # the last window is partial
        if len(full) >= 4:
            print(f"{window:2d} s windows n={len(full)}: spread loop "
                  f"{spread([v[0] for v in full]):.3f}, evaluate {spread([v[1] for v in full]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
