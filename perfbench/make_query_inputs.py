"""Make the stored surface documents of the surface-query workload anew.

    python3 perfbench/make_query_inputs.py

Run from the root of a checkout.  Fits eFB at degrees (2, 2) and (3, 3) to
the seed-1 100k-point dunes cloud with the benchmark tolerance (1% of the
height range), through ``lrfit fit``, and writes
``perfbench/data/dunes1_p2.lrb`` and ``perfbench/data/dunes1_p3.lrb``.  The
documents are kept with the benchmark so that the query work does not
change when fitting or refinement changes.
"""

from __future__ import annotations

import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from lrfit.cli import cli_main  # noqa: E402
from lrfit.io import gen_synthetic, write_points  # noqa: E402


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    cloud = gen_synthetic("dunes", 1, 100_000)
    points = os.path.join(work, "dunes1-100k.xyz")
    write_points(cloud, points)
    tol = 0.01 * float(cloud.z.max() - cloud.z.min())
    for degree in (2, 3):
        out = os.path.join(ROOT, "perfbench", "data", f"dunes1_p{degree}.lrb")
        code = cli_main(["fit", "--points", points, "--strategy", "eFB", "--tolerance",
                         repr(tol), "--degree", str(degree), "--max-iter", "40", "--out", out])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
