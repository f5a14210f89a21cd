"""lrfit benchmark: one run of one workload.

    python3 perfbench/run.py --workload dunes-6strat --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The arguments go unchanged to
``perfbench/workloads.py``, which defines and checks them and runs in a
fresh child process with BLAS and OpenMP limited to one thread; this parent
imports no numpy, waits for the child and repeats its JSON result as the
last line of standard output.  Exits non-zero, without a result, if the
child fails or the checkout has no ``src/lrfit``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lrfit", "__init__.py")):
        print("perfbench: no src/lrfit in the current directory; run from the root "
              "of an lrfit checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(root, "perfbench", "workloads.py"), *sys.argv[1:]]
    try:
        child = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                               timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"perfbench: run failed with exit code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
