"""Smoke runs of the analysis scripts under ``scripts/``: both read the
ledger that ``run`` writes (the stop reason, the rows the intermediate stage
is read from and the oscillation grade), so a change to the loop must keep
them running."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           "--n", "2000", "--max-iter", "3", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


#: the values of ``RunLedger.stop_reason``
STOPS = ("converged", "stagnated", "iteration cap")
LABELS = ["eFB", "eFA", "eFA tn", "eMcB", "bSB", "bRA tk", "bR+eLB tk"]


def test_compare_strategies():
    lines = run_script("compare_strategies.py")
    assert lines[0].startswith("kind=dunes n=2000 tolerance=")
    assert lines[1].split() == ["strategy", "iters", "n_coeff", "n_out", "max", "avg",
                                "eff", "time", "stop"]
    rows = lines[2:]
    assert [row[:12].strip() for row in rows] == LABELS
    for row in rows:
        fields = row[12:].split()   # the label column is 12 wide
        assert 0 <= int(fields[0]) <= 3, row
        assert row.rsplit("s  ", 1)[1] in STOPS, row   # after the time column


def test_convergence_history():
    lines = run_script("convergence_history.py", "--intermediate-out-frac", "0.01")
    assert lines[0].startswith("strategy=eFB tolerance=")
    assert lines[1].split() == ["iter", "n_out", "n_coeff", "max", "avg", "avg_out",
                                "segs", "ms"]
    stop = next(i for i, line in enumerate(lines) if line.startswith("stop: "))
    assert [int(line.split()[0]) for line in lines[2:stop]] == list(range(stop - 2))
    assert lines[stop].startswith(("stop: converged;", "stop: stagnated;",
                                   "stop: iteration cap;"))
    assert "; oscillation: " in lines[stop]
    # milestone: at most 1% of the points out of tolerance
    last = int(lines[stop - 1].split()[0])
    hits = [i for i in range(stop - 2) if int(lines[2 + i].split()[1]) <= 20]
    if hits:
        assert lines[stop + 1] == (f"intermediate stage at iteration {hits[0]}, "
                                   f"tail {last - hits[0]} iterations")
    else:
        assert len(lines) == stop + 1
