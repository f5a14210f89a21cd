"""One run of one benchmark workload, in a fresh process.

Started by ``perfbench/run.py`` from the root of a checkout; imports lrfit
from the checkout's ``src/`` only.  A run sets up its inputs several times,
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, sets up several times more (the median of all set-ups is
``setup_s``), checks the outputs of the first round against the independent
evaluator and properties the method must have, and prints one JSON result
as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "perfbench", "data")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lrfit  # noqa: E402
import lrfit.cli  # noqa: E402
import lrfit.driver  # noqa: E402
import lrfit.io  # noqa: E402
import lrfit.surface  # noqa: E402
from evaluator import Document  # noqa: E402
from tracer import TIME_BUCKETS, Tracer, install  # noqa: E402

clock = time.perf_counter

#: the criterion-7 strategy set
LABELS = ["eFB", "eFA", "eFA tn", "bSB", "bRA tk", "eMcB"]
#: the stored surface documents of the surface-query workload, each with its
#: number of seeded scattered blocks; the raster and the report use the first
QUERY_DOCS = (("dunes1_p2.lrb", 2), ("dunes1_p3.lrb", 2))
#: points per scattered block
QUERY_BLOCK = 10_000
#: scattered points re-evaluated on a written and re-read document
READBACK_POINTS = 1000
RASTER = (500, 500)
#: set-up time per phase, before and after the rounds; the machine's speed
#: drifts over tens of seconds, so set-ups on both sides of the rounds give a
#: steadier median than the same number of set-ups in a row
SETUP_SECONDS = 3.0

PER_LAYER_COUNTS = [
    "strategy.segments_planned", "mesh.segments_inserted", "mesh.segments_dropped",
    "mesh.splits", "mesh.offense_checks", "surface.matrix_builds",
    "surface.matrix_nnz", "surface.evaluate_points", "basis.value_calls",
    "basis.value_points", "basis.deriv_calls", "fitting.cg_iters",
    "io.bytes_read", "io.bytes_written",
]


class Run:
    """Operation counts, check results and the optional tracer of one run."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def attempt(self, fn, *args, **kwargs):
        """One operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def timed(self, name: str):
        """The timed part of a round; traced when the run is traced."""
        return self.tracer.root(name) if self.tracer else contextlib.nullcontext()


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def seeded_cloud(n: int, seed: int):
    """The seed-1 dunes cloud of ``n`` points, in a point order drawn from
    ``seed``.  The fit and its counts stay those of the fixed cloud; a single
    fit stopping after 4 or 5 iterations depending on the cloud's draw would
    make every run metric bimodal across seeds."""
    cloud = lrfit.io.gen_synthetic("dunes", 1, n)
    return lrfit.surface.PointCloud(cloud.xyz[np.random.default_rng(seed).permutation(n)])


def cloud_via_file(n: int, seed: int):
    """The seeded cloud written as an xyz file with ``write_points`` and read
    back with ``read_points``, as ``lrfit synth`` and a library user would
    produce it."""
    path = os.path.join(WORK, f"dunes-{n}.xyz")
    lrfit.io.write_points(seeded_cloud(n, seed), path)
    return lrfit.io.read_points(path)


def tolerance_of(cloud) -> float:
    """The benchmark tolerance: 1% of the cloud's height range."""
    return 0.01 * float(cloud.z.max() - cloud.z.min())


def check_fit(run: Run, name: str, doc: Document, cloud, tol: float, n_out: int,
              max_dist: float, converged: bool) -> float:
    """Evaluator statistics of a fitted document against its cloud and its
    ledger's last row; returns the mean vertical distance."""
    height, pou = doc.evaluate(cloud.x, cloud.y)
    dist = np.abs(height - cloud.z)
    pou_err = float(np.abs(pou - 1.0).max())
    run.check(f"{name}: partition of unity at the cloud points", pou_err <= 1e-12,
              f"{pou_err:.3e}")
    run.check(f"{name}: out-of-tolerance count", int((dist > tol).sum()) == n_out,
              f"evaluator {int((dist > tol).sum())}, ledger {n_out}")
    run.check(f"{name}: maximum distance", abs(float(dist.max()) - max_dist) <= 1e-9,
              f"evaluator {float(dist.max())!r}, ledger {max_dist!r}")
    if converged:
        run.check(f"{name}: converged within tolerance", float(dist.max()) <= tol,
                  f"max {float(dist.max())!r} > tolerance {tol!r}")
    return float(dist.mean())


def space_shape(spaces) -> dict:
    """Final-space sizes for the per-layer metrics."""
    return {
        "mesh.n_bsplines": sum(len(sp.bsplines) for sp in spaces),
        "mesh.n_elements": sum(len(sp.elements()) for sp in spaces),
        "mesh.min_knot_interval": min(float(min(np.diff(sp.u).min(), np.diff(sp.v).min()))
                                      for sp in spaces),
    }


# ----------------------------------------------------------------------
# dunes-6strat: the criterion-7 set through the library


def setup_6strat(seed: int) -> dict:
    cloud = cloud_via_file(100_000, seed)
    return {"cloud": cloud, "tol": tolerance_of(cloud)}


def round_6strat(run: Run, inp: dict) -> dict:
    cloud, tol = inp["cloud"], inp["tol"]
    fits = {}
    t0 = clock()
    with run.timed("dunes-6strat"):
        for label in LABELS:
            cfg = lrfit.driver.RunConfig(strategy=label, tolerance=tol, degrees=(2, 2),
                                         max_iterations=40)
            fits[label] = run.attempt(lrfit.driver.run, cloud, cfg)
    wall = clock() - t0
    docs = {}
    for label, fit in fits.items():
        if fit is None:
            continue
        surface, ledger = fit
        docs[label] = os.path.join(WORK, f"6strat-{label.replace(' ', '_')}.lrb")
        run.attempt(lrfit.io.write_surface, surface, docs[label],
                    provenance={"strategy": label, "iterations": ledger.rows[-1].iteration})
    return {"wall_s": wall, "fits": fits, "docs": docs,
            "digest": {label: sha256(p) for label, p in docs.items()}}


def finish_6strat(run: Run, inp: dict, first: dict) -> dict:
    cloud, tol = inp["cloud"], inp["tol"]
    n_coeff = iterations = surface_bytes = 0
    mean_dists = []
    for label, fit in first["fits"].items():
        if fit is None:
            continue
        surface, ledger = fit
        last = ledger.rows[-1]
        code = ledger.exit_code()
        run.check(f"{label}: stops converged or stagnated",
                  code in (lrfit.driver.EXIT_CONVERGED, lrfit.driver.EXIT_STAGNATION),
                  f"exit code {code}")
        if label == "eFB":
            run.check("eFB: converges", ledger.converged)
        doc = Document.load(first["docs"][label])
        run.check(f"{label}: document holds the final space",
                  len(doc.bsplines) == last.n_coeff, f"{len(doc.bsplines)} vs {last.n_coeff}")
        mean_dists.append(check_fit(run, label, doc, cloud, tol, last.n_out, last.max_dist,
                                    ledger.converged))
        n_coeff += last.n_coeff
        iterations += last.iteration
        surface_bytes += os.path.getsize(first["docs"][label])
    spaces = [fit[0].space for fit in first["fits"].values() if fit is not None]
    return {"n_coeff": n_coeff, "iterations": iterations, "surface_bytes": surface_bytes,
            "mean_dist_m": float(np.mean(mean_dists)), "shape": space_shape(spaces)}


# ----------------------------------------------------------------------
# dunes-1m-efb: `lrfit fit` on a 1M-point xyz file, in-process


def setup_1m(seed: int) -> dict:
    cloud = seeded_cloud(1_000_000, seed)
    path = os.path.join(WORK, "dunes-1000000.xyz")
    lrfit.io.write_points(cloud, path)
    return {"cloud": cloud, "tol": tolerance_of(cloud), "points": path}


def round_1m(run: Run, inp: dict) -> dict:
    out = os.path.join(WORK, "1m-efb.lrb")
    report = os.path.join(WORK, "1m-efb.csv")
    argv = ["fit", "--points", inp["points"], "--strategy", "eFB",
            "--tolerance", repr(inp["tol"]), "--degree", "2", "--max-iter", "40",
            "--out", out, "--report", report]
    t0 = clock()
    with run.timed("dunes-1m-efb"), contextlib.redirect_stdout(_io.StringIO()):
        code = run.attempt(lrfit.cli.cli_main, argv)
    wall = clock() - t0
    return {"wall_s": wall, "code": code, "out": out, "report": report,
            "digest": {"out": sha256(out), "report": sha256(report)} if code is not None else None}


def finish_1m(run: Run, inp: dict, first: dict) -> dict:
    run.check("eFB at 1M points: converges", first["code"] == lrfit.driver.EXIT_CONVERGED,
              f"exit code {first['code']}")
    with open(first["report"]) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    header, last = rows[0], dict(zip(rows[0], rows[-1]))
    run.check("report header", ",".join(header) == lrfit.io.REPORT_HEADER)
    n_out, n_coeff, iterations = int(last["n_out"]), int(last["n_coeff"]), int(last["iter"])
    doc = Document.load(first["out"])
    run.check("eFB at 1M points: document holds the final space",
              len(doc.bsplines) == n_coeff, f"{len(doc.bsplines)} vs {n_coeff}")
    mean_dist = check_fit(run, "eFB at 1M points", doc, inp["cloud"], inp["tol"], n_out,
                          float(last["max"]), first["code"] == lrfit.driver.EXIT_CONVERGED)
    return {"n_coeff": n_coeff, "iterations": iterations,
            "surface_bytes": os.path.getsize(first["out"]), "mean_dist_m": mean_dist,
            "shape": space_shape([lrfit.io.read_surface(first["out"]).space])}


# ----------------------------------------------------------------------
# surface-query: read stored documents, raster, report, evaluate, write


def setup_query(seed: int) -> dict:
    cloud = cloud_via_file(100_000, seed)
    rng = np.random.default_rng(seed)
    docs = []
    for name, n_blocks in QUERY_DOCS:
        doc = Document.load(os.path.join(DATA, name))
        u0, u1, v0, v1 = doc.domain
        blocks = [(rng.uniform(u0, u1, QUERY_BLOCK), rng.uniform(v0, v1, QUERY_BLOCK))
                  for _ in range(n_blocks)]
        docs.append({"name": name, "doc": doc, "blocks": blocks,
                     "back": os.path.join(WORK, "query-back-" + name)})
    return {"cloud": cloud, "tol": tolerance_of(cloud), "docs": docs}


def round_query(run: Run, inp: dict) -> dict:
    raster = os.path.join(WORK, "query.asc")
    surfaces, values = [], []
    acc = None
    t0 = clock()
    with run.timed("surface-query"):
        for i, q in enumerate(inp["docs"]):
            surface = run.attempt(lrfit.io.read_surface, os.path.join(DATA, q["name"]))
            if i == 0:
                run.attempt(lrfit.io.sample_raster, surface, *RASTER, raster)
                assignment = run.attempt(lrfit.surface.assign_points, surface, inp["cloud"])
                acc = run.attempt(lrfit.surface.compute_accuracy, surface, inp["cloud"],
                                  assignment, inp["tol"])
            values.append([run.attempt(surface.evaluate, bx, by) for bx, by in q["blocks"]])
            run.attempt(lrfit.io.write_surface, surface, q["back"],
                        provenance=q["doc"].provenance)
            surfaces.append(surface)
    wall = clock() - t0
    blob = b"".join(z.tobytes() for zs in values for z in zs if z is not None)
    return {"wall_s": wall, "surfaces": surfaces, "acc": acc, "values": values,
            "raster": raster,
            "digest": {"raster": sha256(raster), "values": hashlib.sha256(blob).hexdigest(),
                       "back": [sha256(q["back"]) for q in inp["docs"]]}}


def read_raster(path: str) -> tuple[dict, np.ndarray]:
    with open(path) as fh:
        header = {}
        for _ in range(7):
            key, val = fh.readline().split()
            header[key] = float(val)
        grid = np.loadtxt(fh, ndmin=2)
    return header, grid


def finish_query(run: Run, inp: dict, first: dict) -> dict:
    cloud, tol, doc = inp["cloud"], inp["tol"], inp["docs"][0]["doc"]
    u0, u1, v0, v1 = doc.domain
    nx, ny = RASTER
    header, grid = read_raster(first["raster"])
    run.check("raster header", (header["ncols"], header["nrows"], header["xllcorner"],
                                header["yllcorner"]) == (nx, ny, u0, v0), str(header))
    gx, gy = np.meshgrid(np.linspace(u0, u1, nx), np.linspace(v0, v1, ny))
    ref, pou = doc.evaluate(gx, gy)
    ref = ref.reshape(ny, nx)[::-1]          # north-up: first row is the maximum y
    run.check("raster: shape", grid.shape == (ny, nx), str(grid.shape))
    if grid.shape == (ny, nx):
        run.check("raster: values vs evaluator, north-up", np.abs(grid - ref).max() <= 1e-9,
                  f"max deviation {np.abs(grid - ref).max():.3e}")
    run.check("raster: partition of unity", np.abs(pou - 1.0).max() <= 1e-12,
              f"{np.abs(pou - 1.0).max():.3e}")
    dists = []
    for q, surface, zs in zip(inp["docs"], first["surfaces"], first["values"]):
        name = q["name"]
        height, pou = q["doc"].evaluate(cloud.x, cloud.y)
        dists.append(np.abs(height - cloud.z))
        run.check(f"{name}: partition of unity at the cloud points",
                  np.abs(pou - 1.0).max() <= 1e-12, f"{np.abs(pou - 1.0).max():.3e}")
        run.check(f"{name}: read holds the stored space",
                  surface is not None and len(surface.space.bsplines) == len(q["doc"].bsplines))
        for (bx, by), z in zip(q["blocks"], zs):
            if z is None:
                continue
            ref, pou = q["doc"].evaluate(bx, by)
            run.check(f"{name}: scattered points, evaluate vs evaluator",
                      np.abs(z - ref).max() <= 1e-9, f"max deviation {np.abs(z - ref).max():.3e}")
            run.check(f"{name}: scattered points, partition of unity",
                      np.abs(pou - 1.0).max() <= 1e-12, f"{np.abs(pou - 1.0).max():.3e}")
        # a full re-evaluation would cost as much as the round; the read-back
        # space must be the same, and its first scattered points evaluate the same
        again = lrfit.io.read_surface(q["back"])
        (bx, by), z = q["blocks"][0], zs[0]
        n = READBACK_POINTS
        same = (surface is not None and z is not None
                and again.space.keys_sorted() == surface.space.keys_sorted()
                and np.array_equal(again.space.coeff_array(), surface.space.coeff_array())
                and np.array_equal(again.space.scale_array(), surface.space.scale_array())
                and np.array_equal(again.evaluate(bx[:n], by[:n]), z[:n]))
        run.check(f"{name}: write then read evaluates identically", same)
    dist, g = dists[0], first["acc"].global_stats
    run.check("report: out-of-tolerance count", g.n_out == int((dist > tol).sum()),
              f"report {g.n_out}, evaluator {int((dist > tol).sum())}")
    run.check("report: maximum distance", abs(g.max_dist - float(dist.max())) <= 1e-9,
              f"report {g.max_dist!r}, evaluator {float(dist.max())!r}")
    run.check("report: distances vs evaluator",
              np.abs(first["acc"].distances - dist).max() <= 1e-9)
    return {"n_coeff": sum(len(q["doc"].bsplines) for q in inp["docs"]),
            "iterations": sum(int(q["doc"].provenance["iterations"]) for q in inp["docs"]),
            "surface_bytes": sum(os.path.getsize(q["back"]) for q in inp["docs"]),
            "mean_dist_m": float(np.mean([d.mean() for d in dists])),
            "shape": space_shape([s.space for s in first["surfaces"] if s is not None])}


WORKLOADS = {
    # name: (set-up, round, checks and result metrics)
    "dunes-6strat": (setup_6strat, round_6strat, finish_6strat),
    "dunes-1m-efb": (setup_1m, round_1m, finish_1m),
    "surface-query": (setup_query, round_query, finish_query),
}


def set_up(setup, seed: int, times: list[float]) -> dict:
    """Set up at least once and until SETUP_SECONDS have passed, adding each
    set-up time to ``times``; returns the inputs."""
    start = clock()
    while True:
        t0 = clock()
        inp = setup(seed)
        times.append(clock() - t0)
        if clock() - start >= SETUP_SECONDS:
            return inp


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "seed": seed,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def per_layer(tracer: Tracer, n_rounds: int, wall_s: float, shape: dict) -> dict:
    metrics = {}
    for bucket in TIME_BUCKETS:
        metrics[bucket + "_s"] = (tracer.self_s[bucket] / n_rounds, "s")
    for name in PER_LAYER_COUNTS:
        unit = "bytes" if name.startswith("io.bytes") else "count"
        metrics[name] = (tracer.counts.get(name, 0) / n_rounds, unit)
    metrics["mesh.n_bsplines"] = (shape["mesh.n_bsplines"], "count")
    metrics["mesh.n_elements"] = (shape["mesh.n_elements"], "count")
    metrics["mesh.min_knot_interval"] = (shape["mesh.min_knot_interval"], "m")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["bench.self_s"] = (tracer.counts.get("trace.root_self_s", 0.0) / n_rounds, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.abspath(lrfit.__file__).startswith(SRC + os.sep):
        print(f"lrfit imported from {lrfit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    setup, do_round, finish = WORKLOADS[args.workload]

    setup_times = []
    inp = set_up(setup, args.seed, setup_times)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    run = Run(tracer)
    rounds = []
    start = clock()
    while not rounds or clock() - start < args.seconds:
        rounds.append(do_round(run, inp))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    set_up(setup, args.seed, setup_times)

    first = rounds[0]
    for i, later in enumerate(rounds[1:], start=2):
        run.check(f"round {i} reproduces round 1 bit-for-bit",
                  later.get("digest") == first.get("digest"))
    result = finish(run, inp, first)
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "n_coeff": (result["n_coeff"], "count"),
            "iterations": (result["iterations"], "count"),
            "surface_bytes": (result["surface_bytes"], "bytes"),
            "mean_dist_m": (result["mean_dist_m"], "m"),
        }
    else:
        metrics = per_layer(tracer, len(rounds), wall_s, result["shape"])
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write_jsonl(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"))

    failed_checks = [c for c in run.checks if not c[1]]
    for name, _ok, detail in failed_checks:
        print(f"CHECK FAILED: {name} {detail}", file=sys.stderr)
    out = {"correct": not failed_checks, "attempted": run.attempted, "failed": run.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "setup_s": setup_times,
              "rounds_wall_s": [r["wall_s"] for r in rounds],
              "checks": run.checks, "result": out}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print("environment " + json.dumps(detail["environment"], sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
