"""Command-line front end: fit, synth, raster, report, roundtrip-check.

Exit codes: 0 converged / success, 2 iteration cap, 3 stagnation stop,
4 input or usage error, 5 fit aborted mid-run (``--out`` and ``--report``
then hold the last surface and the iterations completed before the failure).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .driver import (EXIT_INPUT_ERROR, EXIT_RUN_ABORTED, InputError, RunAborted,
                     RunConfig, StagePredicate, run)
from .fitting import FitError
from .io import (FormatError, gen_synthetic, read_points, read_surface,
                 sample_raster, write_points, write_report, write_surface,
                 write_truth_sidecar)
from .mesh import MeshError
from .strategy import GRAMMAR, LabelError
from .surface import DomainError


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map onto the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code: int, message: str = ""):
        self.code = code
        self.message = message


def parse_stage(text: str) -> StagePredicate:
    """Parse a milestone like ``"out<=0.1%,max<=2"`` (AND) or the same with
    ``|`` between clauses (OR); clauses: out<=PCT%, max<=M, avgout<=M."""
    if "|" in text and "," in text:
        raise SystemExit_(EXIT_INPUT_ERROR,
                          "intermediate stage: mix of ',' and '|' combinators")
    combinator = "OR" if "|" in text else "AND"
    clauses = text.replace("|", ",").split(",")
    stage = StagePredicate(combinator=combinator)
    for clause in clauses:
        clause = clause.strip()
        if "<=" not in clause:
            raise SystemExit_(EXIT_INPUT_ERROR,
                              f"intermediate stage clause {clause!r} needs '<='")
        name, _, val = clause.partition("<=")
        name = name.strip()
        val = val.strip()
        try:
            if name == "out":
                if not val.endswith("%"):
                    raise ValueError("out cap is a percentage, e.g. out<=0.1%")
                stage.max_out_fraction = float(val[:-1]) / 100.0
            elif name == "max":
                stage.max_dist_cap = float(val)
            elif name == "avgout":
                stage.avg_out_cap = float(val)
            else:
                raise ValueError(f"unknown stage quantity {name!r}")
        except ValueError as exc:
            raise SystemExit_(EXIT_INPUT_ERROR,
                              f"intermediate stage: {exc}") from exc
    return stage


def parse_grid(text: str) -> tuple[int, int]:
    try:
        nu, _, nv = text.partition("x")
        return int(nu), int(nv)
    except ValueError as exc:
        raise SystemExit_(EXIT_INPUT_ERROR,
                          f"--initial-grid wants NxM, got {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="lrfit",
                     description="Adaptive LR B-spline surface approximation "
                                 "of scattered point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a surface to a point cloud")
    p_fit.add_argument("--points", required=True, help="xyz text file")
    p_fit.add_argument("--strategy", default="eFB",
                       help='refinement strategy label, e.g. "eFA tn" or "bSB"')
    p_fit.add_argument("--tolerance", type=float, required=True,
                       help="fitting tolerance in meters")
    p_fit.add_argument("--degree", type=int, default=2,
                       help="polynomial degree in both directions")
    p_fit.add_argument("--max-iter", type=int, default=40)
    p_fit.add_argument("--out", help="surface document output path")
    p_fit.add_argument("--report", help="per-iteration CSV report path")
    p_fit.add_argument("--min-interval", type=float, default=0.0,
                       help="smallest knot interval the refinement may create")
    p_fit.add_argument("--initial-grid", type=parse_grid, metavar="NxM",
                       help="elements per direction of the starting mesh")
    p_fit.add_argument("--intermediate", metavar="STAGE",
                       help='accuracy milestone, e.g. "out<=0.1%%,max<=2"')

    p_synth = sub.add_parser("synth", help="generate a synthetic cloud")
    p_synth.add_argument("--kind", required=True,
                         choices=["dunes", "peaks", "scanlines", "steps"])
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--n", type=int, default=100_000)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--outlier-fraction", type=float, default=0.0)
    p_synth.add_argument("--out", required=True, help="xyz output path")
    p_synth.add_argument("--truth", help="sidecar path for the ground truth")

    p_raster = sub.add_parser("raster", help="sample a surface on a grid")
    p_raster.add_argument("--surface", required=True)
    p_raster.add_argument("--nx", type=int, required=True)
    p_raster.add_argument("--ny", type=int, required=True)
    p_raster.add_argument("--out", required=True)

    p_report = sub.add_parser("report", help="recompute accuracy of a stored "
                                             "surface against a cloud")
    p_report.add_argument("--surface", required=True)
    p_report.add_argument("--points", required=True)
    p_report.add_argument("--tolerance", type=float, required=True)

    p_rt = sub.add_parser("roundtrip-check",
                          help="verify a surface document survives a "
                               "write/read cycle")
    p_rt.add_argument("--surface", required=True)
    p_rt.add_argument("--samples", type=int, default=500)
    return parser


def _cmd_fit(args) -> int:
    cloud = read_points(args.points)
    cfg = RunConfig(
        strategy=args.strategy,
        tolerance=args.tolerance,
        degrees=(args.degree, args.degree),
        max_iterations=args.max_iter,
        initial_elements=args.initial_grid,
        min_interval=args.min_interval,
        intermediate=parse_stage(args.intermediate) if args.intermediate else None,
    )
    try:
        surface, ledger = run(cloud, cfg)
    except RunAborted as exc:
        _write_fit_outputs(args, exc.surface, exc.ledger, aborted=str(exc))
        print(f"error: run aborted after iteration {exc.ledger.rows[-1].iteration}: "
              f"{exc}", file=sys.stderr)
        return EXIT_RUN_ABORTED
    last = ledger.rows[-1]
    print(f"iterations={last.iteration} n_out={last.n_out} "
          f"n_coeff={last.n_coeff} max={last.max_dist:.6g} "
          f"avg={last.avg_dist:.6g} converged={ledger.converged}")
    if ledger.intermediate_iter is not None:
        print(f"intermediate stage reached at iteration "
              f"{ledger.intermediate_iter} (tail {ledger.tail_length})")
    _write_fit_outputs(args, surface, ledger)
    return ledger.exit_code()


def _write_fit_outputs(args, surface, ledger, aborted: str | None = None) -> None:
    """Write the ``--out`` surface and the ``--report`` CSV, if requested."""
    if args.out:
        provenance = {
            "strategy": args.strategy,
            "tolerance": args.tolerance,
            "degree": args.degree,
            "max_iter": args.max_iter,
            "min_interval": args.min_interval,
            "iterations": ledger.rows[-1].iteration,
        }
        if aborted is not None:
            provenance["aborted"] = aborted
        write_surface(surface, args.out, provenance=provenance)
    if args.report:
        write_report(ledger, args.report)


def _cmd_synth(args) -> int:
    cloud = gen_synthetic(args.kind, args.seed, args.n, args.noise,
                          args.outlier_fraction)
    write_points(cloud, args.out)
    if args.truth:
        write_truth_sidecar(cloud, args.truth)
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def _cmd_raster(args) -> int:
    surface = read_surface(args.surface)
    sample_raster(surface, args.nx, args.ny, args.out)
    print(f"wrote {args.nx}x{args.ny} raster to {args.out}")
    return 0


def _cmd_report(args) -> int:
    from .surface import assign_points, compute_accuracy

    surface = read_surface(args.surface)
    cloud = read_points(args.points)
    if args.tolerance <= 0:
        raise SystemExit_(EXIT_INPUT_ERROR, "tolerance must be positive")
    assignment = assign_points(surface, cloud)
    acc = compute_accuracy(surface, cloud, assignment, args.tolerance)
    g = acc.global_stats
    print(f"n_points={g.n_points} n_out={g.n_out} max={g.max_dist:.6g} "
          f"avg={g.avg_dist:.6g} avg_out={g.avg_out_dist:.6g}")
    return 0


def _cmd_roundtrip(args) -> int:
    import tempfile

    surface = read_surface(args.surface)
    with tempfile.NamedTemporaryFile("w", suffix=".lrb", delete=False) as fh:
        tmp = fh.name
    try:
        write_surface(surface, tmp)
        again = read_surface(tmp)
    finally:
        os.unlink(tmp)
    u0, u1, v0, v1 = surface.domain
    rng = np.random.default_rng(0)
    uu = rng.uniform(u0, u1, args.samples)
    vv = rng.uniform(v0, v1, args.samples)
    a = surface.evaluate(uu, vv)
    b = again.evaluate(uu, vv)
    if np.array_equal(a, b):
        print(f"roundtrip ok: {args.samples} evaluations identical")
        return 0
    print(f"roundtrip mismatch: max deviation {np.abs(a - b).max():.3e}",
          file=sys.stderr)
    return 1


def cli_main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        handlers = {"fit": _cmd_fit, "synth": _cmd_synth, "raster": _cmd_raster,
                    "report": _cmd_report, "roundtrip-check": _cmd_roundtrip}
        return handlers[args.command](args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except LabelError as exc:
        print(f"bad strategy label: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InputError, FormatError, MeshError, DomainError, FitError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
