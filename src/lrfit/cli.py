"""Command-line front end: fit, synth, raster, report, roundtrip-check.

Exit codes: 0 converged / success, 2 iteration cap, 3 stagnation stop,
4 input or usage error, 5 fit aborted (``--out`` and ``--report`` then hold
the last surface and the iterations completed before the failure: the
unfitted start surface and no rows when the initial fit fails).

``--tolerance`` (``fit`` and ``report``) must be positive and finite, and
``--min-interval`` non-negative (``0``, the default, sets no limit); NaN is
rejected for both with exit code 4.  ``synth --noise`` must be finite and
non-negative, and ``--outlier-fraction`` in [0, 1]; other values exit with 4.
So does an ``--intermediate`` cap that is NaN, infinite or negative.  ``fit``
builds its run settings (label, tolerance, ``--initial-grid`` included) and
parses ``--intermediate`` before it reads the point file, so a bad one exits
at once; the intermediate stage is read off the ledger after the run.

Point files (``--points``) hold one ``x y z`` triple per line, separated by
whitespace or commas; ``#`` starts a comment, blank lines are skipped.  A line
without exactly three numbers exits with 4 and names its 1-based line number;
a file with fewer than three points also exits with 4.  ``fit`` and
``report`` exit with 4 on a NaN or infinite coordinate and name its point
(0-based) and column.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .driver import (EXIT_INPUT_ERROR, EXIT_RUN_ABORTED, InputError, RunAborted,
                     RunConfig, StagePredicate, check_finite, check_tolerance,
                     detect_intermediate, run)
from .io import (KINDS, check_noise, check_outlier_fraction, gen_synthetic,
                 read_points, read_surface, sample_raster, write_points,
                 write_report, write_surface, write_truth_sidecar)
from .strategy import LabelError


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map onto the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


#: stage clause quantity -> the StagePredicate cap it sets
_STAGE_CAPS = {"out": "max_out_fraction", "max": "max_dist_cap", "avgout": "avg_out_cap"}


def parse_stage(text: str) -> StagePredicate:
    """Parse a milestone like ``"out<=0.1%,max<=2"`` (AND) or the same with
    ``|`` between clauses (OR); clauses: out<=PCT%, max<=M, avgout<=M."""
    if "|" in text and "," in text:
        raise InputError("intermediate stage: mix of ',' and '|' combinators")
    combinator = "OR" if "|" in text else "AND"
    clauses = text.replace("|", ",").split(",")
    stage = StagePredicate(combinator=combinator)
    for clause in clauses:
        clause = clause.strip()
        if "<=" not in clause:
            raise InputError(f"intermediate stage clause {clause!r} needs '<='")
        name, _, val = clause.partition("<=")
        name = name.strip()
        val = val.strip()
        try:
            if name not in _STAGE_CAPS:
                raise ValueError(f"unknown stage quantity {name!r}")
            if name == "out" and not val.endswith("%"):
                raise ValueError("out cap is a percentage, e.g. out<=0.1%")
            cap = float(val[:-1] if name == "out" else val)
        except ValueError as exc:
            raise InputError(f"intermediate stage: {exc}") from exc
        # a NaN cap is never reached, and no count or distance is negative
        if not (math.isfinite(cap) and cap >= 0.0):
            raise InputError(f"intermediate stage clause {clause!r}: the cap must be "
                             f"finite and non-negative, got {cap!r}")
        setattr(stage, _STAGE_CAPS[name], cap / 100.0 if name == "out" else cap)
    return stage


def parse_grid(text: str) -> tuple[int, int]:
    try:
        nu, _, nv = text.partition("x")
        return int(nu), int(nv)
    except ValueError as exc:
        raise InputError(f"--initial-grid wants NxM, got {text!r}") from exc


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
                       help="fitting tolerance in meters, positive and finite")
    p_fit.add_argument("--degree", type=int, default=2,
                       help="polynomial degree in both directions")
    p_fit.add_argument("--max-iter", type=int, default=40)
    p_fit.add_argument("--out", help="surface document output path")
    p_fit.add_argument("--report", help="per-iteration CSV report path")
    p_fit.add_argument("--min-interval", type=float, default=0.0,
                       help="smallest knot interval the refinement may create, "
                            "non-negative (0: no limit)")
    p_fit.add_argument("--initial-grid", metavar="NxM",
                       help="elements per direction of the starting mesh")
    p_fit.add_argument("--intermediate", metavar="STAGE",
                       help='accuracy milestone, e.g. "out<=0.1%%,max<=2"')

    p_synth = sub.add_parser("synth", help="generate a synthetic cloud")
    p_synth.add_argument("--kind", required=True, choices=KINDS)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--n", type=int, default=100_000)
    p_synth.add_argument("--noise", type=float, default=0.0,
                         help="standard deviation of Gaussian height noise in "
                              "meters, finite and non-negative")
    p_synth.add_argument("--outlier-fraction", type=float, default=0.0,
                         help="share of points displaced far off the surface, "
                              "in [0, 1]")
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
    p_report.add_argument("--tolerance", type=float, required=True,
                          help="fitting tolerance in meters, positive and finite")

    p_rt = sub.add_parser("roundtrip-check",
                          help="verify a surface document survives a "
                               "write/read cycle")
    p_rt.add_argument("--surface", required=True)
    p_rt.add_argument("--samples", type=int, default=500, help="evaluations compared, >= 1")
    return parser


def _cmd_fit(args) -> int:
    cfg = RunConfig(
        strategy=args.strategy,
        tolerance=args.tolerance,
        degrees=(args.degree, args.degree),
        max_iterations=args.max_iter,
        initial_elements=parse_grid(args.initial_grid) if args.initial_grid else None,
        min_interval=args.min_interval,
    )
    stage = parse_stage(args.intermediate) if args.intermediate else None
    cloud = read_points(args.points)
    try:
        surface, ledger = run(cloud, cfg)
    except RunAborted as exc:
        _write_fit_outputs(args, exc.surface, exc.ledger, aborted=str(exc))
        rows = exc.ledger.rows
        where = f"after iteration {rows[-1].iteration}" if rows else "in the initial fit"
        print(f"error: run aborted {where}: {exc}", file=sys.stderr)
        return EXIT_RUN_ABORTED
    last = ledger.rows[-1]
    print(f"iterations={last.iteration} n_out={last.n_out} "
          f"n_coeff={last.n_coeff} max={last.max_dist:.6g} "
          f"avg={last.avg_dist:.6g} converged={ledger.converged}")
    reached = detect_intermediate(ledger, stage) if stage else None
    if reached is not None:
        print(f"intermediate stage reached at iteration {reached} "
              f"(tail {last.iteration - reached})")
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
            "iterations": ledger.rows[-1].iteration if ledger.rows else None,
        }
        if aborted is not None:
            provenance["aborted"] = aborted
        write_surface(surface, args.out, provenance=provenance)
    if args.report:
        write_report(ledger, args.report)


def _cmd_synth(args) -> int:
    for option, check, value in (("--noise", check_noise, args.noise),
                                 ("--outlier-fraction", check_outlier_fraction,
                                  args.outlier_fraction)):
        try:
            check(value)
        except ValueError as exc:
            raise InputError(f"{option}: {exc}") from exc
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

    check_tolerance(args.tolerance)
    surface = read_surface(args.surface)
    cloud = read_points(args.points)
    check_finite(cloud)
    assignment = assign_points(surface, cloud)
    acc = compute_accuracy(surface, cloud, assignment, args.tolerance)
    g = acc.global_stats
    print(f"n_points={g.n_points} n_out={g.n_out} max={g.max_dist:.6g} "
          f"avg={g.avg_dist:.6g} avg_out={g.avg_out_dist:.6g}")
    return 0


def _cmd_roundtrip(args) -> int:
    import tempfile

    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
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
    except LabelError as exc:
        print(f"bad strategy label: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, OSError) as exc:   # InputError and the other lrfit errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
