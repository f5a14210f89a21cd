"""The adaptive refine-and-fit loop.

Starting from a coarse tensor-product surface, each iteration plans midpoint
knot segments from the accuracy ledger of the previous fit, applies them,
recomputes the coefficients (global least squares early, local MBA updates
afterwards) and logs per-iteration statistics; the loop stops when every
point is within tolerance, the iteration cap is reached, or refinement
stalls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fitting import FitConfig, FitError, fit_step
from .mesh import SUPPORTED_DEGREES, LRSpace, MeshError, U, V, make_tensor_mesh
from .strategy import (RefinementPlan, StrategySpec, ThresholdState, build_plan,
                       directions_for, parse_label, plan_to_segments,
                       should_switch)
from .surface import (AccuracyLedger, Collocation, LRSurface, PointCloud,
                      approximation_efficiency, assign_points, compute_accuracy)

EXIT_CONVERGED = 0
EXIT_ITERATION_CAP = 2
EXIT_STAGNATION = 3
EXIT_INPUT_ERROR = 4
EXIT_RUN_ABORTED = 5


class InputError(ValueError):
    """Unusable input data or configuration."""


class RunAborted(RuntimeError):
    """A fit failed mid-run; the partial surface and ledger are attached."""

    def __init__(self, msg: str, surface: "LRSurface", ledger: "RunLedger"):
        super().__init__(msg)
        self.surface = surface
        self.ledger = ledger


@dataclass
class StagePredicate:
    """Accuracy milestone, e.g. '99.9% of points within 2 m'.

    Caps that are ``None`` are ignored; the active caps combine with AND
    or OR.
    """

    max_out_fraction: float | None = None
    max_dist_cap: float | None = None
    avg_out_cap: float | None = None
    combinator: str = "AND"

    def satisfied(self, row: "LedgerRow") -> bool:
        checks = []
        if self.max_out_fraction is not None:
            frac = row.n_out / row.n_points if row.n_points else 0.0
            checks.append(frac <= self.max_out_fraction)
        if self.max_dist_cap is not None:
            checks.append(row.max_dist <= self.max_dist_cap)
        if self.avg_out_cap is not None:
            checks.append(row.avg_out_dist <= self.avg_out_cap)
        if not checks:
            return True
        if self.combinator == "AND":
            return all(checks)
        if self.combinator == "OR":
            return any(checks)
        raise ValueError(f"unknown combinator {self.combinator!r}")


@dataclass
class LedgerRow:
    """Statistics of one loop iteration (iteration 0 is the initial fit)."""

    iteration: int
    n_out: int
    n_coeff: int
    max_dist: float
    avg_dist: float
    avg_out_dist: float
    efficiency: float
    wall_time: float
    segments_inserted: int
    strategy_active: str
    n_points: int = 0


@dataclass
class RunLedger:
    """Full history of an adaptive run plus termination flags."""

    rows: list[LedgerRow] = field(default_factory=list)
    converged: bool = False
    stopped_no_segments: bool = False
    intermediate_iter: int | None = None
    tail_length: int | None = None
    error: str | None = None

    def exit_code(self) -> int:
        if self.converged:
            return EXIT_CONVERGED
        if self.stopped_no_segments:
            return EXIT_STAGNATION
        return EXIT_ITERATION_CAP


@dataclass
class RunConfig:
    """Settings of one adaptive run."""

    strategy: str = "eFB"
    tolerance: float = 1.0
    degrees: tuple[int, int] = (2, 2)
    max_iterations: int = 40
    initial_elements: tuple[int, int] | None = None
    min_interval: float = 0.0
    fit: FitConfig = field(default_factory=FitConfig)
    thresholds: ThresholdState = field(default_factory=ThresholdState)
    intermediate: StagePredicate | None = None

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise InputError("tolerance must be positive")
        if self.max_iterations < 0:
            raise InputError("max_iterations must be non-negative")
        for p in self.degrees:
            if p not in SUPPORTED_DEGREES:
                raise InputError(f"degree {p} not supported "
                                 f"(expected one of {SUPPORTED_DEGREES})")


def initial_elements_for(cloud: PointCloud, cfg: RunConfig) -> tuple[int, int]:
    """Element counts of the starting tensor mesh: configured, or an
    aspect-ratio-adjusted grid of roughly 8 elements along the longer side."""
    if cfg.initial_elements is not None:
        nu, nv = cfg.initial_elements
        if nu < 1 or nv < 1:
            raise InputError("initial grid needs at least one element per side")
        return nu, nv
    wx = float(cloud.x.max() - cloud.x.min())
    wy = float(cloud.y.max() - cloud.y.min())
    base = 8
    if wx >= wy:
        return base, max(1, round(base * wy / wx))
    return max(1, round(base * wx / wy)), base


def make_initial_surface(cloud: PointCloud, cfg: RunConfig,
                         colloc: Collocation | None = None) -> LRSurface:
    """Coarse tensor-product surface over the cloud's bounding box, fitted
    with one penalized least-squares solve."""
    if len(cloud) < 3:
        raise InputError("point cloud needs at least 3 points")
    u0, u1 = float(cloud.x.min()), float(cloud.x.max())
    v0, v1 = float(cloud.y.min()), float(cloud.y.max())
    if u1 <= u0 or v1 <= v0:
        raise InputError("degenerate bounding box: cloud is not projectable "
                         "onto a 2d domain")
    nu, nv = initial_elements_for(cloud, cfg)
    p1, p2 = cfg.degrees
    ku = np.r_[[u0] * p1, np.linspace(u0, u1, nu + 1), [u1] * p1]
    kv = np.r_[[v0] * p2, np.linspace(v0, v1, nv + 1), [v1] * p2]
    space = make_tensor_mesh(ku, kv, cfg.degrees)
    surface = LRSurface(space)
    assignment = assign_points(surface, cloud)
    fit_step(space, cloud, cfg.fit, 0, colloc, assignment)
    return surface


def _check_finite(cloud: PointCloud) -> None:
    """Reject NaN or infinite coordinates, naming the first bad one."""
    bad = ~np.isfinite(cloud.xyz)
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise InputError(f"non-finite coordinate at point {row} (0-based), "
                         f"column {'xyz'[col]}: {float(cloud.xyz[row, col])!r}")


def run(cloud: PointCloud, cfg: RunConfig) -> tuple[LRSurface, RunLedger]:
    """Run the adaptive loop; returns the final surface and its ledger.

    Raises :class:`InputError` for unusable input and :class:`RunAborted`,
    carrying the last surface and the ledger so far, when a fit fails after
    the initial one.
    """
    _check_finite(cloud)
    ledger = RunLedger()
    spec = parse_label(cfg.strategy)
    colloc = Collocation(cloud)
    t0 = time.perf_counter()
    surface = make_initial_surface(cloud, cfg, colloc)
    space = surface.space
    assignment = assign_points(surface, cloud)
    acc = compute_accuracy(surface, cloud, assignment, cfg.tolerance,
                           z_pred=colloc.predict(space))
    _log_row(ledger, 0, acc, space, time.perf_counter() - t0, 0, spec.label)

    state = cfg.thresholds
    switch_offset = 0          # iteration at which the active strategy started
    empty_streak = 0
    history: list[tuple[int, int]] = []
    iteration = 0
    while True:
        g = acc.global_stats
        if g.n_out == 0:
            ledger.converged = True
            break
        if iteration >= cfg.max_iterations:
            break
        if empty_streak >= 2:
            ledger.stopped_no_segments = True
            break
        iteration += 1
        t0 = time.perf_counter()
        level = iteration - switch_offset
        dirs = directions_for(spec.direction_policy, level)
        plan = build_plan(spec, space, acc, dirs, state, level, cfg.min_interval)
        segs = plan_to_segments(space, plan)
        inserted, _dropped = space.try_apply_segments(segs)
        empty_streak = empty_streak + 1 if inserted == 0 else 0
        surface = LRSurface(space)
        assignment = assign_points(surface, cloud)
        prev_out = g.n_out
        prev_coeff = ledger.rows[-1].n_coeff
        try:
            fit_step(space, cloud, cfg.fit, iteration, colloc, assignment)
        except FitError as exc:
            ledger.error = str(exc)
            raise RunAborted(str(exc), surface, ledger) from exc
        acc = compute_accuracy(surface, cloud, assignment, cfg.tolerance,
                               z_pred=colloc.predict(space))
        _log_row(ledger, iteration, acc, space, time.perf_counter() - t0,
                 inserted, spec.label)
        g = acc.global_stats
        history.append((prev_out - g.n_out, len(space.keys_sorted()) - prev_coeff))
        if spec.switch_to is not None and g.n_out > 0:
            if should_switch(history, g.n_out):
                spec = spec.switch_to
                switch_offset = iteration   # threshold decay restarts
                history.clear()
                empty_streak = 0

    _finalize(ledger, cfg)
    return surface, ledger


def _log_row(ledger: RunLedger, iteration: int, acc: AccuracyLedger,
             space: LRSpace, wall: float, inserted: int, label: str) -> None:
    g = acc.global_stats
    n_coeff = len(space.keys_sorted())
    ledger.rows.append(LedgerRow(
        iteration=iteration,
        n_out=g.n_out,
        n_coeff=n_coeff,
        max_dist=g.max_dist,
        avg_dist=g.avg_dist,
        avg_out_dist=g.avg_out_dist,
        efficiency=approximation_efficiency(g.n_points - g.n_out, n_coeff),
        wall_time=wall,
        segments_inserted=inserted,
        strategy_active=label,
        n_points=g.n_points,
    ))


def _finalize(ledger: RunLedger, cfg: RunConfig) -> None:
    if cfg.intermediate is not None:
        ledger.intermediate_iter = detect_intermediate(ledger, cfg.intermediate)
        if ledger.intermediate_iter is not None:
            ledger.tail_length = ledger.rows[-1].iteration - ledger.intermediate_iter


def detect_intermediate(ledger: RunLedger, stage: StagePredicate) -> int | None:
    """First iteration whose accuracy row satisfies the stage predicate."""
    for row in ledger.rows:
        if stage.satisfied(row):
            return row.iteration
    return None


def _sign_changes(series: list[float]) -> int:
    deltas = [b - a for a, b in zip(series[:-1], series[1:])]
    signs = [np.sign(d) for d in deltas if d != 0]
    return sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)


def oscillation_grade(ledger: RunLedger) -> str | None:
    """Qualitative convergence-smoothness grade from the sign changes of the
    per-iteration deltas of max distance and unresolved count; needs at
    least 3 iterations."""
    if len(ledger.rows) < 4:
        return None
    flips = max(_sign_changes([r.max_dist for r in ledger.rows]),
                _sign_changes([float(r.n_out) for r in ledger.rows]))
    if flips == 0:
        return "none"
    if flips <= 2:
        return "low"
    if flips <= 5:
        return "medium"
    return "high"
