"""The adaptive refine-and-fit loop.

One pass of the loop fits the coefficients of the current space (global
least squares early, local MBA updates afterwards), measures every point
against the tolerance and logs one ledger row; iteration 0 is that pass on
a coarse tensor-product start space.  Each later pass first plans midpoint
knot segments from the accuracy ledger of the previous fit and applies them.
The loop stops when every point is within tolerance, the iteration cap is
reached, or refinement stalls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fitting import FitConfig, FitError, fit_step
from .mesh import SUPPORTED_DEGREES, LRSpace, make_tensor_mesh
from .strategy import (StrategySpec, build_plan, directions_for, parse_label,
                       plan_to_segments, should_switch)
from .surface import (AccuracyLedger, Collocation, LRSurface, PointCloud,
                      approximation_efficiency, assign_points, compute_accuracy)

EXIT_CONVERGED = 0
EXIT_ITERATION_CAP = 2
EXIT_STAGNATION = 3
EXIT_INPUT_ERROR = 4
EXIT_RUN_ABORTED = 5
#: ``RunLedger.stop_reason`` -> exit code
STOP_EXIT_CODES = {"converged": EXIT_CONVERGED, "iteration cap": EXIT_ITERATION_CAP,
                   "stagnated": EXIT_STAGNATION}


class InputError(ValueError):
    """Unusable input data or configuration."""


def check_tolerance(tolerance: float) -> None:
    """Reject a tolerance that is not positive and finite: no distance
    exceeds NaN, so a NaN tolerance would count every point as resolved."""
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise InputError(f"tolerance must be positive and finite, got {tolerance!r}")


class RunAborted(RuntimeError):
    """A fit failed; the last surface and the ledger so far are attached
    (the unfitted start surface and an empty ledger for the initial fit)."""

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

    def __post_init__(self):
        if self.combinator not in ("AND", "OR"):
            raise InputError(f"combinator must be 'AND' or 'OR', got {self.combinator!r}")
        for name in ("max_out_fraction", "max_dist_cap", "avg_out_cap"):
            cap = getattr(self, name)
            if cap is not None and not (math.isfinite(cap) and cap >= 0.0):
                raise InputError(f"{name} must be finite and non-negative, got {cap!r}")

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
        return all(checks) if self.combinator == "AND" else any(checks)


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
    """Full history of an adaptive run and why it stopped: ``stop_reason`` is
    a key of :data:`STOP_EXIT_CODES`, or ``None`` while the loop runs (so
    also in the ledger a :class:`RunAborted` carries)."""

    rows: list[LedgerRow] = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def exit_code(self) -> int:
        return STOP_EXIT_CODES[self.stop_reason]


def _is_int_pair(value) -> bool:
    return (isinstance(value, (tuple, list)) and len(value) == 2
            and all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                    for n in value))


@dataclass(frozen=True)
class RunConfig:
    """Settings of one adaptive run, checked when it is built; ``spec`` is
    the parsed strategy label."""

    strategy: str = "eFB"
    tolerance: float = 1.0
    degrees: tuple[int, int] = (2, 2)
    max_iterations: int = 40
    initial_elements: tuple[int, int] | None = None
    min_interval: float = 0.0
    fit: FitConfig = field(default_factory=FitConfig)
    spec: StrategySpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", parse_label(self.strategy))
        check_tolerance(self.tolerance)
        if not self.min_interval >= 0.0:   # also NaN
            raise InputError(f"min_interval must be non-negative, got {self.min_interval!r}")
        if self.max_iterations < 0:
            raise InputError("max_iterations must be non-negative")
        if not _is_int_pair(self.degrees):
            raise InputError(f"degrees must be a pair of ints, got {self.degrees!r}")
        for p in self.degrees:
            if p not in SUPPORTED_DEGREES:
                raise InputError(f"degree {p} not supported "
                                 f"(expected one of {SUPPORTED_DEGREES})")
        if self.initial_elements is not None and not (
                _is_int_pair(self.initial_elements) and min(self.initial_elements) >= 1):
            raise InputError("initial grid needs a pair of ints, at least one element "
                             f"per side, got {self.initial_elements!r}")


def initial_elements_for(cloud: PointCloud, cfg: RunConfig) -> tuple[int, int]:
    """Numbers of elements per side of the starting tensor mesh: configured, or an
    aspect-ratio-adjusted grid of roughly 8 elements along the longer side."""
    if cfg.initial_elements is not None:
        return cfg.initial_elements
    wx = float(cloud.x.max() - cloud.x.min())
    wy = float(cloud.y.max() - cloud.y.min())
    base = 8
    if wx >= wy:
        return base, max(1, round(base * wy / wx))
    return max(1, round(base * wx / wy)), base


def initial_space(cloud: PointCloud, cfg: RunConfig) -> LRSpace:
    """Coarse, unfitted tensor-product space over the cloud's bounding box."""
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
    return make_tensor_mesh(ku, kv, cfg.degrees)


def check_finite(cloud: PointCloud) -> None:
    """Reject NaN or infinite coordinates, naming the first bad one."""
    bad = ~np.isfinite(cloud.xyz)
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise InputError(f"non-finite coordinate at point {row} (0-based), "
                         f"column {'xyz'[col]}: {float(cloud.xyz[row, col])!r}")


def run(cloud: PointCloud, cfg: RunConfig) -> tuple[LRSurface, RunLedger]:
    """Run the adaptive loop; returns the final surface and its ledger.

    Each pass assigns the points, fits, measures and logs one ledger row,
    then refines for the next pass; iteration 0 is the pass on the start
    space, with no refinement before it.  Raises :class:`InputError` for
    unusable input and :class:`RunAborted`, carrying the last surface and
    the ledger so far, when a fit fails.
    """
    check_finite(cloud)
    ledger = RunLedger()
    spec = cfg.spec
    colloc = Collocation(cloud)
    t0 = time.perf_counter()
    space = initial_space(cloud, cfg)
    surface = LRSurface(space)
    switch_offset = 0          # iteration at which the active strategy started
    empty_streak = 0
    history: list[tuple[int, int]] = []
    iteration = inserted = 0
    while True:
        assignment = assign_points(surface, cloud)
        try:
            fit_step(space, cloud, cfg.fit, iteration, colloc, assignment)
        except FitError as exc:
            raise RunAborted(str(exc), surface, ledger) from exc
        acc = compute_accuracy(surface, cloud, assignment, cfg.tolerance,
                               z_pred=colloc.predict(space))
        _log_row(ledger, iteration, acc, space, time.perf_counter() - t0,
                 inserted, spec.label)
        g = acc.global_stats
        if iteration > 0:
            prev = ledger.rows[-2]
            history.append((prev.n_out - g.n_out, len(space) - prev.n_coeff))
            if (spec.switch_to is not None and g.n_out > 0
                    and should_switch(history, g.n_out)):
                spec = spec.switch_to
                switch_offset = iteration   # threshold decay restarts
                history.clear()
                empty_streak = 0
        if g.n_out == 0:
            ledger.stop_reason = "converged"
            break
        if iteration >= cfg.max_iterations:
            ledger.stop_reason = "iteration cap"
            break
        if empty_streak >= 2:
            ledger.stop_reason = "stagnated"
            break
        iteration += 1
        t0 = time.perf_counter()
        level = iteration - switch_offset
        dirs = directions_for(spec.direction_policy, level)
        plan = build_plan(spec, space, acc, dirs, level, cfg.min_interval)
        inserted, _dropped = space.try_apply_segments(plan_to_segments(space, plan))
        empty_streak = empty_streak + 1 if inserted == 0 else 0
    return surface, ledger


def _log_row(ledger: RunLedger, iteration: int, acc: AccuracyLedger,
             space: LRSpace, wall: float, inserted: int, label: str) -> None:
    g = acc.global_stats
    n_coeff = len(space)
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
