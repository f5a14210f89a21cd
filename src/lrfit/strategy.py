"""Refinement strategies: labels, thresholds and knot-segment planning.

A strategy label such as ``"eFA tn"`` or ``"bR/eFB tk/n"`` is parsed into a
:class:`StrategySpec`; each iteration the accuracy ledger is converted into a
:class:`RefinementPlan` of midpoint knot segments according to the strategy
family (full span, minimum span, structured mesh, restricted mesh), the
direction policy and the active thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import LRSpace, MeshSegment, U, V
from .surface import AccuracyLedger

#: strategy body -> (trigger, kind, minimum-span subtype)
BODIES = {
    "eF": ("e", "F", None),
    "eMl": ("e", "M", "l"),
    "eMu": ("e", "M", "u"),
    "eMc": ("e", "M", "c"),
    "bS": ("b", "S", None),
    "bR": ("b", "R", None),
}
#: kinds that take the simultaneous element extension '+eL'
EXTENDING_KINDS = ("R",)
#: kinds that may switch to full span, written '/F' or '/eF'
SWITCHING_KINDS = ("M", "R")
SWITCH_TARGETS = ("F", "eF")


def _body_grammar(body: str) -> str:
    kind = BODIES[body][1]
    suffixes = ((["'+eL'"] if kind in EXTENDING_KINDS else [])
                + ([f"'/{t}'" for t in SWITCH_TARGETS] if kind in SWITCHING_KINDS else []))
    return f"'{body}'" + (f" [{' | '.join(suffixes)}]" if suffixes else "")


GRAMMAR = (
    "label := strategy [' t' thresholds]; "
    f"strategy := ({' | '.join(_body_grammar(b) for b in BODIES)}) ('A'|'B'); "
    "thresholds := letters from {d, n, k} joined with '+' (same level) "
    "or '/' (levels before/after a strategy switch, so only after a switch); "
    "'k' applies to 'bR' only, 'n' to element strategies only"
)


class LabelError(ValueError):
    """Strategy label does not match the grammar."""

    def __init__(self, msg: str):
        super().__init__(f"{msg}; grammar: {GRAMMAR}")


@dataclass(frozen=True)
class StrategySpec:
    """Parsed strategy label."""

    trigger: str                     # 'e' (element) or 'b' (B-spline)
    kind: str                        # 'F', 'M', 'S' or 'R'
    subtype: str | None              # 'l' | 'u' | 'c' for minimum span
    extension_L: bool                # simultaneous element extension (R only)
    direction_policy: str            # 'A' alternating | 'B' both
    thresholds: frozenset            # subset of {'td', 'tn', 'tk'}
    switch_to: "StrategySpec | None" = None
    label: str = ""


def _parse_threshold_level(txt: str, kind: str) -> frozenset:
    names = set()
    for letter in txt.split("+"):
        if letter not in ("d", "n", "k"):
            raise LabelError(f"unknown threshold letter {letter!r}")
        names.add("t" + letter)
    if "tk" in names and kind != "R":
        raise LabelError("threshold tk applies to restricted B-spline strategies only")
    if kind in ("S", "R") and "tn" in names:
        raise LabelError("threshold tn applies to element based strategies only")
    return frozenset(names)


def parse_label(label: str) -> StrategySpec:
    """Parse a strategy label like ``"eFA tn"``, ``"bR+eLA tk"``, ``"eMc/FA tn"``.

    The checks run in order: one or two parts, the direction letter, a ``/``
    switch before a ``+`` extension, the strategy body in :data:`BODIES`,
    the extension and switch rules of its kind, then the thresholds. The
    first failing check raises :class:`LabelError`.
    """
    parts = label.strip().split()
    if len(parts) == 0 or len(parts) > 2:
        raise LabelError(f"malformed label {label!r}")
    strat = parts[0]
    thr = parts[1] if len(parts) == 2 else None
    if len(strat) < 3:
        raise LabelError(f"strategy part {strat!r} too short")
    direction = strat[-1]
    if direction not in ("A", "B"):
        raise LabelError(f"direction must be 'A' or 'B', got {direction!r}")
    body = strat[:-1]
    switch_body: str | None = None
    ext = False
    if "/" in body:
        body, switch_body = body.split("/", 1)
    elif "+" in body:
        body, ext_body = body.split("+", 1)
        if ext_body != "eL":
            raise LabelError(f"unknown simultaneous combination {ext_body!r}")
        ext = True
    if body not in BODIES:
        raise LabelError(f"unknown strategy {body!r}, expected one of {', '.join(BODIES)}")
    trigger, kind, subtype = BODIES[body]
    if ext and kind not in EXTENDING_KINDS:
        raise LabelError("element extension '+eL' applies to 'bR' only")
    if switch_body is not None:
        if switch_body not in SWITCH_TARGETS:
            raise LabelError(f"unknown switch target {switch_body!r}")
        if kind not in SWITCHING_KINDS:
            raise LabelError("a '/F' switch applies to minimum span or restricted mesh")

    levels: list[frozenset] = []
    if thr is not None:
        if not thr.startswith("t") or len(thr) < 2:
            raise LabelError(f"malformed threshold part {thr!r}")
        lvl_txts = thr[1:].split("/")
        if len(lvl_txts) > (2 if switch_body else 1):
            raise LabelError("more threshold levels than strategy levels")
        levels = [_parse_threshold_level(t, k) for t, k in zip(lvl_txts, (kind, "F"))]
    primary_thr = levels[0] if levels else frozenset()
    switch = None
    if switch_body is not None:
        switch_thr = levels[1] if len(levels) > 1 else primary_thr - {"tk"}
        letters = "+".join(s[1] for s in sorted(switch_thr))
        switch = StrategySpec(trigger="e", kind="F", subtype=None, extension_L=False,
                              direction_policy=direction, thresholds=switch_thr,
                              label=f"eF{direction}" + (f" t{letters}" if letters else ""))
    return StrategySpec(trigger=trigger, kind=kind, subtype=subtype, extension_L=ext,
                        direction_policy=direction, thresholds=primary_thr,
                        switch_to=switch, label=label.strip())


def directions_for(policy: str, iteration: int) -> tuple[str, ...]:
    """Parameter directions refined at this iteration level: alternating
    strategies refine the first direction at odd levels, the second at even
    levels; 'B' refines both."""
    if iteration < 1:
        raise ValueError("iterations are 1-based")
    if policy == "B":
        return (U, V)
    if policy == "A":
        return (U,) if iteration % 2 == 1 else (V,)
    raise ValueError(f"unknown direction policy {policy!r}")


#: factor by which every threshold cutoff shrinks per iteration level
DECAY = 0.9
#: td weights of the largest distance, the mean out-of-tolerance distance
#: and the tolerance
WEIGHTS_TD = (0.3, 0.4, 0.3)
#: tn weights of the smallest and the largest element score
WEIGHTS_TN = (0.5, 0.5)


@dataclass(frozen=True)
class Cutoffs:
    td: float
    tn: float
    tk: float


def _support_point_stats(space: LRSpace, acc: AccuracyLedger
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per B-spline: point count, out-of-tolerance count and max distance
    over the elements in its support."""
    _, b2e = space.overlap_maps()
    # every support holds at least one element, so no run is empty
    eids = np.concatenate(b2e)
    first = np.cumsum([0] + [len(e) for e in b2e[:-1]])
    return (np.add.reduceat(acc.n_points[eids], first),
            np.add.reduceat(acc.n_out[eids], first),
            np.maximum.reduceat(acc.max_dist[eids], first))


def element_scores(acc: AccuracyLedger) -> np.ndarray:
    """The tn significance score ``n_out * (1 + max_dist / tolerance)``."""
    return acc.n_out * (1.0 + acc.max_dist / acc.tolerance)


def compute_thresholds(acc: AccuracyLedger, iteration: int, space: LRSpace) -> Cutoffs:
    """Numeric cutoffs for td, tn and tk at this iteration level.

    All cutoffs shrink by :data:`DECAY` with successive iterations.
    """
    f = DECAY ** max(iteration - 1, 0)
    g = acc.global_stats
    w1, w2, w3 = WEIGHTS_TD
    td = f * (w1 * g.max_dist + w2 * g.avg_out_dist + w3 * acc.tolerance)
    scores = element_scores(acc)
    wmin, wmax = WEIGHTS_TN
    tn = f * (wmin * scores.min() + wmax * scores.max())
    # a space has at least one element and one B-spline
    pts, out, _ = _support_point_stats(space, acc)
    tk = 0.01 * pts.mean() if pts.mean() > 100.0 * out.mean() else out.mean()
    return Cutoffs(td=td, tn=tn, tk=f * tk)


@dataclass(frozen=True)
class PlanSegment:
    """A planned meshline: constant-``axis`` line at ``value`` spanning
    ``[lo, hi]`` in the orthogonal parameter (all in value space)."""

    axis: str
    value: float
    lo: float
    hi: float


@dataclass
class RefinementPlan:
    segments: list[PlanSegment] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)

    def add(self, seg: PlanSegment) -> None:
        if seg not in self._seen:
            self._seen.add(seg)
            self.segments.append(seg)

    def __len__(self) -> int:
        return len(self.segments)

    def splits_element(self, axis: str, d0: float, d1: float,
                       o0: float, o1: float) -> bool:
        """True if some planned segment in ``axis`` cuts the element box
        ``[d0, d1] x [o0, o1]`` (d along ``axis``, o orthogonal)."""
        for seg in self.segments:
            if seg.axis != axis:
                continue
            if d0 < seg.value < d1 and seg.lo < o1 and seg.hi > o0:
                return True
        return False


def _axis_ranges(bounds, axis: str) -> tuple[float, float, float, float]:
    """(d0, d1, o0, o1): range of an element or support box along ``axis``
    and orthogonal to it."""
    u0, u1, v0, v1 = bounds
    return (u0, u1, v0, v1) if axis == U else (v0, v1, u0, u1)


def _wide_enough(d0: float, d1: float, min_interval: float) -> bool:
    # halving must not create intervals narrower than the configured minimum
    return min_interval <= 0.0 or (d1 - d0) / 2.0 >= min_interval


def flagged_elements(acc: AccuracyLedger, thresholds: frozenset,
                     cuts: Cutoffs) -> np.ndarray:
    """Elements with unresolved points, filtered by the active thresholds."""
    keep = acc.n_out >= 1
    if "td" in thresholds:
        keep &= acc.max_dist > cuts.td
    if "tn" in thresholds:
        keep &= element_scores(acc) > cuts.tn
    return np.flatnonzero(keep)


def flagged_bsplines(space: LRSpace, acc: AccuracyLedger, thresholds: frozenset,
                     cuts: Cutoffs) -> np.ndarray:
    """B-splines with unresolved points in their support, td-filtered."""
    _, out_b, max_b = _support_point_stats(space, acc)
    ids = np.flatnonzero(out_b >= 1)
    if "td" in thresholds:
        ids = ids[max_b[ids] > cuts.td]
    return ids


def _full_spans(space: LRSpace, elements, dirs: tuple[str, ...], min_interval: float):
    """Yield ``(axis, (d0, d1, o0, o1), segment)`` per element and direction
    in which the element may be halved: its ranges along and across
    ``axis`` and the midpoint segment spanning the union of the supports of
    every B-spline overlapping it."""
    e2b, _ = space.overlap_maps()
    bounds = space.element_bounds().tolist()
    supp = space.support_bounds()
    for e in elements:
        for axis in dirs:
            d0, d1, o0, o1 = _axis_ranges(bounds[e], axis)
            if not _wide_enough(d0, d1, min_interval):
                continue
            # the supports contain the element, so their union spans it
            s = supp[e2b[e]][:, [2, 3] if axis == U else [0, 1]]
            seg = PlanSegment(axis, (d0 + d1) / 2.0, s[:, 0].min(), s[:, 1].max())
            yield axis, (d0, d1, o0, o1), seg


def plan_full_span(flagged, space: LRSpace, dirs: tuple[str, ...],
                   min_interval: float = 0.0) -> RefinementPlan:
    """Per flagged element and direction: a midpoint segment spanning the
    union of the supports of every B-spline overlapping the element."""
    plan = RefinementPlan()
    for _axis, _ranges, seg in _full_spans(space, flagged, dirs, min_interval):
        plan.add(seg)
    return plan


def _unit(x: np.ndarray) -> np.ndarray:
    """``x`` scaled to [0, 1]; all zeros when ``x`` is constant."""
    rng = x.max() - x.min()
    return (x - x.min()) / rng if rng > 0 else np.zeros_like(x)


def plan_min_span(flagged, space: LRSpace, acc: AccuracyLedger,
                  dirs: tuple[str, ...], sub: str,
                  min_interval: float = 0.0) -> RefinementPlan:
    """Per flagged element and direction: a midpoint segment spanning exactly
    the support of one selected overlapping B-spline.

    Selection: 'l' largest support, 'u' highest unresolved-point share,
    'c' equal-weight combination; ties broken by centeredness with respect
    to the element, then by lowest B-spline index.
    """
    if sub not in ("l", "u", "c"):
        raise ValueError(f"unknown minimum-span subtype {sub!r}")
    plan = RefinementPlan()
    e2b, _ = space.overlap_maps()
    pts_b, out_b, _ = _support_point_stats(space, acc)
    supp = space.support_bounds()
    area_b = (supp[:, 1] - supp[:, 0]) * (supp[:, 3] - supp[:, 2])
    share_b = np.divide(out_b, pts_b, out=np.zeros(len(pts_b)), where=pts_b > 0)
    mid_u, mid_v = (supp[:, 0] + supp[:, 1]) / 2.0, (supp[:, 2] + supp[:, 3]) / 2.0
    all_bounds = space.element_bounds().tolist()
    supp_list = supp.tolist()
    for e in flagged:
        bounds = all_bounds[e]
        bids = e2b[e]
        areas, shares = area_b[bids], share_b[bids]
        score = (areas if sub == "l" else shares if sub == "u"
                 else 0.5 * (_unit(areas) + _unit(shares)))
        off = np.hypot(mid_u[bids] - (bounds[0] + bounds[1]) / 2.0,
                       mid_v[bids] - (bounds[2] + bounds[3]) / 2.0)
        # stable, last key first: highest score, most central, lowest index
        chosen = bids[np.lexsort((off, -score))[0]]
        for axis in dirs:
            d0, d1, _, _ = _axis_ranges(bounds, axis)
            if not _wide_enough(d0, d1, min_interval):
                continue
            _, _, s0, s1 = _axis_ranges(supp_list[chosen], axis)
            plan.add(PlanSegment(axis, (d0 + d1) / 2.0, s0, s1))
    return plan


def _local_intervals(space: LRSpace, key, axis: str) -> list[tuple[float, float]]:
    loc = key[0] if axis == U else key[1]
    table = space.table(axis)
    vals = sorted(set(loc))
    return [(float(table[a]), float(table[b]))
            for a, b in zip(vals[:-1], vals[1:])]


def _interval_spans(space: LRSpace, flagged_b, dirs: tuple[str, ...], min_interval: float):
    """Yield ``(bi, axis, a, b, segment)`` per flagged B-spline, direction
    and local knot interval ``[a, b]`` that may be halved: the midpoint
    segment spans the B-spline's full orthogonal support."""
    keys = space.keys_sorted()
    supp = space.support_bounds().tolist()
    for bi in flagged_b:
        for axis in dirs:
            _, _, o0, o1 = _axis_ranges(supp[bi], axis)
            for a, b in _local_intervals(space, keys[bi], axis):
                if _wide_enough(a, b, min_interval):
                    yield bi, axis, a, b, PlanSegment(axis, (a + b) / 2.0, o0, o1)


def plan_structured(flagged_b, space: LRSpace, dirs: tuple[str, ...],
                    min_interval: float = 0.0) -> RefinementPlan:
    """Per flagged B-spline and direction: one midpoint segment for every
    local knot interval, spanning the full orthogonal support."""
    plan = RefinementPlan()
    for *_, seg in _interval_spans(space, flagged_b, dirs, min_interval):
        plan.add(seg)
    return plan


def plan_restricted(flagged_b, space: LRSpace, acc: AccuracyLedger,
                    dirs: tuple[str, ...], thresholds: frozenset, cuts: Cutoffs,
                    min_interval: float = 0.0) -> RefinementPlan:
    """As :func:`plan_structured`, but a knot interval is refined only when
    the elements in its strip carry significant approximation error: summed
    out-of-tolerance count above the tk cutoff, or strip max distance above
    td when td is active; with no threshold, at least one unresolved point."""
    plan = RefinementPlan()
    _, b2e = space.overlap_maps()
    bounds = space.element_bounds()
    mids = {U: (bounds[:, 0] + bounds[:, 1]) / 2.0, V: (bounds[:, 2] + bounds[:, 3]) / 2.0}
    for bi, axis, a, b, seg in _interval_spans(space, flagged_b, dirs, min_interval):
        eids = b2e[bi]
        mid = mids[axis][eids]
        strip = eids[(a < mid) & (mid < b)]
        n_out = acc.n_out[strip].sum()
        if (("tk" in thresholds and n_out > cuts.tk)
                or ("td" in thresholds and acc.max_dist[strip].max(initial=0.0) > cuts.td)
                or (not thresholds and n_out >= 1)):
            plan.add(seg)
    return plan


def plan_element_extension(plan: RefinementPlan, space: LRSpace,
                           acc: AccuracyLedger, dirs: tuple[str, ...],
                           cuts: Cutoffs,
                           min_interval: float = 0.0) -> RefinementPlan:
    """Supplementary full-span splits for significant (tn-flagged) elements
    that the plan so far leaves uncut; each direction is judged
    individually."""
    significant = flagged_elements(acc, frozenset({"tn"}), cuts)
    for axis, ranges, seg in _full_spans(space, significant, dirs, min_interval):
        if not plan.splits_element(axis, *ranges):
            plan.add(seg)
    return plan


def build_plan(spec: StrategySpec, space: LRSpace, acc: AccuracyLedger,
               dirs: tuple[str, ...], iteration: int,
               min_interval: float = 0.0) -> RefinementPlan:
    """One iteration's refinement plan for the given strategy."""
    cuts = compute_thresholds(acc, iteration, space)
    if spec.trigger == "e":
        flagged = flagged_elements(acc, spec.thresholds, cuts)
        if spec.kind == "F":
            return plan_full_span(flagged, space, dirs, min_interval)
        return plan_min_span(flagged, space, acc, dirs, spec.subtype, min_interval)
    flagged_b = flagged_bsplines(space, acc, spec.thresholds, cuts)
    if spec.kind == "S":
        return plan_structured(flagged_b, space, dirs, min_interval)
    plan = plan_restricted(flagged_b, space, acc, dirs, spec.thresholds, cuts,
                           min_interval)
    if spec.extension_L:
        plan = plan_element_extension(plan, space, acc, dirs, cuts, min_interval)
    return plan


def should_switch(history: list[tuple[int, int]], unresolved_remaining: int) -> bool:
    """Switch to the backup strategy when the newly-resolved-points per
    new-coefficient ratio of the last iteration drops below 0.1, or when the
    space stopped growing while points remain unresolved."""
    if not history:
        return False
    d_res, d_coef = history[-1]
    if d_coef > 0:
        return d_res / d_coef < 0.1
    return unresolved_remaining > 0


def plan_to_segments(space: LRSpace, plan: RefinementPlan) -> list[MeshSegment]:
    """Materialize a plan: grow the knot tables with the new midpoint values
    and convert the planned lines into index-form meshline segments."""
    for axis in (U, V):
        vals = [s.value for s in plan.segments if s.axis == axis]
        if vals:
            space.ensure_values(axis, vals)
    segs = []
    for s in plan.segments:
        table = space.table(axis := s.axis)
        run = space.table(U if axis == V else V)
        fixed = int(np.searchsorted(table, s.value))
        lo = int(np.searchsorted(run, s.lo))
        hi = int(np.searchsorted(run, s.hi))
        segs.append(MeshSegment(axis, fixed, lo, hi))
    return segs
