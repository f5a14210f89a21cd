"""Strategy labels, thresholds and refinement-plan construction."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfit import strategy as strat
from lrfit.driver import RunConfig, run
from lrfit.fitting import FitConfig, fit_step
from lrfit.mesh import U, V
from lrfit.strategy import (Cutoffs, LabelError, PlanSegment, RefinementPlan,
                            build_plan, compute_thresholds, directions_for,
                            element_scores, parse_label, plan_to_segments,
                            should_switch)
from lrfit.surface import (AccuracyLedger, LRSurface, PointCloud, assign_points,
                           compute_accuracy)

from conftest import (random_refined_space, support_ranges, support_values,
                      uniform_tensor_space)


GOOD_LABELS = {
    "eFA": ("e", "F", None, False, "A", set(), None),
    "eFB": ("e", "F", None, False, "B", set(), None),
    "eFA tn": ("e", "F", None, False, "A", {"tn"}, None),
    "eFB td+n": ("e", "F", None, False, "B", {"td", "tn"}, None),
    "eMlB": ("e", "M", "l", False, "B", set(), None),
    "eMuA": ("e", "M", "u", False, "A", set(), None),
    "eMcB td": ("e", "M", "c", False, "B", {"td"}, None),
    "bSB": ("b", "S", None, False, "B", set(), None),
    "bSA td": ("b", "S", None, False, "A", {"td"}, None),
    "bRA tk": ("b", "R", None, False, "A", {"tk"}, None),
    "bRA td+k": ("b", "R", None, False, "A", {"td", "tk"}, None),
    "bR+eLA tk": ("b", "R", None, True, "A", {"tk"}, None),
    "eMc/FA tn": ("e", "M", "c", False, "A", {"tn"}, {"tn"}),
    "bR/eFB tk/n": ("b", "R", None, False, "B", {"tk"}, {"tn"}),
    "bR/eFB tk": ("b", "R", None, False, "B", {"tk"}, set()),
}

BAD_LABELS = [
    "", "e", "eF", "eFC", "xFA", "eMA", "eMxA", "eSA", "bFA", "bMcA",
    "eF+eLA", "bS+eLB", "eFA tq", "eFA t", "bSA tn", "bSA tk", "eFA tk",
    "eFA tn/k", "bR/eFB tk/k", "eFA tn extra", "bR/zzB", "e/FA",
]


class TestLabelGrammar:
    @pytest.mark.parametrize("label", sorted(GOOD_LABELS))
    def test_accepted(self, label):
        trig, kind, sub, ext, dirn, thr, sw = GOOD_LABELS[label]
        spec = parse_label(label)
        assert spec.trigger == trig
        assert spec.kind == kind
        assert spec.subtype == sub
        assert spec.extension_L == ext
        assert spec.direction_policy == dirn
        assert set(spec.thresholds) == thr
        if sw is None:
            assert spec.switch_to is None
        else:
            assert spec.switch_to is not None
            assert spec.switch_to.kind == "F"
            assert spec.switch_to.trigger == "e"
            assert set(spec.switch_to.thresholds) == sw
            assert spec.switch_to.direction_policy == dirn

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_rejected_with_grammar_echo(self, label):
        with pytest.raises(LabelError) as err:
            parse_label(label)
        assert "grammar" in str(err.value)


class TestDirections:
    def test_alternating(self):
        assert directions_for("A", 1) == (U,)
        assert directions_for("A", 2) == (V,)
        assert directions_for("A", 3) == (U,)

    def test_both(self):
        assert directions_for("B", 1) == (U, V)
        assert directions_for("B", 2) == (U, V)

    def test_invalid(self):
        with pytest.raises(ValueError):
            directions_for("A", 0)
        with pytest.raises(ValueError):
            directions_for("C", 1)


def tiny_ledger():
    """Hand-constructed two-element accuracy ledger for threshold oracles."""
    return AccuracyLedger(tolerance=0.5, distances=np.zeros(30),
                          n_points=np.array([10, 20]), n_out=np.array([4, 1]),
                          max_dist=np.array([2.0, 0.8]), sum_dist=np.array([6.0, 3.0]),
                          sum_out_dist=np.array([5.0, 0.7]))


class TestThresholds:
    def test_td_oracle(self):
        acc = tiny_ledger()
        sp = uniform_tensor_space((1, 1), n_elems=1)
        cuts = compute_thresholds(acc, 1, sp)
        g = acc.global_stats
        # hand recomputation of the weighted sum
        expect = 0.3 * 2.0 + 0.4 * (5.7 / 5) + 0.3 * 0.5
        assert abs(g.max_dist - 2.0) < 1e-15
        assert abs(cuts.td - expect) < 1e-12

    def test_tn_oracle(self):
        acc = tiny_ledger()
        sp = uniform_tensor_space((1, 1), n_elems=1)
        cuts = compute_thresholds(acc, 1, sp)
        scores = element_scores(acc)
        assert np.allclose(scores, [4 * (1 + 2.0 / 0.5), 1 * (1 + 0.8 / 0.5)])
        assert abs(cuts.tn - (0.5 * scores.min() + 0.5 * scores.max())) < 1e-12

    def test_decay(self):
        acc = tiny_ledger()
        sp = uniform_tensor_space((1, 1), n_elems=1)
        c1 = compute_thresholds(acc, 1, sp)
        c3 = compute_thresholds(acc, 3, sp)
        assert abs(c3.td - 0.81 * c1.td) < 1e-12
        assert abs(c3.tn - 0.81 * c1.tn) < 1e-12

    def test_tk_fallback_to_support_size(self):
        """Dense data with few outliers trips the 1%-of-support-count rule."""
        acc = AccuracyLedger(tolerance=0.5, distances=np.zeros(10_000),
                             n_points=np.array([10_000]), n_out=np.array([5]),
                             max_dist=np.array([1.0]), sum_dist=np.array([100.0]),
                             sum_out_dist=np.array([5.0]))
        sp = uniform_tensor_space((1, 1), n_elems=1)
        cuts = compute_thresholds(acc, 1, sp)
        # every B-spline support holds all 10000 points, 100x above 100*5
        assert abs(cuts.tk - 100.0) < 1e-12


def fitted_accuracy(seed=5, n=3000, tol=0.05, n_elems=4):
    sp = uniform_tensor_space((2, 2), n_elems=n_elems)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = rng.uniform(0, 1, n)
    z = np.sin(6 * x) * np.cos(5 * y) + 0.3 * np.exp(-((x - 0.7) ** 2
                                                       + (y - 0.3) ** 2) / 0.01)
    cloud = PointCloud(np.c_[x, y, z])
    surf = LRSurface(sp)
    asn = assign_points(surf, cloud)
    fit_step(sp, cloud, FitConfig(), 0, assignment=asn)
    acc = compute_accuracy(surf, cloud, asn, tol)
    return sp, cloud, acc


class TestPlans:
    @pytest.mark.parametrize("label", ["eFB tn", "eFB td", "eMcB td",
                                       "bSB td", "bRB tk", "bRB td"])
    def test_thresholded_plan_is_subset(self, label):
        sp, _cloud, acc = fitted_accuracy()
        spec_t = parse_label(label)
        spec_0 = parse_label(label.split()[0])
        dirs = directions_for("B", 1)
        plan_t = build_plan(spec_t, sp, acc, dirs, 1)
        plan_0 = build_plan(spec_0, sp, acc, dirs, 1)
        assert set(plan_t.segments) <= set(plan_0.segments)

    def test_plans_deterministic(self):
        sp, _cloud, acc = fitted_accuracy()
        for label in ["eFB", "eMcB", "bSB", "bRB tk", "bR+eLB tk"]:
            spec = parse_label(label)
            a = build_plan(spec, sp, acc, (U, V), 1)
            b = build_plan(spec, sp, acc, (U, V), 1)
            assert a.segments == b.segments

    def test_full_span_covers_overlapping_supports(self):
        sp, _cloud, acc = fitted_accuracy()
        plan = build_plan(parse_label("eFB"), sp, acc, (U, V), 1)
        keys = sp.keys_sorted()
        e2b, _ = sp.overlap_maps()
        for seg in plan.segments:
            # the planned line sits at an element midpoint
            table = sp.table(seg.axis)
            assert not np.isclose(table, seg.value).any()
            assert seg.lo < seg.hi

    def test_min_span_narrower_than_full_span(self):
        sp, _cloud, acc = fitted_accuracy()
        full = build_plan(parse_label("eFB"), sp, acc, (U, V), 1)
        mins = build_plan(parse_label("eMlB"), sp, acc, (U, V), 1)
        width = {}
        for seg in full.segments:
            width[(seg.axis, seg.value)] = seg.hi - seg.lo
        for seg in mins.segments:
            key = (seg.axis, seg.value)
            if key in width:
                assert seg.hi - seg.lo <= width[key] + 1e-12

    def test_structured_covers_every_local_interval(self):
        sp, _cloud, acc = fitted_accuracy()
        plan = build_plan(parse_label("bSB"), sp, acc, (U, V), 1)
        flagged = strat.flagged_bsplines(sp, acc, frozenset(), Cutoffs(0, 0, 0))
        keys = sp.keys_sorted()
        planned = {(s.axis, s.value, s.lo, s.hi) for s in plan.segments}
        for bi in flagged:
            for axis in (U, V):
                _, _, o0, o1 = support_ranges(sp, keys[bi], axis)
                for a, b in strat._local_intervals(sp, keys[bi], axis):
                    assert (axis, (a + b) / 2, o0, o1) in planned

    def test_min_interval_suppresses_planning(self):
        sp, _cloud, acc = fitted_accuracy()
        plan = build_plan(parse_label("eFB"), sp, acc, (U, V), 1, min_interval=10.0)
        assert len(plan) == 0

    def test_element_extension_adds_only_uncut(self):
        sp, _cloud, acc = fitted_accuracy()
        base = build_plan(parse_label("bRB tk"), sp, acc, (U, V), 1)
        ext = build_plan(parse_label("bR+eLB tk"), sp, acc, (U, V), 1)
        assert set(base.segments) <= set(ext.segments)

    def test_plan_to_segments_midpoints_inserted(self):
        sp, _cloud, acc = fitted_accuracy()
        plan = build_plan(parse_label("eFB"), sp, acc, (U, V), 1)
        segs = plan_to_segments(sp, plan)
        assert len(segs) == len(plan)
        for ps, ms in zip(plan.segments, segs):
            table = sp.table(ms.axis)
            orth = sp.table(V if ms.axis == U else U)
            assert table[ms.fixed] == ps.value
            assert orth[ms.lo] == ps.lo and orth[ms.hi] == ps.hi


class TestSwitch:
    def test_low_yield_triggers(self):
        assert should_switch([(5, 100)], unresolved_remaining=50)
        assert not should_switch([(50, 100)], unresolved_remaining=50)

    def test_stagnation_triggers(self):
        assert should_switch([(0, 0)], unresolved_remaining=10)
        assert not should_switch([(0, 0)], unresolved_remaining=0)

    def test_empty_history(self):
        assert not should_switch([], unresolved_remaining=10)


# ----------------------------------------------------------------------
# plan-level differential test: planning from one statistics object per
# element, with per-B-spline sums and element loops, as the oracle of the
# array-based planning

@dataclass
class ElementStats:
    n_points: int = 0
    n_out: int = 0
    max_dist: float = 0.0
    sum_dist: float = 0.0
    sum_out_dist: float = 0.0


class ObjectPlanner:
    """Refinement plans computed element by element from :class:`ElementStats`."""

    def __init__(self, space, cloud, element_of, tolerance):
        self.space, self.tol = space, tolerance
        d = np.abs(LRSurface(space).evaluate(cloud.x, cloud.y) - cloud.z)
        self.per = [ElementStats() for _ in range(len(space.elements()))]
        for e, di in zip(element_of.tolist(), d.tolist()):
            s = self.per[e]
            s.n_points += 1
            s.max_dist = max(s.max_dist, di)
            s.sum_dist += di
            if di > tolerance:
                s.n_out += 1
                s.sum_out_dist += di
        self.keys = space.keys_sorted()
        self.e2b, self.b2e = space.overlap_maps()
        self.support = self.support_stats()

    def bounds(self, e):
        iu0, iu1, iv0, iv1 = self.space.elements()[e]
        sp = self.space
        return sp.u[iu0], sp.u[iu1], sp.v[iv0], sp.v[iv1]

    def support_stats(self):
        pts = np.array([sum(self.per[e].n_points for e in b) for b in self.b2e])
        out = np.array([sum(self.per[e].n_out for e in b) for b in self.b2e])
        mx = np.array([max(self.per[e].max_dist for e in b) for b in self.b2e])
        return pts, out, mx

    def scores(self):
        return np.array([s.n_out * (1.0 + s.max_dist / self.tol) for s in self.per])

    def cutoffs(self, iteration):
        f = 0.9 ** max(iteration - 1, 0)
        n_out = sum(s.n_out for s in self.per)
        max_d = max(s.max_dist for s in self.per)
        avg_out = sum(s.sum_out_dist for s in self.per) / n_out if n_out else 0.0
        td = f * (0.3 * max_d + 0.4 * avg_out + 0.3 * self.tol)
        scores = self.scores()
        tn = f * (0.5 * scores.min() + 0.5 * scores.max())
        pts, out, _ = self.support
        tk = 0.01 * pts.mean() if pts.mean() > 100.0 * out.mean() else out.mean()
        return Cutoffs(td=td, tn=tn, tk=f * tk)

    def flagged_elements(self, thresholds, cuts):
        scores = self.scores()
        return [e for e, s in enumerate(self.per)
                if s.n_out >= 1
                and not ("td" in thresholds and s.max_dist <= cuts.td)
                and not ("tn" in thresholds and scores[e] <= cuts.tn)]

    def full_span(self, plan, elements, dirs, min_interval, uncut_only):
        for e in elements:
            bounds = self.bounds(e)
            for axis in dirs:
                d0, d1, o0, o1 = strat._axis_ranges(bounds, axis)
                if not strat._wide_enough(d0, d1, min_interval):
                    continue
                if uncut_only and plan.splits_element(axis, d0, d1, o0, o1):
                    continue
                lo, hi = o0, o1
                for bi in self.e2b[e]:
                    _, _, s0, s1 = support_ranges(self.space, self.keys[bi], axis)
                    lo, hi = min(lo, s0), max(hi, s1)
                plan.add(PlanSegment(axis, (d0 + d1) / 2.0, lo, hi))
        return plan

    def min_span(self, flagged, dirs, sub, min_interval):
        plan = RefinementPlan()
        sp, keys = self.space, self.keys
        pts_b, out_b, _ = self.support
        for e in flagged:
            bounds = self.bounds(e)
            bids = self.e2b[e]
            areas, shares = [], []
            for bi in bids:
                su0, su1, sv0, sv1 = support_values(sp, keys[bi])
                areas.append((su1 - su0) * (sv1 - sv0))
                shares.append(out_b[bi] / pts_b[bi] if pts_b[bi] > 0 else 0.0)
            areas, shares = np.asarray(areas), np.asarray(shares)
            if sub == "l":
                score = areas
            elif sub == "u":
                score = shares
            else:
                def norm(x):
                    rng = x.max() - x.min()
                    return (x - x.min()) / rng if rng > 0 else np.zeros_like(x)
                score = 0.5 * (norm(areas) + norm(shares))
            cand = [i for i in range(len(bids)) if score[i] == score.max()]
            if len(cand) > 1:
                ecu, ecv = (bounds[0] + bounds[1]) / 2.0, (bounds[2] + bounds[3]) / 2.0

                def offcenter(i):
                    su0, su1, sv0, sv1 = support_values(sp, keys[bids[i]])
                    return np.hypot((su0 + su1) / 2.0 - ecu, (sv0 + sv1) / 2.0 - ecv)
                dists = [offcenter(i) for i in cand]
                cand = [i for i, d in zip(cand, dists) if d == min(dists)]
            chosen = bids[min(cand)]
            for axis in dirs:
                d0, d1, _, _ = strat._axis_ranges(bounds, axis)
                if not strat._wide_enough(d0, d1, min_interval):
                    continue
                _, _, s0, s1 = support_ranges(sp, keys[chosen], axis)
                plan.add(PlanSegment(axis, (d0 + d1) / 2.0, s0, s1))
        return plan

    def restricted(self, flagged_b, dirs, thresholds, cuts, min_interval):
        plan = RefinementPlan()
        for bi in flagged_b:
            key = self.keys[bi]
            for axis in dirs:
                _, _, o0, o1 = support_ranges(self.space, key, axis)
                for a, b in strat._local_intervals(self.space, key, axis):
                    if not strat._wide_enough(a, b, min_interval):
                        continue
                    n_out, max_d = 0, 0.0
                    for e in self.b2e[bi]:
                        d0, d1, _, _ = strat._axis_ranges(self.bounds(int(e)), axis)
                        if a < (d0 + d1) / 2.0 < b:
                            n_out += self.per[int(e)].n_out
                            max_d = max(max_d, self.per[int(e)].max_dist)
                    take = "tk" in thresholds and n_out > cuts.tk
                    if not take and "td" in thresholds:
                        take = max_d > cuts.td
                    if not thresholds:
                        take = n_out >= 1
                    if take:
                        plan.add(PlanSegment(axis, (a + b) / 2.0, o0, o1))
        return plan

    def plan(self, spec, dirs, iteration, min_interval=0.0):
        cuts = self.cutoffs(iteration)
        thr = spec.thresholds
        if spec.trigger == "e":
            flagged = self.flagged_elements(thr, cuts)
            if spec.kind == "F":
                return self.full_span(RefinementPlan(), flagged, dirs, min_interval, False)
            return self.min_span(flagged, dirs, spec.subtype, min_interval)
        _, out_b, max_b = self.support
        flagged_b = [bi for bi in range(len(self.keys)) if out_b[bi] >= 1
                     and not ("td" in thr and max_b[bi] <= cuts.td)]
        if spec.kind == "S":
            return strat.plan_structured(flagged_b, self.space, dirs, min_interval)
        plan = self.restricted(flagged_b, dirs, thr, cuts, min_interval)
        if spec.extension_L:
            significant = self.flagged_elements({"tn"}, cuts)
            plan = self.full_span(plan, significant, dirs, min_interval, True)
        return plan


def smooth_bump_cloud(seed, n=3000, n_spikes=0):
    """The bump surface of :func:`fitted_accuracy`, with ``n_spikes`` points
    lifted by 1."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    z = np.sin(6 * x) * np.cos(5 * y) + 0.3 * np.exp(-((x - 0.7) ** 2
                                                       + (y - 0.3) ** 2) / 0.01)
    z[rng.choice(n, n_spikes, replace=False)] += 1.0
    return PointCloud(np.c_[x, y, z])


@pytest.fixture(scope="module")
def fitted_refined_spaces():
    """``(space, accuracy ledger, object-based planner)`` for spaces refined
    and fitted by the adaptive loop and for randomly refined fitted spaces."""
    cases = []
    for label, degrees, n_iter, seed in (("eFB", (2, 2), 1, 21), ("bRA tk", (3, 2), 2, 22),
                                         ("eMcB", (2, 3), 1, 23)):
        cloud = smooth_bump_cloud(seed)
        surface, _ = run(cloud, RunConfig(strategy=label, tolerance=0.005, degrees=degrees,
                                          max_iterations=n_iter))
        cases.append((surface.space, cloud, 0.005))
    # the spikes make significant elements that restricted refinement under
    # tk leaves uncut (all of them at seed 26, some at seed 27), for the
    # element extension to add
    for seed, degrees, n_spikes, tol in ((24, (2, 2), 0, 0.05), (25, (1, 2), 0, 0.05),
                                         (26, (2, 2), 6, 0.3), (27, (2, 2), 15, 0.06)):
        sp = random_refined_space(seed, degrees, n_insertions=10)
        cloud = smooth_bump_cloud(seed, 6000, n_spikes)
        fit_step(sp, cloud, FitConfig(), 0)
        cases.append((sp, cloud, tol))
    out = []
    for sp, cloud, tol in cases:
        asn = assign_points(LRSurface(sp), cloud)
        out.append((sp, compute_accuracy(LRSurface(sp), cloud, asn, tol),
                    ObjectPlanner(sp, cloud, asn.element_of, tol)))
    return out


PLAN_LABELS = [
    f"{base} t{thr}" if thr else base
    for base, thrs in (("eFA", ["", "d", "n", "d+n"]), ("eFB", ["", "d", "n", "d+n"]),
                       ("eMlB", ["", "d", "n"]), ("eMuB", ["", "d", "n"]),
                       ("eMcB", ["", "d", "n", "d+n"]), ("bSB", ["", "d"]),
                       ("bRB", ["", "d", "k", "d+k"]), ("bR+eLB", ["", "d", "k", "d+k"]),
                       ("bR/eFB", ["k/n", "d+k/d+n"]))
    for thr in thrs]


@pytest.mark.parametrize("label", PLAN_LABELS)
def test_plans_equal_object_based_planning(label, fitted_refined_spaces):
    spec = parse_label(label)
    specs = [spec] + ([spec.switch_to] if spec.switch_to is not None else [])
    n_planned = 0
    for space, acc, oracle in fitted_refined_spaces:
        for sp_spec in specs:
            for level in (1, 2):
                # exact: the cutoffs are sums in element order, as the oracle's
                assert compute_thresholds(acc, level, space) == oracle.cutoffs(level)
                dirs = directions_for(sp_spec.direction_policy, level)
                for min_interval in (0.0, 0.03):
                    ours = build_plan(sp_spec, space, acc, dirs, level, min_interval)
                    ref = oracle.plan(sp_spec, dirs, level, min_interval)
                    assert ours.segments == ref.segments, (sp_spec.label, level)
                    n_planned += len(ours)
    assert n_planned > 0
