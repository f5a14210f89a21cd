"""Surface evaluation, point assignment, accuracy ledgers, collocation."""

import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfit.io import read_surface
from lrfit.mesh import U, V, make_tensor_mesh
from lrfit.surface import (AccuracyLedger, Collocation, DomainError, LRSurface,
                           PointCloud, approximation_efficiency, assign_points,
                           compute_accuracy)

from conftest import (local_knot_values, random_refined_space, tensor_eval_oracle,
                      uniform_tensor_space)

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def seeded_surface(seed, degrees=(2, 2), n_insertions=8):
    space = random_refined_space(seed, degrees, n_insertions)
    rng = np.random.default_rng(seed + 1)
    space.set_coeffs(rng.normal(size=len(space)))
    return LRSurface(space)


class TestPointCloud:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 2)))

    def test_columns(self):
        c = PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert len(c) == 2
        assert c.x.tolist() == [1.0, 4.0]
        assert c.z.tolist() == [3.0, 6.0]


class TestEvaluation:
    @pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (3, 3), (2, 3)])
    def test_tensor_matches_oracle(self, degrees):
        p1, p2 = degrees
        k = np.linspace(0, 2, 5)
        ku = np.r_[[0.0] * p1, k, [2.0] * p1]
        kv = np.r_[[0.0] * p2, k, [2.0] * p2]
        sp = make_tensor_mesh(ku, kv, degrees)
        rng = np.random.default_rng(0)
        n1 = len(k) + p1 - 1
        n2 = len(k) + p2 - 1
        grid = rng.normal(size=(n1, n2))
        # map each key to its tensor position by local-knot ordering
        coeffs_by_key = {}
        keys = sp.keys_sorted()
        us = sorted({key[0] for key in keys})
        vs = sorted({key[1] for key in keys})
        for key in keys:
            coeffs_by_key[key] = grid[us.index(key[0]), vs.index(key[1])]
        sp.set_coeffs(np.array([coeffs_by_key[k_] for k_ in keys]))
        surf = LRSurface(sp)
        uu = rng.uniform(0, 2, 200)
        vv = rng.uniform(0, 2, 200)
        ours = surf.evaluate(uu, vv)
        ref = tensor_eval_oracle(ku, kv, degrees, grid, uu, vv)
        assert np.abs(ours - ref).max() < 1e-12

    def test_constant_surface(self):
        sp = uniform_tensor_space((2, 2), n_elems=3)
        sp.set_coeffs(np.full(len(sp), 4.25))
        surf = LRSurface(sp)
        rng = np.random.default_rng(1)
        vals = surf.evaluate(rng.uniform(0, 1, 100), rng.uniform(0, 1, 100))
        assert np.abs(vals - 4.25).max() < 1e-13

    def test_domain_corners_and_scalar(self):
        surf = seeded_surface(3)
        u0, u1, v0, v1 = surf.domain
        assert isinstance(surf.evaluate(u1, v1), float)
        surf.evaluate(np.array([u0, u1]), np.array([v0, v1]))

    def test_outside_domain_raises(self):
        surf = seeded_surface(4)
        u0, u1, v0, v1 = surf.domain
        with pytest.raises(DomainError):
            surf.evaluate(u1 + 0.1, v0)

    @pytest.mark.parametrize("nan_u, nan_v", [(True, False), (False, True), (True, True)])
    def test_nan_query_raises(self, nan_u, nan_v):
        """A NaN coordinate is not inside the closed domain box; it used to
        slip through as a NaN height."""
        surf = seeded_surface(4)
        u0, u1, v0, v1 = surf.domain
        u = np.array([np.nan if nan_u else u0, 0.5 * (u0 + u1)])
        v = np.array([np.nan if nan_v else v0, 0.5 * (v0 + v1)])
        with pytest.raises(DomainError):
            surf.evaluate(u, v)
        with pytest.raises(DomainError):
            surf.evaluate(u[0], v[0])

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=10, deadline=None)
    def test_refined_equals_bruteforce(self, seed):
        """Element-grouped evaluation equals the naive sum over every
        B-spline (the independent slow path)."""
        from lrfit.basis import basis_value

        surf = seeded_surface(seed, n_insertions=5)
        sp = surf.space
        rng = np.random.default_rng(seed)
        uu = rng.uniform(sp.u[0], sp.u[-1], 50)
        vv = rng.uniform(sp.v[0], sp.v[-1], 50)
        naive = np.zeros(50)
        for key, s, c in zip(sp.keys_sorted(), sp.scale_array(), sp.coeff_array()):
            tu, tv = local_knot_values(sp, key)
            naive += (s * c * basis_value(tu, sp.degrees[0], uu, sp.u[-1])
                      * basis_value(tv, sp.degrees[1], vv, sp.v[-1]))
        assert np.abs(surf.evaluate(uu, vv) - naive).max() < 1e-12


class TestEvaluatePeakMemory:
    """``evaluate`` works in blocks of ``PAIR_BLOCK`` points: on a 500 x 500
    grid its tracemalloc peak stays under 16 MB on both stored benchmark
    documents, the 2 MB of heights included (one pass over all points at
    once, or blocks four times larger, would exceed it)."""

    @pytest.mark.parametrize("name", ["dunes1_p2.lrb", "dunes1_p3.lrb"])
    def test_grid_peak(self, name):
        surface = read_surface(str(DATA / name))
        u0, u1, v0, v1 = surface.domain
        uu, vv = np.meshgrid(np.linspace(u0, u1, 500), np.linspace(v0, v1, 500))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            surface.evaluate(uu, vv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestAssignment:
    def test_every_point_assigned_once(self):
        surf = seeded_surface(7)
        sp = surf.space
        rng = np.random.default_rng(7)
        cloud = PointCloud(np.c_[rng.uniform(sp.u[0], sp.u[-1], 500),
                                 rng.uniform(sp.v[0], sp.v[-1], 500),
                                 rng.normal(size=500)])
        asn = assign_points(surf, cloud)
        assert asn.element_of.shape == (500,)
        assert ((asn.element_of >= 0) & (asn.element_of < len(sp.elements()))).all()
        b = sp.element_bounds()[asn.element_of]
        assert ((cloud.x >= b[:, 0]) & (cloud.x <= b[:, 1])).all()
        assert ((cloud.y >= b[:, 2]) & (cloud.y <= b[:, 3])).all()
        # the cell order holds every point exactly once
        assert (np.bincount(asn.order, minlength=500) == 1).all()
        assert asn.start[-1] == 500

    def test_interior_meshline_goes_to_greater_side(self):
        sp = uniform_tensor_space((1, 1), n_elems=2)
        surf = LRSurface(sp)
        cloud = PointCloud(np.array([[0.5, 0.25, 0.0]]))
        asn = assign_points(surf, cloud)
        iu0, _, _, _ = sp.elements()[int(asn.element_of[0])]
        assert sp.u[iu0] == 0.5


class TestAccuracy:
    def test_aggregation_matches_bruteforce(self):
        surf = seeded_surface(11)
        sp = surf.space
        rng = np.random.default_rng(11)
        n = 400
        cloud = PointCloud(np.c_[rng.uniform(sp.u[0], sp.u[-1], n),
                                 rng.uniform(sp.v[0], sp.v[-1], n),
                                 rng.normal(size=n)])
        asn = assign_points(surf, cloud)
        tol = 0.4
        acc = compute_accuracy(surf, cloud, asn, tol)
        d = np.abs(surf.evaluate(cloud.x, cloud.y) - cloud.z)
        g = acc.global_stats
        assert g.n_points == n
        assert g.n_out == int((d > tol).sum())
        assert abs(g.max_dist - d.max()) < 1e-15
        assert abs(g.avg_dist - d.mean()) < 1e-12
        if g.n_out:
            assert abs(g.avg_out_dist - d[d > tol].mean()) < 1e-12
        # per-element stats recombine to the same totals
        assert acc.n_points.sum() == n
        assert acc.n_out.sum() == g.n_out
        # Python scalars, whose repr the report CSV writes
        assert all(type(v) is float for v in (g.max_dist, g.avg_dist, g.avg_out_dist))
        assert type(g.n_out) is int and type(g.n_points) is int

    def test_point_exactly_at_tolerance_is_inside(self):
        sp = uniform_tensor_space((1, 1), n_elems=1)
        sp.set_coeffs(np.zeros(len(sp)))
        surf = LRSurface(sp)
        cloud = PointCloud(np.array([[0.5, 0.5, 0.25]]))
        asn = assign_points(surf, cloud)
        acc = compute_accuracy(surf, cloud, asn, tolerance=0.25)
        assert acc.global_stats.n_out == 0

    def test_efficiency(self):
        assert approximation_efficiency(90, 30) == 3.0
        with pytest.raises(ValueError):
            approximation_efficiency(10, 0)


class TestCollocation:
    def test_matrix_rows_match_evaluation(self):
        surf = seeded_surface(13)
        sp = surf.space
        rng = np.random.default_rng(13)
        n = 300
        cloud = PointCloud(np.c_[rng.uniform(sp.u[0], sp.u[-1], n),
                                 rng.uniform(sp.v[0], sp.v[-1], n),
                                 rng.normal(size=n)])
        asn = assign_points(surf, cloud)
        colloc = Collocation(cloud)
        colloc.update(sp, asn)
        pred = colloc.predict(sp)
        direct = surf.evaluate(cloud.x, cloud.y)
        assert np.abs(pred - direct).max() < 1e-12
        # partition of unity seen through the matrix: rows sum to one
        a = colloc.matrix(sp)
        assert np.abs(np.asarray(a.sum(axis=1)).ravel() - 1.0).max() < 1e-12

    def test_cache_survives_refinement(self):
        surf = seeded_surface(17, n_insertions=4)
        sp = surf.space
        rng = np.random.default_rng(17)
        n = 200
        cloud = PointCloud(np.c_[rng.uniform(sp.u[0], sp.u[-1], n),
                                 rng.uniform(sp.v[0], sp.v[-1], n),
                                 rng.normal(size=n)])
        colloc = Collocation(cloud)
        asn = assign_points(surf, cloud)
        colloc.update(sp, asn)
        from conftest import random_refinement_step
        for _ in range(4):
            random_refinement_step(sp, rng)
        sp.set_coeffs(rng.normal(size=len(sp)))
        asn = assign_points(LRSurface(sp), cloud)
        colloc.update(sp, asn)
        pred = colloc.predict(sp)
        direct = LRSurface(sp).evaluate(cloud.x, cloud.y)
        assert np.abs(pred - direct).max() < 1e-12
