"""Penalized least squares, the thin-plate penalty, and the MBA update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfit.fitting import (FitConfig, SingularSystemError, fit_step, lsq_fit,
                           mba_update, smoothing_matrix)
from lrfit.surface import (Collocation, LRSurface, PointCloud, assign_points,
                           compute_accuracy)

from conftest import random_refined_space, uniform_tensor_space


def sample_in_space(space, n, seed):
    """A cloud drawn exactly from a random surface of the given space."""
    rng = np.random.default_rng(seed)
    space.set_coeffs(rng.normal(size=len(space)))
    surf = LRSurface(space)
    x = rng.uniform(space.u[0], space.u[-1], n)
    y = rng.uniform(space.v[0], space.v[-1], n)
    return PointCloud(np.c_[x, y, surf.evaluate(x, y)]), space.coeff_array()


TIGHT = FitConfig(alpha_smooth=0.0, solver_tol=1e-13, solver_max_iter=20000)


class TestLSQ:
    @pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (3, 3)])
    def test_in_space_recovery(self, degrees):
        space = random_refined_space(21, degrees, n_insertions=5)
        cloud, _truth = sample_in_space(space, 4000, 22)
        space.set_coeffs(np.zeros(len(space)))
        lsq_fit(space, cloud, TIGHT)
        coeffs = lsq_fit(space, cloud, TIGHT)
        space.set_coeffs(coeffs)
        pred = LRSurface(space).evaluate(cloud.x, cloud.y)
        assert np.abs(pred - cloud.z).max() < 1e-9

    def test_plane_reproduced_through_smoothing(self):
        """A plane has zero thin-plate energy, so any smoothing weight
        leaves it untouched."""
        space = uniform_tensor_space((2, 2), n_elems=3)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 3000)
        y = rng.uniform(0, 1, 3000)
        cloud = PointCloud(np.c_[x, y, 2.0 * x - y + 3.0])
        cfg = FitConfig(alpha_smooth=10.0, solver_tol=1e-13,
                        solver_max_iter=20000)
        coeffs = lsq_fit(space, cloud, cfg)
        space.set_coeffs(coeffs)
        pred = LRSurface(space).evaluate(x, y)
        assert np.abs(pred - cloud.z).max() < 1e-8

    def test_empty_support_column_raises_without_smoothing(self):
        space = uniform_tensor_space((2, 2), n_elems=4)
        # all data in one corner leaves far-away B-splines unsupported
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 0.2, 200)
        y = rng.uniform(0, 0.2, 200)
        cloud = PointCloud(np.c_[x, y, np.ones(200)])
        with pytest.raises(SingularSystemError):
            lsq_fit(space, cloud, FitConfig(alpha_smooth=0.0))

    def test_smoothing_regularizes_empty_columns(self):
        space = uniform_tensor_space((2, 2), n_elems=4)
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 0.2, 200)
        y = rng.uniform(0, 0.2, 200)
        cloud = PointCloud(np.c_[x, y, np.ones(200)])
        coeffs = lsq_fit(space, cloud, FitConfig())   # default weight > 0
        assert np.isfinite(coeffs).all()


class TestSmoothingMatrix:
    def test_symmetric_and_psd(self):
        space = random_refined_space(31, (2, 2), n_insertions=5)
        m = smoothing_matrix(space).toarray()
        assert np.array_equal(m, m.T)
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-10

    def test_zero_for_bilinear(self):
        space = uniform_tensor_space((1, 1), n_elems=4)
        m = smoothing_matrix(space)
        assert np.abs(m.toarray()).max() == 0.0

    def test_plane_has_zero_energy(self):
        space = uniform_tensor_space((2, 2), n_elems=3)
        # Greville-style coefficients of the plane z = 2u - v + 3
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 2000)
        y = rng.uniform(0, 1, 2000)
        cloud = PointCloud(np.c_[x, y, 2 * x - y + 3])
        coeffs = lsq_fit(space, cloud, TIGHT)
        m = smoothing_matrix(space)
        assert abs(coeffs @ (m @ coeffs)) < 1e-10


class TestMBA:
    @pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (3, 3)])
    def test_single_point_exact(self, degrees):
        """With one data point, one MBA step interpolates it exactly."""
        space = uniform_tensor_space(degrees, n_elems=2)
        cloud = PointCloud(np.array([[0.4, 0.6, 2.5]]))
        coeffs = mba_update(space, cloud)
        space.set_coeffs(coeffs)
        val = LRSurface(space).evaluate(0.4, 0.6)
        assert abs(val - 2.5) < 1e-13

    def test_rms_contraction_on_smooth_data(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            space = uniform_tensor_space((2, 2), n_elems=4)
            n = 1500
            x = rng.uniform(0, 1, n)
            y = rng.uniform(0, 1, n)
            a, b = rng.uniform(0.5, 2.0, 2)
            z = np.sin(a * 3 * x) * np.cos(b * 3 * y)
            cloud = PointCloud(np.c_[x, y, z])
            surf = LRSurface(space)
            asn = assign_points(surf, cloud)
            colloc = Collocation(cloud)
            prev = None
            for _ in range(4):
                coeffs = mba_update(space, cloud, colloc, asn)
                space.set_coeffs(coeffs)
                resid = surf.evaluate(x, y) - z
                rms = float(np.sqrt(np.mean(resid ** 2)))
                if prev is not None:
                    assert rms <= prev + 1e-12
                prev = rms


class TestFitStep:
    def test_schedule_switches_to_mba(self):
        space = uniform_tensor_space((2, 2), n_elems=3)
        rng = np.random.default_rng(51)
        n = 800
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        cloud = PointCloud(np.c_[x, y, np.sin(4 * x) + y])
        cfg = FitConfig(lsq_iterations=2)
        for it in range(4):
            coeffs = fit_step(space, cloud, cfg, it)
            assert np.array_equal(coeffs, space.coeff_array())

    def test_shift_equivariance(self):
        """Fitting z + c yields the same surface shifted by c."""
        space_a = uniform_tensor_space((2, 2), n_elems=3)
        space_b = uniform_tensor_space((2, 2), n_elems=3)
        rng = np.random.default_rng(61)
        n = 1200
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        z = np.sin(3 * x) * y
        ca = lsq_fit(space_a, PointCloud(np.c_[x, y, z]), TIGHT)
        cb = lsq_fit(space_b, PointCloud(np.c_[x, y, z + 5.0]), TIGHT)
        assert np.abs((cb - ca) - 5.0).max() < 1e-7


def coo_collocation_matrix(colloc, space):
    """The collocation matrix assembled from COO triplets, column by column
    from the cached rows: the plain construction the compressed assembly
    must reproduce entry for entry and in the same storage order."""
    from scipy import sparse

    scales = space.scale_array()
    rows, cols, vals = [], [], []
    for bi, vk in enumerate(colloc._order):
        ids, w = colloc._rows[vk]
        rows.append(ids)
        cols.append(np.full(len(ids), bi, dtype=np.int64))
        vals.append(scales[bi] * w)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(colloc.cloud), len(colloc._order))).tocsr()


class TestOneMatrixPerFit:
    @pytest.mark.parametrize("iteration", [0, 2])   # LSQ, then MBA
    def test_predict_reuses_the_fit_matrix(self, monkeypatch, iteration):
        space = random_refined_space(71, (2, 2), n_insertions=10)
        rng = np.random.default_rng(71)
        n = 3000
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        cloud = PointCloud(np.c_[x, y, np.sin(5 * x) * np.cos(3 * y)])
        colloc = Collocation(cloud)
        build = Collocation.matrix
        builds = []

        def counted(self, sp):
            builds.append(sp)
            return build(self, sp)

        monkeypatch.setattr(Collocation, "matrix", counted)
        asn = assign_points(LRSurface(space), cloud)
        fit_step(space, cloud, FitConfig(), 0, colloc, asn)
        colloc.predict(space)
        builds.clear()
        fit_step(space, cloud, FitConfig(), iteration, colloc, asn)
        pred = colloc.predict(space)
        assert len(builds) == 1
        # the matrix is released: a second predict builds a fresh one
        assert np.array_equal(colloc.predict(space), pred)
        assert len(builds) == 2
        a = build(colloc, space)
        assert np.array_equal(pred, a @ space.coeff_array())
        ref = coo_collocation_matrix(colloc, space)
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)
        assert np.array_equal(a.data, ref.data)

    def test_run_builds_one_matrix_per_fit(self, monkeypatch):
        from lrfit.driver import RunConfig, run

        build = Collocation.matrix
        builds = []
        monkeypatch.setattr(Collocation, "matrix",
                            lambda self, sp: builds.append(1) or build(self, sp))
        rng = np.random.default_rng(72)
        n = 4000
        x = rng.uniform(0, 10, n)
        y = rng.uniform(0, 10, n)
        cloud = PointCloud(np.c_[x, y, np.sin(1.5 * x) * np.cos(1.2 * y)])
        _surface, ledger = run(cloud, RunConfig(strategy="eFB", tolerance=0.05,
                                                max_iterations=4))
        assert len(ledger.rows) >= 3
        assert len(builds) == len(ledger.rows)
