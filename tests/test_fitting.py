"""Penalized least squares, the thin-plate penalty, and the MBA update."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.interpolate import BSpline

from lrfit.basis import basis_deriv, basis_value
from lrfit.fitting import (FitConfig, SingularSystemError, fit_step, lsq_fit,
                           mba_update, smoothing_matrix)
from lrfit.io import read_surface
from lrfit.mesh import make_tensor_mesh
from lrfit.surface import (Collocation, LRSurface, PointCloud, _column_matrix, assign_points,
                           compute_accuracy)

from conftest import random_refined_space, uniform_tensor_space

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def sample_in_space(space, n, seed):
    """A cloud drawn exactly from a random surface of the given space."""
    rng = np.random.default_rng(seed)
    space.set_coeffs(rng.normal(size=len(space)))
    surf = LRSurface(space)
    x = rng.uniform(space.u[0], space.u[-1], n)
    y = rng.uniform(space.v[0], space.v[-1], n)
    return PointCloud(np.c_[x, y, surf.evaluate(x, y)]), space.coeff_array()


TIGHT = FitConfig(alpha_smooth=0.0, solver_tol=1e-13, solver_max_iter=20000)


class TestFitConfig:
    @pytest.mark.parametrize("field, value, rule", [
        ("alpha_smooth", float("nan"), "None or a finite number >= 0"),
        ("alpha_smooth", -1.0, "None or a finite number >= 0"),
        ("alpha_smooth", float("inf"), "None or a finite number >= 0"),
        ("solver_tol", float("nan"), "a finite number > 0"),
        ("solver_tol", -1.0, "a finite number > 0"),
        ("solver_tol", 0.0, "a finite number > 0"),
        ("solver_tol", float("inf"), "a finite number > 0"),
        ("solver_max_iter", 0, "at least 1"),
        ("solver_max_iter", -3, "at least 1"),
    ])
    def test_invalid_value_rejected(self, field, value, rule):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}, got {value!r}")):
            FitConfig(**{field: value})

    def test_boundary_values_accepted(self):
        FitConfig(alpha_smooth=None)
        FitConfig(alpha_smooth=0.0, solver_tol=1e-300, solver_max_iter=1)


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


def gram_1d(knots, degree, order):
    """``G[i, j] = integral N_i^(order) N_j^(order)`` of the B-splines of a
    full knot vector, from scipy and ``degree + 1`` Gauss points per knot
    interval (exact for these piecewise polynomials)."""
    n = len(knots) - degree - 1
    xg, wg = np.polynomial.legendre.leggauss(degree + 1)
    brk = np.unique(knots)
    lo, hi = brk[:-1, None], brk[1:, None]
    x = (0.5 * (lo + hi) + 0.5 * (hi - lo) * xg).ravel()
    w = (0.5 * (hi - lo) * wg).ravel()
    if order > degree:
        return np.zeros((n, n))
    vals = np.array([BSpline(knots, np.eye(n)[i], degree).derivative(order)(x)
                     if order else BSpline(knots, np.eye(n)[i], degree)(x)
                     for i in range(n)])
    return (vals * w) @ vals.T


def per_element_smoothing(space):
    """The thin-plate matrix assembled element by element: a dense block of
    all B-splines on each element from its own Gauss points, summed into a
    COO matrix.  The 1-D factors are memoized per direction, local knot
    indices and element interval."""
    p1, p2 = space.degrees
    w_twist = 2.0 if min(p1, p2) >= 2 else 0.0
    keys, scales = space.keys_sorted(), space.scale_array()
    e2b, _ = space.overlap_maps()
    tables = (space.u, space.v)
    gauss = [np.polynomial.legendre.leggauss(p + 1) for p in (p1, p2)]
    # a (element, B-spline) block lists the element's points u-major
    spread = (lambda f: np.repeat(f, p2 + 1), lambda f: np.tile(f, p1 + 1))
    factors = {}

    def factor(d, loc, i0, i1):
        """Value, first and second derivative of the direction-``d`` B-spline
        with local knot indices ``loc`` at the Gauss points of ``[i0, i1]``,
        spread over the element's points."""
        key = (d, loc, i0, i1)
        if key not in factors:
            table, p = tables[d], space.degrees[d]
            lo, hi = table[i0], table[i1]
            x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gauss[d][0]
            t, x_max = table[list(loc)], float(table[-1])
            factors[key] = [spread[d](f) for f in [basis_value(t, p, x, x_max)] + [
                basis_deriv(t, p, x, k, x_max) for k in (1, 2)]]
        return factors[key]

    ii, jj, vv = [], [], []
    bounds = space.element_bounds()
    for e, (iu0, iu1, iv0, iv1) in enumerate(space.elements().tolist()):
        bids = np.asarray(e2b[e])
        u0, u1, v0, v1 = bounds[e]
        wg = np.outer(0.5 * (u1 - u0) * gauss[0][1], 0.5 * (v1 - v0) * gauss[1][1]).ravel()
        rows = [[], [], []]
        for bi in bids:
            ku, kv = keys[bi]
            bu, bv = factor(0, ku, iu0, iu1), factor(1, kv, iv0, iv1)
            for r, (du, dv) in zip(rows, [(2, 0), (1, 1), (0, 2)]):
                r.append(scales[bi] * bu[du] * bv[dv])
        duu, duv, dvv = (np.array(r) for r in rows)
        wloc = (duu * wg) @ duu.T + w_twist * (duv * wg) @ duv.T + (dvv * wg) @ dvv.T
        ii.append(np.repeat(bids, len(bids)))
        jj.append(np.tile(bids, len(bids)))
        vv.append(wloc.ravel())
    n = len(keys)
    m = sparse.coo_matrix((np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))),
                          shape=(n, n)).tocsr()
    return (m + m.T) * 0.5


def per_bspline_smoothing(space):
    """The thin-plate matrix with ``D`` assembled one B-spline column at a
    time: six single-vector kernel calls over the Gauss points of the
    elements in its support, its ``D_uu``, ``D_uv`` and ``D_vv`` rows stacked
    in that order.  The pair-block assembly must reproduce its bytes."""
    p1, p2 = space.degrees
    w_twist = 2.0 if min(p1, p2) >= 2 else 0.0
    u0, u1, v0, v1 = space.element_bounds().T
    xu, wu = np.polynomial.legendre.leggauss(p1 + 1)
    xv, wv = np.polynomial.legendre.leggauss(p2 + 1)
    half_u, half_v = 0.5 * (u1 - u0), 0.5 * (v1 - v0)
    gu = 0.5 * (u0 + u1)[:, None] + half_u[:, None] * xu
    gv = 0.5 * (v0 + v1)[:, None] + half_v[:, None] * xv
    shape = (len(u0), p1 + 1, p2 + 1)
    uq = np.broadcast_to(gu[:, :, None], shape).ravel()
    vq = np.broadcast_to(gv[:, None, :], shape).ravel()
    wq = ((half_u[:, None] * wu)[:, :, None] * (half_v[:, None] * wv)[:, None, :]).ravel()
    nq, n_pts = (p1 + 1) * (p2 + 1), len(wq)
    _, b2e = space.overlap_maps()
    cols = []
    ku, kv = space.knot_indices()
    for bi, (tu, tv) in enumerate(zip(space.u[ku], space.v[kv])):
        ids = (b2e[bi][:, None] * nq + np.arange(nq)).ravel()
        u, v = uq[ids], vq[ids]
        bu = [basis_value(tu, p1, u), basis_deriv(tu, p1, u, 1), basis_deriv(tu, p1, u, 2)]
        bv = [basis_value(tv, p2, v), basis_deriv(tv, p2, v, 1), basis_deriv(tv, p2, v, 2)]
        cols.append((np.concatenate([ids, ids + n_pts, ids + 2 * n_pts]),
                     np.concatenate([bu[2] * bv[0], bu[1] * bv[1], bu[0] * bv[2]])))
    d = _column_matrix(cols, space.scale_array(), 3 * n_pts)
    w = sparse.diags(np.concatenate([wq, w_twist * wq, wq]))
    m = (d.T @ (w @ d)).tocsr()
    return (m + m.T) * 0.5


def assert_same_bytes(m, ref):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(m, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestSmoothingPairBlocks:
    def test_corpus_bytes_equal_per_bspline_loop(self, corpus50):
        meshes, _ = corpus50
        for space in meshes:
            assert_same_bytes(smoothing_matrix(space), per_bspline_smoothing(space))

    def test_stored_document_bytes_equal_per_bspline_loop(self):
        space = read_surface(DATA / "dunes1_p2.lrb").space
        assert_same_bytes(smoothing_matrix(space), per_bspline_smoothing(space))


class TestSmoothingOracles:
    @pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (3, 3), (2, 3)])
    def test_tensor_mesh_against_scipy_gram_matrices(self, degrees):
        rng = np.random.default_rng(sum(degrees))
        p1, p2 = degrees
        knots = []
        for p, n_el in ((p1, 5), (p2, 4)):
            inner = np.sort(rng.uniform(0.0, 3.0, n_el - 1))
            knots.append(np.r_[np.zeros(p + 1), inner, np.full(p + 1, 3.0)])
        space = make_tensor_mesh(knots[0], knots[1], degrees)
        # lrfit's key order is the row-major order of the tensor indices
        windows = []
        for p, table in ((p1, space.u), (p2, space.v)):
            idx = [0] * p + list(range(len(table))) + [len(table) - 1] * p
            windows.append([tuple(idx[a:a + p + 2]) for a in range(len(idx) - p - 1)])
        assert space.keys_sorted() == [(ku, kv) for ku in windows[0] for kv in windows[1]]
        gu = [gram_1d(knots[0], p1, k) for k in range(3)]
        gv = [gram_1d(knots[1], p2, k) for k in range(3)]
        w_twist = 2.0 if min(degrees) >= 2 else 0.0
        ref = (np.kron(gu[2], gv[0]) + w_twist * np.kron(gu[1], gv[1])
               + np.kron(gu[0], gv[2]))
        m = smoothing_matrix(space).toarray()
        assert np.abs(m - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_corpus_against_per_element_assembly(self, corpus50):
        meshes, _ = corpus50
        for space in meshes:
            m = smoothing_matrix(space)
            assert (m != m.T).nnz == 0
            ref = per_element_smoothing(space).toarray()
            assert np.abs(m.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


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


def mba_update_multiply(space, cloud):
    """The MBA update with its weight powers as scipy ``multiply`` products,
    ``w^2 = A.multiply(A)`` and ``w^3 = w^2.multiply(A)``: the plain
    construction the in-place update must reproduce bit for bit."""
    colloc = Collocation(cloud)
    colloc.update(space, assign_points(LRSurface(space), cloud))
    a = colloc.matrix(space)
    p = space.coeff_array()
    r = cloud.z - a @ p
    a2 = a.multiply(a)
    s_row = np.asarray(a2.sum(axis=1)).ravel()
    rr = np.divide(r, s_row, out=np.zeros_like(r), where=s_row > 0)
    a3 = a2.multiply(a)
    num = np.asarray(a3.T @ rr).ravel()
    den = np.asarray(a2.sum(axis=0)).ravel()
    dp = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return p + dp, den


class TestMBAOracle:
    @pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (3, 3), (2, 3)])
    def test_bytes_equal_multiply_oracle(self, degrees):
        space = random_refined_space(81 + sum(degrees), degrees, n_insertions=12)
        rng = np.random.default_rng(sum(degrees))
        n = 5000
        # no point in the top strip leaves the B-splines there without data
        x = rng.uniform(0.0, 1.0, n)
        y = rng.uniform(0.0, 0.7, n)
        cloud = PointCloud(np.c_[x, y, np.sin(6 * x) * np.cos(4 * y)])
        space.set_coeffs(rng.normal(size=len(space)))
        ref, den = mba_update_multiply(space, cloud)
        assert (den == 0).any() and (den > 0).any()
        assert mba_update(space, cloud).tobytes() == ref.tobytes()
        # a second pass from the updated coefficients, through a kept cache
        space.set_coeffs(ref)
        ref2, _ = mba_update_multiply(space, cloud)
        colloc = Collocation(cloud)
        asn = assign_points(LRSurface(space), cloud)
        assert mba_update(space, cloud, colloc, asn).tobytes() == ref2.tobytes()


@pytest.fixture
def traced():
    """tracemalloc for one test, stopped afterwards."""
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


class TestMemoryPerNonzero:
    """Bytes per collocation nonzero on 100k points over a 16x16 degree-2
    tensor space (900k nonzeros), traced by tracemalloc."""

    #: Python objects of one cached row (dict slot, tuple, two array headers)
    ROW_OVERHEAD = 512

    def cached(self):
        space = uniform_tensor_space((2, 2), n_elems=16)
        rng = np.random.default_rng(91)
        n = 100_000
        x, y = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        cloud = PointCloud(np.c_[x, y, np.sin(5 * x) * y])
        asn = assign_points(LRSurface(space), cloud)
        colloc = Collocation(cloud)
        before = tracemalloc.get_traced_memory()[0]
        colloc.update(space, asn)
        cache = tracemalloc.get_traced_memory()[0] - before
        nnz = sum(len(w) for _, w in colloc._rows.values())
        return space, cloud, asn, colloc, cache, nnz

    def peak_above(self, call):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before

    def test_cache_holds_12_bytes_per_nonzero(self, traced):
        space, _, _, _, cache, nnz = self.cached()
        assert cache - self.ROW_OVERHEAD * len(space) <= 12 * nnz

    def test_mba_update_peak(self, traced):
        space, cloud, asn, colloc, _, nnz = self.cached()
        peak = self.peak_above(lambda: mba_update(space, cloud, colloc, asn))
        assert peak <= 32 * nnz

    def test_matrix_build_peak(self, traced):
        space, _, _, colloc, _, nnz = self.cached()
        peak = self.peak_above(lambda: colloc.matrix(space))
        assert peak <= 25 * nnz

    def test_smoothing_matrix_peak(self, traced):
        """Per nonzero of ``D`` on the stored degree-2 document's space: the
        pairs go through the kernel in blocks, so the peak is the sparse
        products', no higher than the per-B-spline assembly's 59.8 B."""
        space = read_surface(DATA / "dunes1_p2.lrb").space
        p1, p2 = space.degrees
        peak = self.peak_above(lambda: smoothing_matrix(space))
        _, b2e = space.overlap_maps()
        d_nnz = 3 * (p1 + 1) * (p2 + 1) * sum(len(e) for e in b2e)
        assert peak <= 60 * d_nnz


class TestFitStep:
    def test_schedule_switches_to_mba(self):
        space = uniform_tensor_space((2, 2), n_elems=3)
        rng = np.random.default_rng(51)
        n = 800
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        cloud = PointCloud(np.c_[x, y, np.sin(4 * x) + y])
        cfg = FitConfig()
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
    for bi, i in enumerate(colloc._ids):
        ids, w = colloc._rows[i]
        rows.append(ids)
        cols.append(np.full(len(ids), bi, dtype=np.int64))
        vals.append(scales[bi] * w)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(colloc.cloud), len(colloc._ids))).tocsr()


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
        assert all(ids.dtype == np.int32 for ids, _ in colloc._rows.values())
        assert a.indices.dtype == np.int32
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
