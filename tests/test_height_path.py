"""The one height path: per-B-spline support boxes over cell-sorted points.

``LRSurface.evaluate`` and ``Collocation.update`` find each B-spline's points
by slicing one cell order of the points.  The oracles below are the
element-wise paths they replaced: the element loop of the old ``evaluate``,
which multiplies each term as the collocation matrix does (``R_u R_v s P``),
and the gather of the per-element point lists over each B-spline's elements
(``b2e``) of the old collocation update.
"""

from pathlib import Path

import numpy as np
import pytest

import lrfit.surface
from lrfit.basis import basis_value
from lrfit.driver import RunConfig, run
from lrfit.io import gen_synthetic, read_surface
from lrfit.surface import (Collocation, DomainError, LRSurface, PointCloud, assign_points,
                           compute_accuracy)

from conftest import local_knot_values, random_refined_space

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


# ----------------------------------------------------------------------
# the element-wise oracles


def old_locate(space, uu, vv):
    """Element id per point; half-open boxes, closed at the top."""
    iu = np.clip(np.searchsorted(space.u, uu, side="right") - 1, 0, len(space.u) - 2)
    iv = np.clip(np.searchsorted(space.v, vv, side="right") - 1, 0, len(space.v) - 2)
    return space.cell_to_element()[iu, iv]


def old_evaluate(space, u, v):
    """Heights by looping over the elements the points touch and summing the
    B-splines of each element (``e2b``) in key order."""
    u0, u1, v0, v1 = space.domain
    uu, vv = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    scalar = uu.ndim == 0
    uu = np.atleast_1d(uu).ravel()
    vv = np.atleast_1d(vv).ravel()
    if (uu < u0).any() or (uu > u1).any() or (vv < v0).any() or (vv > v1).any():
        raise DomainError("query point outside the surface domain")
    eid = old_locate(space, uu, vv)
    e2b, _ = space.overlap_maps()
    keys = space.keys_sorted()
    scales = space.scale_array()
    coeffs = space.coeff_array()
    p1, p2 = space.degrees
    out = np.zeros_like(uu)
    for e in np.unique(eid):
        mask = eid == e
        ue, ve = uu[mask], vv[mask]
        acc = np.zeros_like(ue)
        for bi in e2b[int(e)]:
            tu, tv = local_knot_values(space, keys[bi])
            acc += (basis_value(tu, p1, ue, u1) * basis_value(tv, p2, ve, v1)
                    * scales[bi] * coeffs[bi])
        out[mask] = acc
    shp = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))[0].shape
    out = out.reshape(shp)
    return float(out) if scalar else out


def old_columns(space, x, y):
    """Per-B-spline ``(ids, R(x) R(y))`` with zeros dropped, gathered from the
    point lists of the elements in each B-spline's support."""
    eid = old_locate(space, x, y)
    order = np.argsort(eid, kind="stable")
    sorted_eid = eid[order]
    n_el = len(space.elements())
    starts = np.searchsorted(sorted_eid, np.arange(n_el), side="left")
    ends = np.searchsorted(sorted_eid, np.arange(n_el), side="right")
    by_element = [order[s:e] for s, e in zip(starts, ends)]
    _, b2e = space.overlap_maps()
    p1, p2 = space.degrees
    u1, v1 = float(space.u[-1]), float(space.v[-1])
    cols = []
    for bi, key in enumerate(space.keys_sorted()):
        parts = [by_element[int(e)] for e in b2e[bi]]
        ids = np.concatenate(parts) if parts else np.empty(0, dtype=int)
        tu, tv = local_knot_values(space, key)
        w = basis_value(tu, p1, x[ids], u1) * basis_value(tv, p2, y[ids], v1)
        cols.append((ids[w > 0.0], w[w > 0.0]))
    return cols


def as_pairs(ids, w):
    return set(zip(ids.tolist(), w.tolist()))


def assert_same_columns(colloc, space, cloud):
    """The cached rows of ``colloc`` equal the old gather as (row, value) sets."""
    ref = old_columns(space, cloud.x, cloud.y)
    assert len(colloc._ids) == len(ref)
    for i, (ids, w) in zip(colloc._ids, ref):
        got_ids, got_w = colloc._rows[i]
        assert len(got_ids) == len(ids)
        assert as_pairs(got_ids, got_w) == as_pairs(ids, w)


# ----------------------------------------------------------------------
# point sets


def hard_points(space, n_random, seed):
    """Random points plus points on every interior meshline value, on the
    top and right domain edges, and at the four corners."""
    rng = np.random.default_rng(seed)
    u0, u1, v0, v1 = space.domain
    us = [rng.uniform(u0, u1, n_random)]
    vs = [rng.uniform(v0, v1, n_random)]
    # interior meshline values in each direction, paired with random others
    us += [space.u[1:-1], rng.uniform(u0, u1, len(space.v) - 2)]
    vs += [rng.uniform(v0, v1, len(space.u) - 2), space.v[1:-1]]
    # meshline crossings
    iu = rng.integers(0, len(space.u), 40)
    iv = rng.integers(0, len(space.v), 40)
    us.append(space.u[iu])
    vs.append(space.v[iv])
    # top and right edges, corners
    k = 20
    us += [np.full(k, u1), rng.uniform(u0, u1, k), np.array([u0, u1, u0, u1])]
    vs += [rng.uniform(v0, v1, k), np.full(k, v1), np.array([v0, v0, v1, v1])]
    return np.concatenate(us), np.concatenate(vs)


def with_random_coeffs(space, seed):
    rng = np.random.default_rng(seed)
    space.set_coeffs(rng.normal(size=len(space)))


# ----------------------------------------------------------------------
# heights


class TestHeightsEqualElementLoop:
    def test_corpus50(self, corpus50):
        meshes, _ = corpus50
        for i, space in enumerate(meshes):
            kept = space.coeff_array()
            try:
                with_random_coeffs(space, 300 + i)
                uu, vv = hard_points(space, 120, 400 + i)
                new = LRSurface(space).evaluate(uu, vv)
                assert np.array_equal(new, old_evaluate(space, uu, vv)), i
            finally:
                space.set_coeffs(kept)

    @pytest.mark.parametrize("name", ["dunes1_p2.lrb", "dunes1_p3.lrb"])
    def test_stored_documents(self, name):
        surf = read_surface(DATA / name)
        uu, vv = hard_points(surf.space, 300, 7)
        assert np.array_equal(surf.evaluate(uu, vv), old_evaluate(surf.space, uu, vv))

    def test_empty_scalar_and_meshgrid(self):
        space = random_refined_space(31, (2, 3), n_insertions=10)
        with_random_coeffs(space, 32)
        surf = LRSurface(space)
        u0, u1, v0, v1 = surf.domain
        empty = surf.evaluate(np.empty(0), np.empty(0))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        for u, v in [(u1, v1), (u0, v0), (0.5 * (u0 + u1), space.v[2])]:
            got = surf.evaluate(u, v)
            assert isinstance(got, float)
            assert got == old_evaluate(space, u, v)
        uu, vv = np.meshgrid(np.linspace(u0, u1, 23), np.linspace(v0, v1, 17))
        got = surf.evaluate(uu, vv)
        assert got.shape == (17, 23)
        assert np.array_equal(got, old_evaluate(space, uu, vv))
        # broadcasting a row against a column keeps the broadcast shape
        got = surf.evaluate(np.linspace(u0, u1, 5)[None, :], np.linspace(v0, v1, 4)[:, None])
        assert got.shape == (4, 5)

    def test_domain_error_unchanged(self):
        space = random_refined_space(33, (2, 2), n_insertions=6)
        with_random_coeffs(space, 34)
        surf = LRSurface(space)
        u0, u1, v0, v1 = surf.domain
        eps = 1e-9 * (u1 - u0)
        mid_u, mid_v = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
        for u, v in [(u0 - eps, mid_v), (u1 + eps, mid_v),
                     (mid_u, v0 - eps), (mid_u, v1 + eps)]:
            with pytest.raises(DomainError):
                surf.evaluate(np.array([mid_u, u]), np.array([mid_v, v]))
            with pytest.raises(DomainError):
                old_evaluate(space, np.array([mid_u, u]), np.array([mid_v, v]))

    def test_read_then_evaluate_builds_no_overlap_maps(self, tmp_path):
        """Reading and evaluating a surface keeps no element-to-B-spline
        maps: the height path needs only the cell grid."""
        from lrfit.io import write_surface

        space = random_refined_space(35, (2, 2), n_insertions=10)
        with_random_coeffs(space, 36)
        path = tmp_path / "s.lrb"
        write_surface(LRSurface(space), path)
        surf = read_surface(path)
        u0, u1, v0, v1 = surf.domain
        surf.evaluate(np.linspace(u0, u1, 50), np.linspace(v0, v1, 50))
        assert "overlap" not in surf.space._cache


# ----------------------------------------------------------------------
# collocation columns


class TestColumnsEqualElementGather:
    def test_corpus50(self, corpus50):
        meshes, _ = corpus50
        for i, space in enumerate(meshes):
            uu, vv = hard_points(space, 150, 500 + i)
            cloud = PointCloud(np.c_[uu, vv, np.zeros_like(uu)])
            colloc = Collocation(cloud)
            colloc.update(space, assign_points(LRSurface(space), cloud))
            assert_same_columns(colloc, space, cloud)

    def test_cloud_in_one_corner(self):
        """Most B-splines have no points: their rows stay empty, and the
        heights of the few occupied cells still match the element loop."""
        space = random_refined_space(37, (3, 2), n_insertions=12)
        with_random_coeffs(space, 38)
        u0, u1, v0, v1 = space.domain
        rng = np.random.default_rng(39)
        uu = rng.uniform(u0, u0 + 0.2 * (u1 - u0), 300)
        vv = rng.uniform(v0, v0 + 0.2 * (v1 - v0), 300)
        cloud = PointCloud(np.c_[uu, vv, np.zeros_like(uu)])
        colloc = Collocation(cloud)
        colloc.update(space, assign_points(LRSurface(space), cloud))
        assert_same_columns(colloc, space, cloud)
        assert sum(len(colloc._rows[i][0]) == 0 for i in colloc._ids) > len(space) // 2
        assert np.array_equal(LRSurface(space).evaluate(uu, vv), old_evaluate(space, uu, vv))

    def test_every_iteration_of_an_efb_run(self, monkeypatch):
        cloud = gen_synthetic("dunes", 1, 2000)
        checked = []
        real_update = lrfit.surface.Collocation.update

        def update_and_check(self, space, assignment):
            real_update(self, space, assignment)
            assert_same_columns(self, space, self.cloud)
            checked.append(len(space))

        monkeypatch.setattr(lrfit.surface.Collocation, "update", update_and_check)
        tol = 0.01 * float(np.ptp(cloud.z))
        _, ledger = run(cloud, RunConfig(strategy="eFB", tolerance=tol, max_iterations=5))
        assert len(checked) == len(ledger.rows) >= 3
        assert len(set(checked)) > 1   # the space grew between updates


class TestRemeasureReproducesLedger:
    def test_efb_fit(self):
        """Measuring a fitted surface again through ``evaluate`` gives the
        ledger's last row bit for bit: both heights sum ``((R_u R_v) s) P``
        over the B-splines in key order."""
        cloud = gen_synthetic("dunes", 1, 3000)
        surf, ledger = run(cloud, RunConfig(strategy="eFB", tolerance=0.3, max_iterations=4))
        g = compute_accuracy(surf, cloud, assign_points(surf, cloud), 0.3).global_stats
        last = ledger.rows[-1]
        assert ((g.n_out, g.max_dist, g.avg_dist, g.avg_out_dist)
                == (last.n_out, last.max_dist, last.avg_dist, last.avg_out_dist))
