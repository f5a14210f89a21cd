"""LR mesh structure: insertion, minimal support, elements, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfit.basis import basis_value
from lrfit.mesh import (LRSpace, MeshError, MeshSegment, SegmentError, U, V,
                        make_tensor_mesh, split_knots)

from conftest import (ALL_DEGREES, element_boxes_oracle, random_refined_space,
                      uniform_tensor_space)


def partition_residual(space, n=200, seed=0):
    rng = np.random.default_rng(seed)
    uu = rng.uniform(space.u[0], space.u[-1], n)
    vv = rng.uniform(space.v[0], space.v[-1], n)
    tot = np.zeros(n)
    for key, (s, _c) in space.bsplines.items():
        tu, tv = space.local_knot_values(key)
        tot += (s * basis_value(tu, space.degrees[0], uu, space.u[-1])
                * basis_value(tv, space.degrees[1], vv, space.v[-1]))
    return np.abs(tot - 1.0).max()


def reference_mesh():
    """The worked biquadratic example: a 6x5-interval tensor mesh refined by
    four partial meshlines, two per direction."""
    u = [1, 1, 1, 2, 4, 6, 7, 7, 7]
    v = [1, 1, 1, 3, 5, 6, 6, 6]
    sp = make_tensor_mesh(u, v, (2, 2))
    sp.ensure_values(V, [2.0, 4.0])
    sp.ensure_values(U, [3.0, 5.0])
    sp.insert_segment(MeshSegment(V, 1, 0, 5))   # v=2 across u in [1, 6]
    sp.insert_segment(MeshSegment(V, 3, 0, 5))   # v=4 across u in [1, 6]
    sp.insert_segment(MeshSegment(U, 2, 0, 1))   # u=3 across v in [1, 2]
    sp.insert_segment(MeshSegment(U, 4, 3, 5))   # u=5 across v in [4, 6]
    return sp


class TestReferenceMesh:
    def test_tensor_counts(self):
        sp = make_tensor_mesh([1, 1, 1, 2, 4, 6, 7, 7, 7],
                              [1, 1, 1, 3, 5, 6, 6, 6], (2, 2))
        assert len(sp) == 6 * 5
        assert len(sp.elements()) == 4 * 3

    def test_refined_counts_and_survivor(self):
        sp = reference_mesh()
        assert len(sp) == 39
        assert len(sp.elements()) == 21
        # the B-spline on knots [1,2,4,6]x[2,3,4,5] straddles all four new
        # lines without being split: none of them traverses its interior
        assert ((0, 1, 3, 5), (1, 2, 3, 4)) in sp.bsplines

    def test_partition_of_unity(self):
        assert partition_residual(reference_mesh()) < 1e-12

    def test_minimal_support(self):
        sp = reference_mesh()
        assert all(sp.has_minimal_support(k) for k in sp.bsplines)

    def test_scales(self):
        s = reference_mesh().scale_array()
        assert (s > 0).all() and (s <= 1.0).all()


class TestValidation:
    def test_decreasing_knots_rejected(self):
        with pytest.raises(MeshError):
            make_tensor_mesh([0, 0, 0, 2, 1, 3, 3, 3], [0, 0, 1, 1], (2, 1))

    def test_wrong_end_multiplicity_rejected(self):
        with pytest.raises(MeshError):
            make_tensor_mesh([0, 0, 1, 2, 2], [0, 0, 1, 1], (2, 1))

    def test_zero_width_domain_rejected(self):
        with pytest.raises(MeshError):
            make_tensor_mesh([0, 0, 0, 0], [0, 1], (2, 0))

    def test_unsupported_degree_rejected(self):
        with pytest.raises(MeshError):
            make_tensor_mesh([0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2],
                             [0, 0, 1, 1], (4, 1))

    def test_segment_needs_extent(self):
        with pytest.raises(ValueError):
            MeshSegment(U, 1, 3, 3)

    def test_non_splitting_segment_raises(self):
        sp = uniform_tensor_space((2, 2), n_elems=4)
        sp.ensure_values(U, [0.5625])
        fixed = int(np.searchsorted(sp.u, 0.5625))
        # an interior one-interval span is too short to traverse any support
        with pytest.raises(SegmentError):
            sp.insert_segment(MeshSegment(U, fixed, 1, 2))

    def test_try_apply_drops_invalid(self):
        sp = uniform_tensor_space((2, 2), n_elems=4)
        sp.ensure_values(U, [0.0625, 0.5 + 0.0625])
        good = MeshSegment(U, np.searchsorted(sp.u, 0.5625), 0, len(sp.v) - 1)
        bad = MeshSegment(U, np.searchsorted(sp.u, 0.5625), 1, 2)
        inserted, dropped = sp.try_apply_segments([bad, good])
        assert inserted == 1 and dropped == 1


class TestSplitIdentity:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_alpha_decomposition(self, degree):
        """Inserting a knot rewrites B = a1*B1 + a2*B2 pointwise."""
        rng = np.random.default_rng(degree)
        sp = uniform_tensor_space((degree, degree), n_elems=degree + 2)
        keys = sp.keys_sorted()
        key = keys[len(keys) // 2]
        for axis in (U, V):
            loc = key[0] if axis == U else key[1]
            table = sp.table(axis)
            j = next(j for j in range(len(loc) - 1) if loc[j] < loc[j + 1])
            ihat_val = 0.5 * (table[loc[j]] + table[loc[j + 1]])
            key_vals = (sp.u[list(key[0])], sp.v[list(key[1])])
            sp2 = uniform_tensor_space((degree, degree), n_elems=degree + 2)
            sp2.ensure_values(axis, [ihat_val])
            # re-express the key through knot values: indices shift after
            # the table grows
            newkey = (tuple(int(np.searchsorted(sp2.u, x)) for x in key_vals[0]),
                      tuple(int(np.searchsorted(sp2.v, x)) for x in key_vals[1]))
            ihat = int(np.searchsorted(sp2.table(axis), ihat_val))
            children = split_knots(sp2, newkey, axis, ihat)
            x = rng.uniform(sp2.u[0], sp2.u[-1], 100)
            y = rng.uniform(sp2.v[0], sp2.v[-1], 100)

            def ev(space, k):
                tu, tv = space.local_knot_values(k)
                return (basis_value(tu, degree, x, space.u[-1])
                        * basis_value(tv, degree, y, space.v[-1]))

            combo = sum(alpha * ev(sp2, ck) for ck, alpha in children)
            parent = ev(sp2, newkey)
            assert np.abs(parent - combo).max() < 1e-13
            for _ck, alpha in children:
                assert 0.0 < alpha <= 1.0


class TestRandomRefinement:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold(self, seed):
        sp = random_refined_space(seed, (2, 2), n_insertions=8)
        assert partition_residual(sp, n=50, seed=seed) < 1e-12
        assert all(sp.has_minimal_support(k) for k in sp.bsplines)
        s = sp.scale_array()
        # scales accumulate as sums of subdivision weights, so allow a few
        # ulps of float excess over the exact (0, 1] range
        assert (s > 0).all() and (s <= 1.0 + 1e-12).all()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_elements_match_sweep_oracle(self, seed):
        sp = random_refined_space(seed, (2, 2), n_insertions=6)
        ours = {(e.iu0, e.iu1, e.iv0, e.iv1) for e in sp.elements()}
        assert ours == element_boxes_oracle(sp)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_element_order_deterministic(self, seed):
        sp = random_refined_space(seed, (1, 2), n_insertions=6)
        order = [(e.iv0, e.iu0) for e in sp.elements()]
        assert order == sorted(order)

    def test_coefficient_count_growth(self):
        sp = uniform_tensor_space((2, 2), n_elems=4)
        rng = np.random.default_rng(7)
        prev = len(sp)
        from conftest import random_refinement_step
        for _ in range(20):
            random_refinement_step(sp, rng)
            assert len(sp) >= prev
            prev = len(sp)


class TestMergedExtent:
    def test_collinear_spans_coalesce(self):
        sp = uniform_tensor_space((2, 2), n_elems=8)
        n = len(sp.v) - 1
        sp.ensure_values(U, [0.5625])
        fixed = int(np.searchsorted(sp.u, 0.5625))
        sp.insert_segment(MeshSegment(U, fixed, 0, 4))
        assert sp.merged_extent(U, fixed, 4, n) == (0, n)

    def test_disjoint_spans_do_not_coalesce(self):
        sp = uniform_tensor_space((2, 2), n_elems=8)
        sp.ensure_values(U, [0.5625])
        fixed = int(np.searchsorted(sp.u, 0.5625))
        sp.insert_segment(MeshSegment(U, fixed, 0, 3))
        assert sp.merged_extent(U, fixed, 5, 8) == (5, 8)


def test_overlap_maps_consistent():
    sp = reference_mesh()
    e2b, b2e = sp.overlap_maps()
    for e, bids in enumerate(e2b):
        for bi in bids:
            assert e in set(int(x) for x in b2e[bi])
    # every element overlaps (p1+1)(p2+1) or more B-splines? Not in LR
    # meshes generally; but at least one, and support boxes must contain it
    keys = sp.keys_sorted()
    for e, el in enumerate(sp.elements()):
        assert e2b[e]
        u0, u1, v0, v1 = el.bounds(sp)
        for bi in e2b[e]:
            su0, su1, sv0, sv1 = sp.support_values(keys[bi])
            assert su0 <= u0 and su1 >= u1 and sv0 <= v0 and sv1 >= v1


# ----------------------------------------------------------------------
# differential checks of the refinement bookkeeping against plain scans

def find_offense_oracle(space, key):
    """The candidate-list formulation: every interior table index that is not
    a local knot, tested with ``np.isin``; lowest index, ``u`` before ``v``."""
    ku, kv = key
    covu = space.coverage(U)
    covv = space.coverage(V)
    if ku[-1] - ku[0] > 1:
        interior = np.arange(ku[0] + 1, ku[-1])
        cand = interior[~np.isin(interior, ku)]
        if len(cand):
            hit = np.flatnonzero(covu[cand, kv[0]:kv[-1]].all(axis=1))
            if len(hit):
                return (U, int(cand[hit[0]]))
    if kv[-1] - kv[0] > 1:
        interior = np.arange(kv[0] + 1, kv[-1])
        cand = interior[~np.isin(interior, kv)]
        if len(cand):
            hit = np.flatnonzero(covv[cand, ku[0]:ku[-1]].all(axis=1))
            if len(hit):
                return (V, int(cand[hit[0]]))
    return None


def random_keys(space, rng, n):
    """Local knot index vectors drawn with replacement from narrow windows of
    the tables, so repeated indices (as at the boundary) occur often."""
    p1, p2 = space.degrees
    keys = []
    while len(keys) < n:
        parts = []
        for table, p in ((space.u, p1), (space.v, p2)):
            width = int(rng.integers(2, 2 * p + 6))
            start = int(rng.integers(0, max(len(table) - width, 1)))
            idx = np.sort(rng.integers(start, min(start + width, len(table)), p + 2))
            if rng.random() < 0.3:    # clamp one end, as boundary B-splines do
                idx[:int(rng.integers(1, p + 2))] = 0
            parts.append(tuple(int(i) for i in np.sort(idx)))
        if parts[0][-1] > parts[0][0] and parts[1][-1] > parts[1][0]:
            keys.append(tuple(parts))
    return keys


class TestFindOffenseDifferential:
    def test_corpus50_every_bspline_and_random_keys(self, corpus50):
        meshes, _ = corpus50
        rng = np.random.default_rng(5)
        for sp in meshes:
            boundary = 0
            for key in sp.bsplines:
                assert sp.find_offense(key) is None
                assert find_offense_oracle(sp, key) is None
                boundary += key[0][0] == key[0][1] or key[1][-1] == key[1][-2]
            assert boundary > 0
            for key in random_keys(sp, rng, 40):
                assert sp.find_offense(key) == find_offense_oracle(sp, key), key

    def test_mid_refinement(self, monkeypatch):
        """Corpus meshes rebuilt with every ``find_offense`` call of the
        split cascade compared against the oracle on the mesh of the moment."""
        fast = LRSpace.find_offense
        calls = {"all": 0, "offending": 0}

        def checked(self, key):
            got = fast(self, key)
            assert got == find_offense_oracle(self, key), key
            calls["all"] += 1
            calls["offending"] += got is not None
            return got

        monkeypatch.setattr(LRSpace, "find_offense", checked)
        for i in range(12):
            random_refined_space(2000 + i, ALL_DEGREES[i % 6], n_insertions=30)
        assert calls["offending"] > 100, calls

    def test_boundary_keys_with_offending_lines(self):
        # every interior line of a tensor mesh spans the whole domain, so a
        # support that skips them as knots is offended by them
        sp = uniform_tensor_space((3, 3), n_elems=6)
        cases = {((0, 0, 0, 2, 4), (0, 0, 0, 0, 3)): (U, 1),
                 ((0, 0, 0, 0, 6), (2, 3, 5, 6, 6)): (U, 1),
                 ((0, 0, 0, 0, 1), (2, 3, 5, 6, 6)): (V, 4),
                 ((5, 6, 6, 6, 6), (0, 1, 2, 3, 4)): None}
        for key, expected in cases.items():
            assert sp.find_offense(key) == expected
            assert find_offense_oracle(sp, key) == expected


class TestTraversalIndex:
    def test_matches_bruteforce_scan_in_insertion_order(self, monkeypatch):
        """Every traversal query of a refinement batch returns exactly the
        keys a scan over ``space.bsplines`` finds, in the same order."""
        import lrfit.mesh as mesh

        init, traversed = mesh._BatchState.__init__, mesh._BatchState.traversed
        queries = {"n": 0, "hits": 0}

        def recording_init(self, space):
            init(self, space)
            self.checked_space = space

        def checked(self, axis, fixed, lo, hi):
            got = traversed(self, axis, fixed, lo, hi)
            li = 0 if axis == U else 1
            expected = [key for key in self.checked_space.bsplines
                        if key[li][0] < fixed < key[li][-1]
                        and key[1 - li][0] >= lo and key[1 - li][-1] <= hi
                        and fixed not in key[li]]
            assert got == expected
            queries["n"] += 1
            queries["hits"] += len(got)
            return got

        monkeypatch.setattr(mesh._BatchState, "__init__", recording_init)
        monkeypatch.setattr(mesh._BatchState, "traversed", checked)
        for i in range(12):
            random_refined_space(4000 + i, ALL_DEGREES[i % 6], n_insertions=25)
        # a multi-segment batch, as the adaptive loop applies them
        sp = uniform_tensor_space((2, 2), n_elems=8)
        sp.ensure_values(U, [0.0625 + k / 8 for k in range(8)])
        sp.ensure_values(V, [0.0625 + k / 8 for k in range(8)])
        segs = [MeshSegment(U, 2 * k + 1, 0, len(sp.v) - 1) for k in range(8)]
        segs += [MeshSegment(V, 2 * k + 1, 0, len(sp.u) - 1) for k in range(8)]
        n_before = len(sp)
        assert sp.try_apply_segments(segs) == (16, 0)
        assert len(sp) > 2 * n_before     # the slot arrays had to grow
        assert queries["n"] > 300 and queries["hits"] > 1000, queries
