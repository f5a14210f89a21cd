"""LR mesh structure: insertion, minimal support, elements, scaling."""

from collections import deque
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrfit.basis import basis_value
from lrfit.mesh import (SUPPORTED_DEGREES, LRSpace, MeshError, MeshSegment, SegmentError,
                        U, V, make_tensor_mesh, split_knots)

from conftest import (ALL_DEGREES, element_boxes_oracle, element_scan, local_knot_values,
                      partition_residual, random_refined_space, support_values,
                      uniform_tensor_space)


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
        assert sp.first_invalid_bspline() is None

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
                tu, tv = local_knot_values(space, k)
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
        assert sp.first_invalid_bspline() is None
        s = sp.scale_array()
        # scales accumulate as sums of subdivision weights, so allow a few
        # ulps of float excess over the exact (0, 1] range
        assert (s > 0).all() and (s <= 1.0 + 1e-12).all()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_elements_match_sweep_oracle(self, seed):
        sp = random_refined_space(seed, (2, 2), n_insertions=6)
        ours = {tuple(e) for e in sp.elements().tolist()}
        assert ours == element_boxes_oracle(sp)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_element_order_deterministic(self, seed):
        sp = random_refined_space(seed, (1, 2), n_insertions=6)
        order = [(iv0, iu0) for iu0, _, iv0, _ in sp.elements().tolist()]
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
    for e, (u0, u1, v0, v1) in enumerate(sp.element_bounds()):
        assert len(e2b[e])
        for bi in e2b[e]:
            su0, su1, sv0, sv1 = support_values(sp, keys[bi])
            assert su0 <= u0 and su1 >= u1 and sv0 <= v0 and sv1 >= v1


def overlap_maps_oracle(space):
    """The per-B-spline formulation: ``np.unique`` over the cell-to-element
    map in each support box, and elements collecting B-spline ids in key
    order."""
    cell = space.cell_to_element()
    e2b = [[] for _ in range(len(space.elements()))]
    b2e = []
    for bi, (ku, kv) in enumerate(space.keys_sorted()):
        eids = np.unique(cell[ku[0]:ku[-1], kv[0]:kv[-1]])
        b2e.append(eids)
        for e in eids:
            e2b[int(e)].append(bi)
    return e2b, b2e


def test_overlap_maps_match_unique_formulation(corpus50):
    meshes, _ = corpus50
    for sp in meshes:
        e2b, b2e = sp.overlap_maps()
        o_e2b, o_b2e = overlap_maps_oracle(sp)
        assert [bids.tolist() for bids in e2b] == o_e2b
        assert len(b2e) == len(o_b2e)
        for got, expected in zip(b2e, o_b2e):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_elements_equal_cell_scan(corpus50):
    """The array passes give the former scan's boxes and cell map, bit for bit."""
    meshes, _ = corpus50
    for sp in meshes:
        els, cell = element_scan(sp)
        for got, expected in ((sp.elements(), els), (sp.cell_to_element(), cell)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def boxed_grid(nu=3, nv=3):
    """A bilinear space without B-splines on a grid of ``nu`` by ``nv``
    cells, whose only meshlines are the four sides of the domain."""
    sp = LRSpace(np.arange(nu + 1.0), np.arange(nv + 1.0), (1, 1))
    for axis in (U, V):
        sp.coverage(axis)[[0, -1]] = True
    return sp


class TestElementMessages:
    """One hand-built coverage per message of the element pass.  The former
    cell scan rejects each of them too; "overlapping elements" cannot occur,
    as each cell maps to one element."""

    @pytest.mark.parametrize("axis, line", [(U, 0), (U, -1), (V, 0), (V, -1)])
    def test_side_of_the_domain_missing(self, axis, line):
        sp = boxed_grid()
        sp.coverage(axis)[line, 1] = False
        with pytest.raises(MeshError, match="^mesh does not tile the parameter rectangle$"):
            sp.elements()
        with pytest.raises(MeshError):
            element_scan(sp)

    @pytest.mark.parametrize("lines", [
        [(U, 1, 0, 2)],                  # a line that ends inside the element
        [(U, 1, 1, 2)],                  # a line that touches no other
        [(U, 1, 1, 3), (V, 1, 1, 3)],    # an L-shaped region around a box
    ])
    def test_cells_that_do_not_form_boxes(self, lines):
        sp = boxed_grid()
        for axis, fixed, lo, hi in lines:
            sp.coverage(axis)[fixed, lo:hi] = True
        with pytest.raises(MeshError, match="^the cells between meshlines do not form boxes$"):
            sp.elements()
        with pytest.raises(MeshError):
            element_scan(sp)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_random_coverage_accepted_as_by_cell_scan(data):
    """On small grids with random interior lines, the array passes accept
    exactly the coverages the former scan accepts, with its boxes and map."""
    nu, nv = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    sp = boxed_grid(nu, nv)
    for axis, shape in ((U, (nu - 1, nv)), (V, (nv - 1, nu))):
        sp.coverage(axis)[1:-1] = data.draw(arrays(np.bool_, shape))
    if data.draw(st.booleans()):    # sometimes an open side as well
        axis = data.draw(st.sampled_from([U, V]))
        row = sp.coverage(axis)[data.draw(st.sampled_from([0, -1]))]
        row[data.draw(st.integers(0, len(row) - 1))] = False
    try:
        expected = element_scan(sp)
    except MeshError:
        with pytest.raises(MeshError):
            sp.elements()
        return
    assert np.array_equal(sp.elements(), expected[0])
    assert np.array_equal(sp.cell_to_element(), expected[1])


def test_support_boxes_follow_keys(corpus50):
    meshes, _ = corpus50
    for sp in meshes[:10]:
        keys = sp.keys_sorted()
        # the store's lexsort order is the tuple order
        assert keys == sorted(sp.bsplines)
        assert sp.support_boxes().tolist() == [[ku[0], ku[-1], kv[0], kv[-1]]
                                               for ku, kv in keys]
        assert sp.support_bounds().tolist() == [list(support_values(sp, k)) for k in keys]


class TestAddBsplines:
    """Columns added at once give the space that adding the same B-splines
    one at a time gives.  A store in key order, as a read document fills it,
    is its own sorted view: the view shares the store instead of copying it."""

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_same_space_as_one_at_a_time(self, corpus50, shuffled):
        meshes, _ = corpus50
        rng = np.random.default_rng(12)
        for sp in meshes[:10]:
            ku, kv = sp.knot_indices()
            scale, coeff = sp.scale_array(), rng.normal(size=len(sp))
            order = rng.permutation(len(sp)) if shuffled else np.arange(len(sp))
            one, bulk = (LRSpace(sp.u, sp.v, sp.degrees) for _ in range(2))
            for i in order.tolist():
                one.add_bspline((tuple(ku[i].tolist()), tuple(kv[i].tolist())),
                                scale[i], coeff[i])
            bulk.add_bsplines(ku[order], kv[order], scale[order], coeff[order])
            assert bulk._index is None
            assert bulk.keys_sorted() == one.keys_sorted() == sp.keys_sorted()
            assert bulk.bspline_ids().tolist() == one.bspline_ids().tolist()
            for a, b in ((bulk.scale_array(), one.scale_array()),
                         (bulk.coeff_array(), one.coeff_array()),
                         (bulk.support_boxes(), one.support_boxes())):
                assert a.tobytes() == b.tobytes()
            assert bulk.bsplines == one.bsplines
            assert np.shares_memory(bulk.knot_indices()[0], bulk._ku) == (not shuffled)

    def test_sorted_view_outlives_a_remap(self, corpus50):
        """A knot table remap writes new index arrays, so index rows taken
        before it keep their values, as a copy would."""
        sp = corpus50[0][3]
        bulk = LRSpace(sp.u, sp.v, sp.degrees)
        bulk.add_bsplines(*sp.knot_indices(), sp.scale_array(), sp.coeff_array())
        held = bulk.knot_indices()
        before = [k.copy() for k in held]
        bulk.ensure_values(U, [0.5 * (sp.u[0] + sp.u[1])])
        assert all(np.array_equal(a, b) for a, b in zip(held, before))
        assert np.array_equal(bulk.knot_indices()[0], np.where(before[0] > 0, before[0] + 1, 0))


# ----------------------------------------------------------------------
# the coverage arrays against the former span-list meshline store

class SpanListStore:
    """Per ``(axis, fixed)`` a sorted list of disjoint spans that coalesce
    when they overlap or touch, remapped span by span when a knot table
    grows."""

    def __init__(self, n_u, n_v):
        self.n = {U: n_u, V: n_v}
        self.segs = {}

    def add(self, axis, fixed, lo, hi):
        new_lo, new_hi = lo, hi
        keep = []
        for s_lo, s_hi in self.segs.get((axis, fixed), []):
            if s_hi < new_lo or s_lo > new_hi:
                keep.append((s_lo, s_hi))
            else:
                new_lo, new_hi = min(new_lo, s_lo), max(new_hi, s_hi)
        keep.append((new_lo, new_hi))
        self.segs[(axis, fixed)] = sorted(keep)

    def merged_extent(self, axis, fixed, lo, hi):
        m_lo, m_hi = lo, hi
        for s_lo, s_hi in self.segs.get((axis, fixed), ()):
            if s_hi >= lo and s_lo <= hi:
                m_lo, m_hi = min(m_lo, s_lo), max(m_hi, s_hi)
        return m_lo, m_hi

    def remap(self, axis, imap, n_new):
        new = {}
        for (a, fixed), spans in self.segs.items():
            if a == axis:
                new[(a, int(imap[fixed]))] = spans
            else:
                new[(a, fixed)] = [(int(imap[lo]), int(imap[hi])) for lo, hi in spans]
        self.segs = new
        self.n[axis] = n_new

    def segments(self):
        return [MeshSegment(a, fixed, lo, hi)
                for (a, fixed), spans in sorted(self.segs.items()) for lo, hi in spans]

    def coverage(self, axis):
        cov = np.zeros((self.n[axis], self.n[V if axis == U else U] - 1), dtype=bool)
        for (a, fixed), spans in self.segs.items():
            for lo, hi in spans:
                if a == axis:
                    cov[fixed, lo:hi] = True
        return cov


_index = st.integers(0, 10**6)
span_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from([U, V]), _index, _index, _index),
    st.tuples(st.just("grow"), st.sampled_from([U, V]), st.lists(_index, min_size=1,
                                                                  max_size=4))),
    max_size=40)


class TestCoverageAgainstSpanLists:
    @given(n_u=st.integers(2, 6), n_v=st.integers(2, 6), ops=span_ops)
    @settings(max_examples=80, deadline=None)
    def test_segments_coverage_and_merged_extent(self, n_u, n_v, ops):
        """Random touching, overlapping and disjoint spans interleaved with
        knot-table growth give the same segment list, coverage and merged
        extents as the span lists."""
        sp = LRSpace(np.arange(n_u, dtype=float), np.arange(n_v, dtype=float), (2, 2))
        oracle = SpanListStore(n_u, n_v)
        for op in ops:
            axis = op[1]
            table = sp.table(axis)
            if op[0] == "add":
                n_run = len(sp.table(V if axis == U else U)) - 1
                fixed = op[2] % len(table)
                lo = op[3] % n_run
                hi = lo + 1 + op[4] % (n_run - lo)
                assert sp.merged_extent(axis, fixed, lo, hi) == \
                    oracle.merged_extent(axis, fixed, lo, hi)
                sp._add_span(axis, fixed, lo, hi)
                oracle.add(axis, fixed, lo, hi)
                for j in range(n_run):
                    assert sp.merged_extent(axis, fixed, j, j + 1) == \
                        oracle.merged_extent(axis, fixed, j, j + 1)
            else:
                # midpoints of intervals; every third value is a table value,
                # which ensure_values ignores
                values = []
                for k in op[2]:
                    i = k % (len(table) - 1)
                    values.append(table[i] if k % 3 == 0 else 0.5 * (table[i] + table[i + 1]))
                sp.ensure_values(axis, values)
                oracle.remap(axis, np.searchsorted(sp.table(axis), table),
                             len(sp.table(axis)))
            assert sp.segments() == oracle.segments()
            for a in (U, V):
                assert np.array_equal(sp.coverage(a), oracle.coverage(a))


# ----------------------------------------------------------------------
# random segment sequences on random tensor meshes


@st.composite
def tensor_meshes(draw, degree_pairs=st.sampled_from(ALL_DEGREES)):
    """A tensor mesh of random degrees over 1 to 5 intervals of random
    integer widths per direction."""
    degrees = draw(degree_pairs)
    knots = []
    for p in degrees:
        widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        k = np.r_[0, np.cumsum(widths)].astype(float)
        knots.append(np.r_[[k[0]] * p, k, [k[-1]] * p])
    return make_tensor_mesh(knots[0], knots[1], degrees)


_segment = st.tuples(st.sampled_from([U, V]), _index, _index, _index)


def plan_batch(space, batch):
    """Midpoint segments whose ends lie on meshlines crossing their interval,
    as ``(axis, value, lo value, hi value)``."""
    planned = []
    for axis, i, a, b in batch:
        table = space.table(axis)
        run = space.table(V if axis == U else U)
        i %= len(table) - 1
        cands = np.flatnonzero(space.coverage(V if axis == U else U)[:, i])
        lo, hi = sorted((int(cands[a % len(cands)]), int(cands[b % len(cands)])))
        if lo < hi:
            planned.append((axis, 0.5 * (table[i] + table[i + 1]), run[lo], run[hi]))
    return planned


def batch_segments(space, planned):
    """The planned segments in table indices, once their values are in the
    tables."""
    return [MeshSegment(axis, int(np.searchsorted(space.table(axis), value)),
                        int(np.searchsorted(space.table(V if axis == U else U), lo)),
                        int(np.searchsorted(space.table(V if axis == U else U), hi)))
            for axis, value, lo, hi in planned]


class TestRandomSegmentSequences:
    @given(space=tensor_meshes(),
           batches=st.lists(st.lists(_segment, min_size=1, max_size=3), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_elements_minimal_support_and_unity(self, space, batches):
        """Batches of midpoint segments whose ends lie on meshlines crossing
        their interval, materialized as the refinement loop does: values
        first, then indices.  The mesh keeps the union-find elements, every
        B-spline keeps minimal support and the basis sums to one."""
        for batch in batches:
            planned = plan_batch(space, batch)
            for axis in (U, V):
                space.ensure_values(axis, [p[1] for p in planned if p[0] == axis])
            space.try_apply_segments(batch_segments(space, planned))
            assert {tuple(e) for e in space.elements().tolist()} == element_boxes_oracle(space)
        assert space.first_invalid_bspline() is None
        assert partition_residual(space, n=100) < 1e-12


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


def per_key_violation(space, key):
    """The former per-B-spline read check of one key: a local knot line that
    is not a meshline across the support, then :func:`find_offense_oracle`;
    ``(axis, table index, is_knot)`` or None."""
    for axis, loc, run in ((U, key[0], key[1]), (V, key[1], key[0])):
        covered = space.coverage(axis)[list(loc), run[0]:run[-1]].all(axis=1)
        if not covered.all():
            return axis, loc[int(covered.argmin())], True
    offense = find_offense_oracle(space, key)
    return None if offense is None else (*offense, False)


class TestFirstInvalidBspline:
    def test_corpus50_with_a_random_key_added(self, corpus50):
        """Each corpus space keeps every rule; with one random key added, the
        first invalid B-spline is that key, with the failure the per-key
        check finds, or there is none."""
        meshes, _ = corpus50
        rng = np.random.default_rng(11)
        seen = {True: 0, False: 0, None: 0}
        for sp in meshes:
            assert sp.first_invalid_bspline() is None
            for key in random_keys(sp, rng, 8):
                if key in sp.bsplines:
                    continue
                grown = deepcopy(sp)
                grown.add_bspline(key, 1.0, 0.0)
                expected = per_key_violation(grown, key)
                got = grown.first_invalid_bspline()
                if expected is None:
                    assert got is None, key
                else:
                    assert got == (grown.keys_sorted().index(key), *expected), key
                seen[None if expected is None else expected[2]] += 1
        assert min(seen.values()) >= 5, seen

    def test_first_in_key_order_knot_line_before_offense(self):
        # two invalid keys on a tensor mesh with one new, uncovered line: the
        # one first in key order is named, and of its failures the uncovered
        # knot line u=0.6 comes before the offending line u=0.25
        sp = uniform_tensor_space((2, 2), n_elems=4)
        sp.ensure_values(U, [0.6])
        for key in [((1, 2, 3, 5), (1, 2, 3, 4)), ((0, 0, 3, 5), (0, 0, 0, 1))]:
            sp.add_bspline(key, 1.0, 0.0)
        first = sp.keys_sorted().index(((0, 0, 3, 5), (0, 0, 0, 1)))
        assert sp.first_invalid_bspline() == (first, U, 3, True)
        assert find_offense_oracle(sp, sp.keys_sorted()[first]) == (U, 1)


class TestTraversalIndex:
    def test_matches_bruteforce_scan_in_insertion_order(self, monkeypatch):
        """Every traversal query of a refinement batch returns exactly the
        keys a scan over ``space.bsplines`` finds, in the same order."""
        traversed = LRSpace._traversed
        queries = {"n": 0, "hits": 0}

        def checked(self, axis, fixed, lo, hi):
            got = traversed(self, axis, fixed, lo, hi)
            li = 0 if axis == U else 1
            expected = [key for key in self.bsplines
                        if key[li][0] < fixed < key[li][-1]
                        and key[1 - li][0] >= lo and key[1 - li][-1] <= hi
                        and fixed not in key[li]]
            assert got == expected
            queries["n"] += 1
            queries["hits"] += len(got)
            return got

        monkeypatch.setattr(LRSpace, "_traversed", checked)
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
        assert len(sp) > 2 * n_before     # the store had to grow
        assert queries["n"] > 300 and queries["hits"] > 1000, queries


# ----------------------------------------------------------------------
# the array store against the former dict-of-tuples B-spline store

class DictStore:
    """The former B-spline store: a dict from ``(ku tuple, kv tuple)`` to
    ``[scale, coeff]`` in insertion order, remapped key by key when a knot
    table grows, and refined by the former cascade, whose traversal scans the
    dict.  Its mesh is an :class:`LRSpace` that holds no B-splines.  Built
    from a tensor mesh, whose insertion order is its sorted order."""

    def __init__(self, space):
        self.mesh = LRSpace(space.u, space.v, space.degrees)
        for seg in space.segments():
            self.mesh._add_span(seg.axis, seg.fixed, seg.lo, seg.hi)
        self.bsplines = {key: [float(s), float(c)] for key, s, c in
                         zip(space.keys_sorted(), space.scale_array(), space.coeff_array())}

    def ensure_values(self, axis, values):
        table = self.mesh.table(axis)
        self.mesh.ensure_values(axis, values)
        imap = np.searchsorted(self.mesh.table(axis), table)
        if axis == U:
            self.bsplines = {(tuple(int(imap[i]) for i in ku), kv): sp
                             for (ku, kv), sp in self.bsplines.items()}
        else:
            self.bsplines = {(ku, tuple(int(imap[j]) for j in kv)): sp
                             for (ku, kv), sp in self.bsplines.items()}

    def try_apply_segments(self, segs):
        """The keys each segment traverses, in traversal order."""
        return [self.insert(seg) for seg in segs]

    def insert(self, seg):
        axis, fixed = seg.axis, seg.fixed
        m_lo, m_hi = self.mesh.merged_extent(axis, fixed, seg.lo, seg.hi)
        li = 0 if axis == U else 1
        affected = [key for key in self.bsplines
                    if key[li][0] < fixed < key[li][-1] and fixed not in key[li]
                    and key[1 - li][0] >= m_lo and key[1 - li][-1] <= m_hi]
        if affected:
            self.mesh._add_span(axis, fixed, seg.lo, seg.hi)
            work = deque()
            for key in affected:
                self.split(key, axis, fixed, work)
            while work:
                key = work.popleft()
                if key in self.bsplines and (off := self.mesh.find_offense(key)) is not None:
                    self.split(key, off[0], off[1], work)
        return affected

    def split(self, key, axis, ihat, work):
        scale, coeff = self.bsplines.pop(key)
        for child, alpha in split_knots(self.mesh, key, axis, ihat):
            entry = self.bsplines.get(child)
            if entry is not None:
                s_old, p_old = entry
                s_new = s_old + alpha * scale
                entry[0] = s_new
                entry[1] = (s_old * p_old + alpha * scale * coeff) / s_new
            else:
                self.bsplines[child] = [alpha * scale, coeff]
            work.append(child)

    def keys_sorted(self):
        return sorted(self.bsplines)

    def array(self, field):
        return np.array([self.bsplines[k][field] for k in self.keys_sorted()])

    def set_coeffs(self, coeffs):
        for k, c in zip(self.keys_sorted(), coeffs):
            self.bsplines[k][1] = float(c)


_growth = st.lists(st.tuples(st.sampled_from([U, V]), _index), max_size=3)


class TestArrayStoreAgainstDictStore:
    @given(space=tensor_meshes(st.tuples(st.sampled_from(SUPPORTED_DEGREES),
                                         st.sampled_from(SUPPORTED_DEGREES))),
           seed=st.integers(0, 2**32 - 1),
           batches=st.lists(st.tuples(_growth, st.lists(_segment, min_size=1, max_size=4)),
                            max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_keys_scales_coefficients_and_traversal(self, space, seed, batches):
        """Random segment batches interleaved with knot-table growth and new
        coefficients give, bit for bit, the sorted keys, scales and
        coefficients of the dict store, and each segment traverses the same
        B-splines in the same order."""
        rng = np.random.default_rng(seed)
        space.set_coeffs(rng.normal(size=len(space)))
        oracle = DictStore(space)
        traversals = []
        traversed = LRSpace._traversed

        def recording(self, axis, fixed, lo, hi):
            traversals.append(traversed(self, axis, fixed, lo, hi))
            return traversals[-1]

        with mock.patch.object(LRSpace, "_traversed", recording):
            for growth, batch in batches:
                # values no segment uses: interval midpoints, or table values
                for axis, k in growth:
                    table = space.table(axis)
                    i = k % (len(table) - 1)
                    values = [table[i] if k % 3 == 0 else 0.5 * (table[i] + table[i + 1])]
                    space.ensure_values(axis, values)
                    oracle.ensure_values(axis, values)
                planned = plan_batch(space, batch)
                for axis in (U, V):
                    values = [p[1] for p in planned if p[0] == axis]
                    space.ensure_values(axis, values)
                    oracle.ensure_values(axis, values)
                segs = batch_segments(space, planned)
                traversals.clear()
                space.try_apply_segments(segs)
                assert traversals == oracle.try_apply_segments(segs)
                assert space.keys_sorted() == oracle.keys_sorted()
                assert space.scale_array().tobytes() == oracle.array(0).tobytes()
                assert space.coeff_array().tobytes() == oracle.array(1).tobytes()
                coeffs = rng.normal(size=len(space))
                space.set_coeffs(coeffs)
                oracle.set_coeffs(coeffs)
