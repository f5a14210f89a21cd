"""LR-mesh and spline-space core.

The mesh is a box partition of a parameter rectangle.  Knots are stored as
integer indices into two shared sorted tables of distinct parameter values
(``u`` and ``v``), which makes knotline matching exact.  Interior knots always
have multiplicity one; the open boundary multiplicity ``p + 1`` is represented
by repeating the first / last table index in the local knot vectors.  The
meshlines are two boolean coverage arrays, one per axis, whose runs of covered
intervals are the meshline segments.  Elements and B-spline supports are both
``(·, 4)`` int arrays of boxes ``(iu0, iu1, iv0, iv1)`` in table indices.

A tensor-product B-spline is a pair of local knot index vectors with a
scaling factor and a height coefficient, kept in one array store with one
row per B-spline ever added: index rows ``(·, p1 + 2)`` and ``(·, p2 + 2)``,
scale, coefficient and an alive flag.  Rows never move, so a row is an id
that survives remaps and refinements, and row order is the insertion order
the split cascade traverses.  A cached ``np.lexsort`` of the index columns
gives the sorted order of every per-B-spline array.  Refinement inserts
meshline segments, subdivides the B-splines the segment traverses and
re-establishes minimal support, preserving geometry and partition of unity.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

U = "u"
V = "v"

#: degrees accepted by the artifact
SUPPORTED_DEGREES = (1, 2, 3)


class MeshError(ValueError):
    """Invalid mesh construction or mutation."""


class SegmentError(MeshError):
    """A meshline segment that does not split any B-spline."""


@dataclass(frozen=True)
class MeshSegment:
    """An axis parallel meshline segment.

    ``axis`` is the constant-parameter direction: a ``u`` segment is the line
    ``u = table_u[fixed]`` extending from ``table_v[lo]`` to ``table_v[hi]``.
    """

    axis: str
    fixed: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.axis not in (U, V):
            raise MeshError(f"bad axis {self.axis!r}")
        if self.hi <= self.lo:
            raise MeshError("empty segment span")


def _other(axis: str) -> str:
    return V if axis == U else U


class LRSpace:
    """An LR-mesh together with the collection of B-splines spanning it.

    Use :func:`make_tensor_mesh` to construct one.  Mutation happens through
    :meth:`ensure_values`, :meth:`insert_segment`, :meth:`try_apply_segments`,
    :meth:`add_bspline` and :meth:`set_coeffs`; the rest are read-only queries.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, degrees: tuple[int, int]):
        self.u = np.asarray(u, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.degrees = (int(degrees[0]), int(degrees[1]))
        # the meshlines: see coverage()
        self._cov = {U: np.zeros((len(self.u), len(self.v) - 1), dtype=bool),
                     V: np.zeros((len(self.v), len(self.u) - 1), dtype=bool)}
        # the B-spline store (see the module docstring): rows [0, _n) are in use
        self._ku = np.zeros((64, self.degrees[0] + 2), dtype=np.int64)
        self._kv = np.zeros((64, self.degrees[1] + 2), dtype=np.int64)
        self._scale, self._coeff = np.zeros(64), np.zeros(64)
        self._alive = np.zeros(64, dtype=bool)
        self._n = 0
        self._index: dict | None = {}    # see bsplines
        self._cache: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # basic queries

    @property
    def domain(self) -> tuple[float, float, float, float]:
        return (float(self.u[0]), float(self.u[-1]),
                float(self.v[0]), float(self.v[-1]))

    def table(self, axis: str) -> np.ndarray:
        return self.u if axis == U else self.v

    def __len__(self) -> int:
        return int(np.count_nonzero(self._alive[:self._n]))

    @property
    def bsplines(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """``(ku tuple, kv tuple) -> store row`` of every B-spline, in row
        order: the split cascade looks up an existing child here.  Rebuilt
        from the store on first use after a knot-table remap."""
        if self._index is None:
            rows = np.flatnonzero(self._alive[:self._n])
            self._index = dict(zip(self._keys(rows), rows.tolist()))
        return self._index

    def _keys(self, rows: np.ndarray) -> list:
        return list(zip(map(tuple, self._ku[rows].tolist()),
                        map(tuple, self._kv[rows].tolist())))

    def _sorted(self) -> tuple[np.ndarray, ...]:
        # the alive rows in key order, their knot index rows and support boxes
        entry = self._cache.get("sorted")
        if entry is None:
            rows = np.flatnonzero(self._alive[:self._n])
            # lexsort's last key is the primary one
            rows = rows[np.lexsort(np.hstack([self._ku[rows], self._kv[rows]]).T[::-1])]
            ku, kv = self._ku[rows], self._kv[rows]
            boxes = np.stack([ku[:, 0], ku[:, -1], kv[:, 0], kv[:, -1]], axis=1)
            entry = self._cache["sorted"] = (rows, ku, kv, boxes)
        return entry

    def bspline_ids(self) -> np.ndarray:
        """Store rows of the B-splines in :meth:`keys_sorted` order.  A row is
        its B-spline's id for as long as the B-spline is in the space."""
        return self._sorted()[0]

    def knot_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Local knot index rows ``(N, p1 + 2)`` and ``(N, p2 + 2)`` in
        :meth:`keys_sorted` order."""
        return self._sorted()[1:3]

    def keys_sorted(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The ``(ku, kv)`` local knot index tuples, sorted."""
        return self._keys(self.bspline_ids())

    def support_boxes(self) -> np.ndarray:
        """``(N, 4)`` int array of B-spline support boxes ``(iu0, iu1, iv0,
        iv1)`` as table indices, in :meth:`keys_sorted` order."""
        return self._sorted()[3]

    def support_bounds(self) -> np.ndarray:
        """``(N, 4)`` float array of support boxes ``(u0, u1, v0, v1)``."""
        return self._box_values(self.support_boxes())

    def _box_values(self, boxes: np.ndarray) -> np.ndarray:
        iu0, iu1, iv0, iv1 = boxes.T
        return np.stack([self.u[iu0], self.u[iu1], self.v[iv0], self.v[iv1]], axis=1)

    def scale_array(self) -> np.ndarray:
        return self._scale[self.bspline_ids()]

    def coeff_array(self) -> np.ndarray:
        return self._coeff[self.bspline_ids()]

    def set_coeffs(self, coeffs: np.ndarray) -> None:
        self._coeff[self.bspline_ids()] = coeffs

    def segments(self) -> list[MeshSegment]:
        """One segment per run of covered intervals in a coverage row: ``u``
        before ``v``, then by fixed index and span."""
        out = []
        for axis in (U, V):
            edge = np.diff(self._cov[axis].astype(np.int8), prepend=0, append=0, axis=1)
            fixed, lo = np.nonzero(edge == 1)
            hi = np.nonzero(edge == -1)[1]
            out += [MeshSegment(axis, f, a, b)
                    for f, a, b in zip(fixed.tolist(), lo.tolist(), hi.tolist())]
        return out

    def _touch(self) -> None:
        self._cache.clear()

    def add_bspline(self, key, scale: float, coeff: float) -> None:
        """Append a B-spline that is not in the space yet: its ``(ku, kv)``
        local knot indices, scaling factor and coefficient."""
        n = self._n
        if n == len(self._alive):
            for name in ("_ku", "_kv", "_scale", "_coeff", "_alive"):
                setattr(self, name, np.concatenate([getattr(self, name)] * 2))
        self._ku[n], self._kv[n] = key
        self._scale[n], self._coeff[n], self._alive[n] = scale, coeff, True
        self._n = n + 1
        self.bsplines[key] = n
        self._touch()

    # ------------------------------------------------------------------
    # meshline coverage

    def coverage(self, axis: str) -> np.ndarray:
        """Boolean array ``cov[i, j]``: the constant-``axis`` line at table
        index ``i`` covers interval ``j`` of the orthogonal table.  This is
        the mesh's only meshline store."""
        return self._cov[axis]

    def _add_span(self, axis: str, fixed: int, lo: int, hi: int) -> None:
        self._cov[axis][fixed, lo:hi] = True

    def merged_extent(self, axis: str, fixed: int, lo: int, hi: int) -> tuple[int, int]:
        """Span of the segment after coalescing with touching collinear ones:
        ``[lo, hi]`` widened by the runs of covered intervals at its ends."""
        row = self._cov[axis][fixed]
        if lo > 0 and row[lo - 1]:
            gaps = np.flatnonzero(~row[:lo - 1])
            lo = int(gaps[-1]) + 1 if len(gaps) else 0
        if hi < len(row) and row[hi]:
            gaps = np.flatnonzero(~row[hi + 1:])
            hi = hi + 1 + int(gaps[0]) if len(gaps) else len(row)
        return lo, hi

    # ------------------------------------------------------------------
    # elements

    def elements(self) -> np.ndarray:
        """``(E, 4)`` int array of element boxes ``(iu0, iu1, iv0, iv1)`` as
        table indices, ordered by lower-left cell, ``v`` major."""
        els = self._cache.get("elements")
        if els is None:
            els, cell = self._build_elements()
            self._cache["elements"] = els
            self._cache["cell"] = cell
        return els

    def element_bounds(self) -> np.ndarray:
        """``(E, 4)`` float array of element boxes ``(u0, u1, v0, v1)``."""
        return self._box_values(self.elements())

    def cell_to_element(self) -> np.ndarray:
        """int array over global grid cells mapping each cell to its element id."""
        self.elements()
        return self._cache["cell"]

    def _build_elements(self) -> tuple[np.ndarray, np.ndarray]:
        # each cell's nearest lines on its four sides, indexed [iu, iv]
        (left, right), (bottom, top) = (_nearest_lines(self._cov[U]),
                                        (a.T for a in _nearest_lines(self._cov[V])))
        nu, nv = left.shape
        if (left < 0).any() or (right > nu).any() or (bottom < 0).any() or (top > nv).any():
            raise MeshError("mesh does not tile the parameter rectangle")
        # the cells between the same four lines form a box exactly when no two
        # neighbours without a line between them see different lines
        differ_u = (bottom[1:] != bottom[:-1]) | (top[1:] != top[:-1])
        differ_v = (left[:, 1:] != left[:, :-1]) | (right[:, 1:] != right[:, :-1])
        if differ_u[~self._cov[U][1:-1]].any() or differ_v[~self._cov[V][1:-1].T].any():
            raise MeshError("the cells between meshlines do not form boxes")
        # number the elements by lower-left cell, v major
        iv0, iu0 = np.nonzero(((left == np.arange(nu)[:, None])
                               & (bottom == np.arange(nv))).T)
        start = np.empty((nu, nv), dtype=np.int64)
        start[iu0, iv0] = np.arange(len(iu0))
        return (np.stack([iu0, right[iu0, iv0], iv0, top[iu0, iv0]], axis=1),
                start[left, bottom])

    def element_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bi, eid)``: every pair of a B-spline id and an element of its
        support, B-spline major and by ascending element id.  Not cached."""
        els = self.elements()
        nu = len(self.u) - 1
        u0, u1, v0, v1 = self.support_boxes().T
        # one run of element ids per support row: the elements are ordered by
        # lower-left cell, v major
        bi, row = np.repeat(np.arange(len(v0)), v1 - v0), _runs(v0, v1 - v0)
        ll = els[:, 2] * nu + els[:, 0]
        lo, hi = (np.searchsorted(ll, row * nu + a[bi]) for a in (u0, u1))
        return np.repeat(bi, hi - lo), _runs(lo, hi - lo)

    def overlap_maps(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``(elements -> B-spline ids, B-spline id -> element ids)``, each a
        list of ascending int arrays of :meth:`elements` and
        :meth:`keys_sorted` positions, from :meth:`element_pairs`."""
        maps = self._cache.get("overlap")
        if maps is None:
            bi, eid = self.element_pairs()
            b2e = np.split(eid, np.cumsum(np.bincount(bi, minlength=len(self)))[:-1])
            # a stable sort keeps each element's B-splines in key order
            e2b = np.split(bi[np.argsort(eid, kind="stable")],
                           np.cumsum(np.bincount(eid, minlength=len(self.elements())))[:-1])
            maps = self._cache["overlap"] = (e2b, b2e)
        return maps

    # ------------------------------------------------------------------
    # minimal support

    def find_offense(self, key) -> tuple[str, int] | None:
        """An existing meshline fully traversing ``key``'s support at an
        interior non-knot value, or None if the B-spline has minimal support.

        Returns the lowest such table index, ``u`` before ``v``."""
        ku, kv = key
        for axis, loc, run in ((U, ku, kv), (V, kv, ku)):
            lo, hi = loc[0], loc[-1]
            if hi - lo < 2:
                continue
            # full[i]: the line at table index lo + 1 + i spans the support
            full = self.coverage(axis)[lo + 1:hi, run[0]:run[-1]].all(axis=1)
            for k in loc[1:-1]:
                if lo < k < hi:
                    full[k - lo - 1] = False
            first = int(full.argmax())
            if full[first]:
                return (axis, lo + 1 + first)
        return None

    def first_invalid_bspline(self) -> tuple[int, str, int, bool] | None:
        """``(id, axis, table index, is_knot)`` of the first B-spline in key
        order whose local knot lines are not exactly the meshlines across its
        support, or None.  A knot line that is not one (``is_knot``) comes
        before a meshline that traverses the support (see :meth:`find_offense`),
        each at its lowest index, ``u`` before ``v``."""
        ku, kv = self.knot_indices()
        hits = []
        for rank, (axis, loc, run) in enumerate(((U, ku, kv), (V, kv, ku))):
            # one (B-spline, line) pair per line from its first to its last knot
            n_line = loc[:, -1] - loc[:, 0] + 1
            bi, line = np.repeat(np.arange(len(loc)), n_line), _runs(loc[:, 0], n_line)
            a, b = run[bi, 0], run[bi, -1]
            # covered[i, j]: intervals before j that the line at index i covers
            covered = np.pad(np.cumsum(self._cov[axis], axis=1), ((0, 0), (1, 0)))
            spans = covered[line, b] - covered[line, a] == b - a
            is_knot = (loc[bi] == line[:, None]).any(axis=1)
            bad = spans != is_knot
            hits.append([bi[bad], ~is_knot[bad], np.full(bad.sum(), rank), line[bad]])
        bi, offense, rank, line = (np.concatenate(h) for h in zip(*hits))
        if not len(bi):
            return None
        k = np.lexsort((line, rank, offense, bi))[0]
        return int(bi[k]), (U, V)[rank[k]], int(line[k]), not offense[k]

    # ------------------------------------------------------------------
    # knot table growth

    def ensure_values(self, axis: str, values: Iterable[float]) -> None:
        """Insert new parameter values into a knot table, remapping all stored
        indices.  Values already present are ignored."""
        table = self.table(axis)
        vals = np.asarray(sorted(set(float(x) for x in values)), dtype=float)
        pos = np.searchsorted(table, vals)
        present = (pos < len(table)) & (table[np.minimum(pos, len(table) - 1)] == vals)
        add = vals[~present]
        if len(add) == 0:
            return
        if add.min() < table[0] or add.max() > table[-1]:
            raise MeshError("new knot value outside the parameter domain")
        merged = np.sort(np.concatenate([table, add]))
        imap = np.searchsorted(merged, table)
        if axis == U:
            self.u, knots = merged, self._ku
        else:
            self.v, knots = merged, self._kv
        knots[:self._n] = imap[knots[:self._n]]
        self._index = None
        # new lines are empty; a line across a split interval covers both halves
        # (take keeps the row-major layout that row and column scans expect)
        cov = np.zeros((len(merged), self._cov[axis].shape[1]), dtype=bool)
        cov[imap] = self._cov[axis]
        parent = np.searchsorted(table, merged[:-1], side="right") - 1
        self._cov = {axis: cov, _other(axis): self._cov[_other(axis)].take(parent, axis=1)}
        self._touch()

    # ------------------------------------------------------------------
    # refinement

    def try_apply_segments(self, segs: Iterable[MeshSegment]) -> tuple[int, int]:
        """Insert segments one at a time as :meth:`insert_segment` does, but
        drop those that split nothing instead of raising.

        Returns ``(inserted, dropped)``.
        """
        inserted = dropped = 0
        for seg in segs:
            try:
                self.insert_segment(seg)
                inserted += 1
            except SegmentError:
                dropped += 1
        return inserted, dropped

    def _traversed(self, axis: str, fixed: int, lo: int, hi: int) -> list:
        """Keys of the B-splines for which the segment is a legal interior
        knotline, in row order."""
        n = self._n
        loc, run = (self._ku, self._kv) if axis == U else (self._kv, self._ku)
        loc, run = loc[:n], run[:n]
        rows = np.flatnonzero((loc[:, 0] < fixed) & (fixed < loc[:, -1])
                              & (run[:, 0] >= lo) & (run[:, -1] <= hi) & self._alive[:n])
        return self._keys(rows[(loc[rows] != fixed).all(axis=1)])

    def insert_segment(self, seg: MeshSegment) -> None:
        """Insert one meshline segment, splitting every B-spline it traverses
        and restoring minimal support.  Raises :class:`SegmentError` if the
        (coalesced) segment does not split any B-spline."""
        axis, fixed, lo, hi = seg.axis, seg.fixed, seg.lo, seg.hi
        table = self.table(axis)
        run = self.table(_other(axis))
        if not (0 < fixed < len(table) - 1):
            raise MeshError("segment must sit at an interior knot value")
        if not (0 <= lo < hi <= len(run) - 1):
            raise MeshError("segment span out of range")
        m_lo, m_hi = self.merged_extent(axis, fixed, lo, hi)
        affected = self._traversed(axis, fixed, m_lo, m_hi)
        if not affected:
            raise SegmentError(
                f"segment {axis}={table[fixed]!r} span [{run[m_lo]!r}, {run[m_hi]!r}] "
                "splits no B-spline")
        self._add_span(axis, fixed, lo, hi)
        self._touch()
        work: deque = deque()
        for key in affected:
            self._split_into(key, axis, fixed, work)
        while work:
            key = work.popleft()
            if key not in self.bsplines:
                continue
            off = self.find_offense(key)
            if off is not None:
                self._split_into(key, off[0], off[1], work)

    def _split_into(self, key, axis: str, ihat: int, work: deque) -> None:
        index = self.bsplines
        row = index.pop(key)
        self._alive[row] = False
        scale, coeff = self._scale[row], self._coeff[row]
        for child, alpha in split_knots(self, key, axis, ihat):
            r = index.get(child)
            if r is not None:
                s_old, p_old = self._scale[r], self._coeff[r]
                s_new = s_old + alpha * scale
                self._scale[r] = s_new
                self._coeff[r] = (s_old * p_old + alpha * scale * coeff) / s_new
            else:
                self.add_bspline(child, alpha * scale, coeff)
            work.append(child)


def _nearest_lines(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a coverage array of ``n + 1`` lines: at every cell ``[i, j]``, the
    nearest line at or below ``i`` that covers interval ``j`` (-1 if none),
    and the nearest one above ``i`` (``n + 1`` if none)."""
    n = len(cov) - 1
    at = np.arange(n + 1)[:, None]
    below = np.maximum.accumulate(np.where(cov[:-1], at[:-1], -1), axis=0)
    above = np.minimum.accumulate(np.where(cov[:0:-1], at[:0:-1], n + 1), axis=0)[::-1]
    return below, above


def _runs(start: np.ndarray, n: np.ndarray) -> np.ndarray:
    # the ranges start[k], ..., start[k] + n[k] - 1, one after another
    return np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - start, n)


def split_knots(space: LRSpace, key, axis: str, ihat: int
                ) -> list[tuple[tuple[tuple[int, ...], tuple[int, ...]], float]]:
    """Single knot insertion ``B = a1 B1 + a2 B2`` on one local knot vector.

    ``ihat`` is a table index strictly inside the support in ``axis`` and not
    an existing local knot.  Returns ``[(child_key, alpha), ...]``.
    """
    ku, kv = key
    loc = ku if axis == U else kv
    table = space.table(axis)
    p = space.degrees[0] if axis == U else space.degrees[1]
    if not (loc[0] < ihat < loc[-1]):
        raise MeshError("split value outside the open support")
    if ihat in loc:
        raise MeshError("split at an existing knot: multiplicity increase unsupported")
    tau = table[list(loc)]
    that = table[ihat]
    combined = list(loc)
    insort(combined, ihat)
    left = tuple(combined[:p + 2])
    right = tuple(combined[1:])
    a1 = 1.0 if that >= tau[p] else (that - tau[0]) / (tau[p] - tau[0])
    a2 = 1.0 if that <= tau[1] else (tau[p + 1] - that) / (tau[p + 1] - tau[1])
    if axis == U:
        return [((left, kv), a1), ((right, kv), a2)]
    return [((ku, left), a1), ((ku, right), a2)]


def _validate_knot_vector(knots, degree: int, name: str) -> np.ndarray:
    kv = np.asarray(knots, dtype=float)
    if kv.ndim != 1 or len(kv) < 2 * degree + 2:
        raise MeshError(f"{name}: need at least {2 * degree + 2} knots")
    if np.any(np.diff(kv) < 0):
        raise MeshError(f"{name}: knots must be non-decreasing")
    p = degree
    if not (np.all(kv[:p + 1] == kv[0]) and np.all(kv[-p - 1:] == kv[-1])):
        raise MeshError(f"{name}: end knots must have multiplicity {p + 1}")
    if kv[p + 1] == kv[0] or kv[-p - 2] == kv[-1]:
        raise MeshError(f"{name}: end multiplicity exceeds {p + 1}")
    interior = kv[p:len(kv) - p]
    if len(interior) > 1 and np.any(np.diff(interior) <= 0):
        raise MeshError(f"{name}: interior knots must be simple and increasing")
    return kv


def make_tensor_mesh(knots_u, knots_v, degrees: tuple[int, int]) -> LRSpace:
    """Tensor-product start space: full grid meshlines and the full tensor
    B-spline basis, every scaling factor one and all coefficients zero."""
    p1, p2 = int(degrees[0]), int(degrees[1])
    if p1 not in SUPPORTED_DEGREES or p2 not in SUPPORTED_DEGREES:
        raise MeshError(f"degrees must be in {SUPPORTED_DEGREES}")
    fu = _validate_knot_vector(knots_u, p1, "knots_u")
    fv = _validate_knot_vector(knots_v, p2, "knots_v")
    tab_u = np.unique(fu)
    tab_v = np.unique(fv)
    space = LRSpace(tab_u, tab_v, (p1, p2))
    for axis in (U, V):    # every line of the tensor grid spans the domain
        space._cov[axis][:] = True
    iu = [0] * p1 + list(range(len(tab_u))) + [len(tab_u) - 1] * p1
    iv = [0] * p2 + list(range(len(tab_v))) + [len(tab_v) - 1] * p2
    for a in range(len(iu) - p1 - 1):
        ku = tuple(iu[a:a + p1 + 2])
        for b in range(len(iv) - p2 - 1):
            space.add_bspline((ku, tuple(iv[b:b + p2 + 2])), 1.0, 0.0)
    return space
