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
        covu = self.coverage(U)   # (len(u), len(v) - 1)
        covv = self.coverage(V)   # (len(v), len(u) - 1)
        nu = len(self.u) - 1
        nv = len(self.v) - 1
        cell = np.full((nu, nv), -1, dtype=np.int64)
        els: list[tuple[int, int, int, int]] = []
        for iv in range(nv):
            xs = np.flatnonzero(covu[:, iv])
            for pos in range(len(xs) - 1):
                iu = int(xs[pos])
                if not covv[iv, iu]:
                    continue  # bottom edge absent: interior cell of an element
                iu2 = int(xs[pos + 1])
                col = covv[iv + 1:, iu]
                iv2 = iv + 1 + int(np.argmax(col))
                if not col[iv2 - iv - 1]:
                    raise MeshError("unbounded element: missing top meshline")
                # consistency: no meshline crosses the interior, edges covered
                if covu[iu + 1:iu2, iv:iv2].any() or covv[iv + 1:iv2, iu:iu2].any():
                    raise MeshError("meshline crosses element interior")
                if not (covu[iu, iv:iv2].all() and covu[iu2, iv:iv2].all()
                        and covv[iv, iu:iu2].all() and covv[iv2, iu:iu2].all()):
                    raise MeshError("element edge not fully covered by meshlines")
                if (cell[iu:iu2, iv:iv2] != -1).any():
                    raise MeshError("overlapping elements")
                cell[iu:iu2, iv:iv2] = len(els)
                els.append((iu, iu2, iv, iv2))
        if (cell == -1).any():
            raise MeshError("mesh does not tile the parameter rectangle")
        return np.array(els, dtype=np.int64).reshape(-1, 4), cell

    def overlap_maps(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``(elements -> B-spline ids, B-spline id -> element ids)``, each a
        list of ascending int arrays.

        Ids refer to :meth:`elements` and :meth:`keys_sorted` positions.
        """
        maps = self._cache.get("overlap")
        if maps is None:
            els = self.elements()
            # element id at its lower-left cell, -1 elsewhere, indexed [v, u]: a
            # support box slice holds the ids of its elements, ascending v-major
            ll = np.full((len(self.v) - 1, len(self.u) - 1), -1, dtype=np.int64)
            ll[els[:, 2], els[:, 0]] = np.arange(len(els))
            b2e = []
            for iu0, iu1, iv0, iv1 in self.support_boxes().tolist():
                sub = ll[iv0:iv1, iu0:iu1]
                b2e.append(sub[sub >= 0])
            eids = np.concatenate(b2e)
            # a stable sort keeps each element's B-splines in key order
            order = np.argsort(eids, kind="stable")
            bids = np.repeat(np.arange(len(b2e)), [len(e) for e in b2e])[order]
            e2b = np.split(bids, np.cumsum(np.bincount(eids, minlength=len(els)))[:-1])
            maps = (e2b, b2e)
            self._cache["overlap"] = maps
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

    def has_minimal_support(self, key) -> bool:
        if key not in self.bsplines:
            ku, kv = key
            n_u, n_v = len(self.u), len(self.v)
            if not all(0 <= i < n_u for i in ku) or not all(0 <= j < n_v for j in kv):
                raise MeshError("B-spline knot indices out of range")
        return self.find_offense(key) is None

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
