"""LR-mesh and spline-space core.

The mesh is a box partition of a parameter rectangle.  Knots are stored as
integer indices into two shared sorted tables of distinct parameter values
(``u`` and ``v``), which makes knotline matching exact.  Interior knots always
have multiplicity one; the open boundary multiplicity ``p + 1`` is represented
by repeating the first / last table index in the local knot vectors.  The
meshlines are two boolean coverage arrays, one per axis, whose runs of covered
intervals are the meshline segments.  Elements and B-spline supports are both
``(·, 4)`` int arrays of boxes ``(iu0, iu1, iv0, iv1)`` in table indices.

A tensor-product B-spline is identified by its pair of local knot index
tuples; the space keeps a scalar height coefficient and a scaling factor per
B-spline.  Refinement inserts meshline segments, subdivides the B-splines the
segment traverses and re-establishes minimal support, preserving the
represented geometry and partition of unity.
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
    :meth:`ensure_values`, :meth:`insert_segment` and
    :meth:`try_apply_segments`; everything else is a read-only query.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, degrees: tuple[int, int]):
        self.u = np.asarray(u, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.degrees = (int(degrees[0]), int(degrees[1]))
        # the meshlines: see coverage()
        self._cov = {U: np.zeros((len(self.u), len(self.v) - 1), dtype=bool),
                     V: np.zeros((len(self.v), len(self.u) - 1), dtype=bool)}
        # (ku tuple, kv tuple) -> [scale, coeff]
        self.bsplines: dict[tuple[tuple[int, ...], tuple[int, ...]], list[float]] = {}
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
        return len(self.bsplines)

    def keys_sorted(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        # one cache entry holds the keys and, once built, their support boxes
        entry = self._cache.get("keys")
        if entry is None:
            entry = self._cache["keys"] = [sorted(self.bsplines), None]
        return entry[0]

    def support_boxes(self) -> np.ndarray:
        """``(N, 4)`` int array of B-spline support boxes ``(iu0, iu1, iv0,
        iv1)`` as table indices, in :meth:`keys_sorted` order."""
        keys = self.keys_sorted()
        entry = self._cache["keys"]
        if entry[1] is None:
            entry[1] = np.array([(ku[0], ku[-1], kv[0], kv[-1]) for ku, kv in keys],
                                dtype=np.int64).reshape(-1, 4)
        return entry[1]

    def support_bounds(self) -> np.ndarray:
        """``(N, 4)`` float array of support boxes ``(u0, u1, v0, v1)``."""
        return self._box_values(self.support_boxes())

    def _box_values(self, boxes: np.ndarray) -> np.ndarray:
        iu0, iu1, iv0, iv1 = boxes.T
        return np.stack([self.u[iu0], self.u[iu1], self.v[iv0], self.v[iv1]], axis=1)

    def scale_array(self) -> np.ndarray:
        return np.array([self.bsplines[k][0] for k in self.keys_sorted()])

    def coeff_array(self) -> np.ndarray:
        return np.array([self.bsplines[k][1] for k in self.keys_sorted()])

    def set_coeffs(self, coeffs: np.ndarray) -> None:
        for k, c in zip(self.keys_sorted(), coeffs):
            self.bsplines[k][1] = float(c)

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

    def local_knot_values(self, key) -> tuple[np.ndarray, np.ndarray]:
        ku, kv = key
        return self.u[list(ku)], self.v[list(kv)]

    def _touch(self) -> None:
        self._cache.clear()

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
            self.u = merged
            self.bsplines = {(tuple(int(imap[i]) for i in ku), kv): sp
                             for (ku, kv), sp in self.bsplines.items()}
        else:
            self.v = merged
            self.bsplines = {(ku, tuple(int(imap[j]) for j in kv)): sp
                             for (ku, kv), sp in self.bsplines.items()}
        # new lines are empty; a line across a split interval covers both halves
        # (take keeps the row-major layout that row and column scans expect)
        cov = np.zeros((len(merged), self._cov[axis].shape[1]), dtype=bool)
        cov[imap] = self._cov[axis]
        parent = np.searchsorted(table, merged[:-1], side="right") - 1
        self._cov = {axis: cov, _other(axis): self._cov[_other(axis)].take(parent, axis=1)}
        self._touch()

    # ------------------------------------------------------------------
    # refinement

    def insert_segment(self, seg: MeshSegment) -> None:
        """Insert one meshline segment, splitting every B-spline it traverses
        and restoring minimal support.  Raises :class:`SegmentError` if the
        (coalesced) segment does not split any B-spline."""
        self._insert_one(_BatchState(self), seg)

    def try_apply_segments(self, segs: Iterable[MeshSegment]) -> tuple[int, int]:
        """Insert segments one at a time as :meth:`insert_segment` does, but
        drop those that split nothing instead of raising.

        Returns ``(inserted, dropped)``.
        """
        state = _BatchState(self)
        inserted = dropped = 0
        for seg in segs:
            try:
                self._insert_one(state, seg)
                inserted += 1
            except SegmentError:
                dropped += 1
        return inserted, dropped

    def _insert_one(self, state: "_BatchState", seg: MeshSegment) -> None:
        axis, fixed, lo, hi = seg.axis, seg.fixed, seg.lo, seg.hi
        table = self.table(axis)
        run = self.table(_other(axis))
        if not (0 < fixed < len(table) - 1):
            raise MeshError("segment must sit at an interior knot value")
        if not (0 <= lo < hi <= len(run) - 1):
            raise MeshError("segment span out of range")
        m_lo, m_hi = self.merged_extent(axis, fixed, lo, hi)
        affected = state.traversed(axis, fixed, m_lo, m_hi)
        if not affected:
            raise SegmentError(
                f"segment {axis}={table[fixed]!r} span [{run[m_lo]!r}, {run[m_hi]!r}] "
                "splits no B-spline")
        self._add_span(axis, fixed, lo, hi)
        self._touch()
        work: deque = deque()
        for key in affected:
            self._split_into(state, key, axis, fixed, work)
        while work:
            key = work.popleft()
            if key not in self.bsplines:
                continue
            off = self.find_offense(key)
            if off is not None:
                self._split_into(state, key, off[0], off[1], work)

    def _split_into(self, state: "_BatchState", key, axis: str, ihat: int,
                    work: deque) -> None:
        scale, coeff = self.bsplines.pop(key)
        state.kill(key)
        for child, alpha in split_knots(self, key, axis, ihat):
            entry = self.bsplines.get(child)
            if entry is not None:
                s_old, p_old = entry
                s_new = s_old + alpha * scale
                entry[0] = s_new
                entry[1] = (s_old * p_old + alpha * scale * coeff) / s_new
            else:
                self.bsplines[child] = [alpha * scale, coeff]
                state.add(child)
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


class _BatchState:
    """Support-box index over the B-spline set for fast traversal queries,
    kept in sync during a batch of segment insertions.

    Slots are handed out in insertion order and never reused; ``bounds``
    holds ``(ku[0], ku[-1], kv[0], kv[-1])`` per slot and ``alive`` marks the
    slots whose B-spline is still in the space.  Both grow geometrically.
    """

    def __init__(self, space: LRSpace):
        self.keys: list = list(space.bsplines)
        self.slot: dict = {k: i for i, k in enumerate(self.keys)}
        n = len(self.keys)
        cap = max(2 * n, 64)
        self.bounds = np.zeros((4, cap), dtype=np.int64)
        self.bounds[:, :n] = np.array(
            [(ku[0], ku[-1], kv[0], kv[-1]) for ku, kv in self.keys],
            dtype=np.int64).reshape(n, 4).T
        self.alive = np.zeros(cap, dtype=bool)
        self.alive[:n] = True

    def add(self, key) -> None:
        n = len(self.keys)
        if n == self.alive.shape[0]:
            self.bounds = np.concatenate([self.bounds, np.zeros_like(self.bounds)], axis=1)
            self.alive = np.concatenate([self.alive, np.zeros_like(self.alive)])
        ku, kv = key
        self.bounds[:, n] = (ku[0], ku[-1], kv[0], kv[-1])
        self.alive[n] = True
        self.slot[key] = n
        self.keys.append(key)

    def kill(self, key) -> None:
        self.alive[self.slot[key]] = False

    def traversed(self, axis: str, fixed: int, lo: int, hi: int) -> list:
        """Alive B-splines for which the segment is a legal interior knotline,
        in slot order."""
        n = len(self.keys)
        ku0, kuL, kv0, kvL = self.bounds[:, :n]
        if axis == U:
            mask = (ku0 < fixed) & (fixed < kuL) & (kv0 >= lo) & (kvL <= hi)
        else:
            mask = (kv0 < fixed) & (fixed < kvL) & (ku0 >= lo) & (kuL <= hi)
        mask &= self.alive[:n]
        loc_idx = 0 if axis == U else 1
        return [key for key in map(self.keys.__getitem__, np.flatnonzero(mask))
                if fixed not in key[loc_idx]]


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
    for i in range(len(tab_u)):
        space._add_span(U, i, 0, len(tab_v) - 1)
    for j in range(len(tab_v)):
        space._add_span(V, j, 0, len(tab_u) - 1)
    iu = [0] * p1 + list(range(len(tab_u))) + [len(tab_u) - 1] * p1
    iv = [0] * p2 + list(range(len(tab_v))) + [len(tab_v) - 1] * p2
    for a in range(len(iu) - p1 - 1):
        ku = tuple(iu[a:a + p1 + 2])
        for b in range(len(iv) - p2 - 1):
            kv = tuple(iv[b:b + p2 + 2])
            space.bsplines[(ku, kv)] = [1.0, 0.0]
    space._touch()
    return space
