"""Surface evaluation, point-to-element assignment and accuracy statistics.

The surface is a height function ``F(u, v) = sum_i P_i s_i R_i(u, v)`` over
the B-splines of an :class:`~lrfit.mesh.LRSpace`; points are parameterized by
their xy coordinates and the fitting distance is the vertical residual
``|F(x, y) - z|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .basis import basis_value
from .mesh import LRSpace


class DomainError(ValueError):
    """Query point outside the surface domain."""


@dataclass
class PointCloud:
    """Scattered points ``(x, y, z)`` in meters, parameterized by xy."""

    xyz: np.ndarray

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError("point cloud must be a (K, 3) array")

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.xyz[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.xyz[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.xyz[:, 2]


class LRSurface:
    """Evaluable LR B-spline height function over an :class:`LRSpace`."""

    def __init__(self, space: LRSpace):
        self.space = space

    @property
    def degrees(self) -> tuple[int, int]:
        return self.space.degrees

    @property
    def domain(self) -> tuple[float, float, float, float]:
        return self.space.domain

    def evaluate(self, u, v):
        """Surface height at ``(u, v)``; arrays broadcast, scalars in/out."""
        sp = self.space
        u0, u1, v0, v1 = sp.domain
        uu, vv = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        shape = uu.shape
        uu, vv = uu.ravel(), vv.ravel()
        # "inside the closed box", so that a NaN coordinate fails it too
        if not ((u0 <= uu) & (uu <= u1) & (v0 <= vv) & (vv <= v1)).all():
            raise DomainError("query point outside the surface domain")
        _, order, start = _cell_order(sp, uu, vv)
        s, c = sp.scale_array(), sp.coeff_array()
        out = np.zeros_like(uu)
        # every point takes its terms ((R_u R_v) s) P in key order, as the
        # collocation matrix times the coefficients does
        for bi, ids, ru, rv in _bspline_points(sp, order, start, uu, vv, np.arange(len(s))):
            ru *= rv
            ru *= s[bi]
            ru *= c[bi]
            out[ids] += ru
        out = out.reshape(shape)
        return float(out) if out.ndim == 0 else out


def _cell_order(space: LRSpace, x: np.ndarray, y: np.ndarray):
    """``(cell, order, start)``: each point's global grid cell ``iu * nv + iv``
    (half-open, closed at the domain top), the point ids stably sorted by
    cell, and where each cell's run starts in that order, plus the end."""
    nu, nv = len(space.u) - 1, len(space.v) - 1
    iu = np.clip(np.searchsorted(space.u, x, side="right") - 1, 0, nu - 1)
    iv = np.clip(np.searchsorted(space.v, y, side="right") - 1, 0, nv - 1)
    cell = iu * nv + iv
    order = np.argsort(cell, kind="stable")
    start = np.r_[0, np.cumsum(np.bincount(cell, minlength=nu * nv))]
    return cell, order, start


def _bspline_points(space: LRSpace, order: np.ndarray, start: np.ndarray,
                    x: np.ndarray, y: np.ndarray, bis):
    """Yield ``(bi, ids, R_u, R_v)`` for each B-spline id in ``bis`` with points
    in its support box: those points and its two univariate factors.  The
    support is a union of elements, hence of grid cells, so its points are
    one run ``order[lo:hi]`` per support column (see :func:`_cell_order`)."""
    ku, kv = space.knot_indices()
    p1, p2 = space.degrees
    u1, v1 = float(space.u[-1]), float(space.v[-1])
    nv = len(space.v) - 1
    u_lo, u_hi, v_lo, v_hi = space.support_boxes()[bis].T
    n_col = u_hi - u_lo
    first = np.cumsum(n_col) - n_col
    col = np.arange(n_col.sum()) - np.repeat(first - u_lo, n_col)
    lo = start[col * nv + np.repeat(v_lo, n_col)]
    hi = start[col * nv + np.repeat(v_hi, n_col)]
    n_pts = np.add.reduceat(hi - lo, first) if len(bis) else first
    lo, hi, first, last = lo.tolist(), hi.tolist(), first.tolist(), (first + n_col).tolist()
    for k in np.flatnonzero(n_pts).tolist():
        ids = np.concatenate([order[lo[j]:hi[j]] for j in range(first[k], last[k])])
        tu, tv = space.u[ku[bis[k]]], space.v[kv[bis[k]]]
        yield bis[k], ids, basis_value(tu, p1, x[ids], u1), basis_value(tv, p2, y[ids], v1)


#: (B-spline, point) pairs per block of a pass over the pairs of a whole
#: space: at about 120 B per pair, a block's arrays stay near 2 MB
PAIR_BLOCK = 16_384


@dataclass
class Assignment:
    """Point-to-element assignment for the current mesh."""

    element_of: np.ndarray          # element id per point
    order: np.ndarray               # point ids sorted by global grid cell
    start: np.ndarray               # start of each cell's run in ``order``, plus the end


def assign_points(surface: LRSurface, cloud: PointCloud) -> Assignment:
    """Assign every point to exactly one element (half-open boxes, the
    greater-side element on interior meshlines, closed at the domain edge)."""
    space = surface.space
    cell, order, start = _cell_order(space, cloud.x, cloud.y)
    return Assignment(space.cell_to_element().ravel()[cell], order, start)


@dataclass
class GlobalStats:
    max_dist: float
    avg_dist: float
    avg_out_dist: float
    n_out: int
    n_points: int


@dataclass
class AccuracyLedger:
    """Per-element and aggregated accuracy of a surface against a cloud.

    The per-element arrays are indexed by element id: point count,
    out-of-tolerance count, largest distance (0 for an empty element), and
    the sums of all distances and of the out-of-tolerance ones.  A point
    whose distance equals the tolerance exactly counts as inside.
    """

    tolerance: float
    distances: np.ndarray = field(repr=False)
    n_points: np.ndarray = field(repr=False)
    n_out: np.ndarray = field(repr=False)
    max_dist: np.ndarray = field(repr=False)
    sum_dist: np.ndarray = field(repr=False)
    sum_out_dist: np.ndarray = field(repr=False)

    @property
    def global_stats(self) -> GlobalStats:
        n_pts = int(self.n_points.sum())
        n_out = int(self.n_out.sum())
        # sequential sums in element order as Python floats, not numpy's
        # pairwise ones: avg_out_dist feeds the td cutoff to the last bit
        sum_d = sum(self.sum_dist.tolist())
        sum_od = sum(self.sum_out_dist.tolist())
        return GlobalStats(
            max_dist=max(self.max_dist.tolist(), default=0.0),
            avg_dist=sum_d / n_pts if n_pts else 0.0,
            avg_out_dist=sum_od / n_out if n_out else 0.0,
            n_out=n_out,
            n_points=n_pts,
        )


def compute_accuracy(surface: LRSurface, cloud: PointCloud, assignment: Assignment,
                     tolerance: float, z_pred: np.ndarray | None = None) -> AccuracyLedger:
    """Vertical-residual accuracy ledger for the current assignment.

    ``z_pred`` may carry precomputed surface heights at the cloud points.
    """
    if z_pred is None:
        z_pred = surface.evaluate(cloud.x, cloud.y)
    d = np.abs(z_pred - cloud.z)
    out = d > tolerance
    eid = assignment.element_of
    n_el = len(surface.space.elements())
    max_d = np.zeros(n_el)
    np.maximum.at(max_d, eid, d)
    return AccuracyLedger(
        tolerance=tolerance, distances=d,
        n_points=np.bincount(eid, minlength=n_el),
        n_out=np.bincount(eid[out], minlength=n_el),
        max_dist=max_d,
        sum_dist=np.bincount(eid, weights=d, minlength=n_el),
        sum_out_dist=np.bincount(eid[out], weights=d[out], minlength=n_el))


def approximation_efficiency(n_resolved: int, n_coeff: int) -> float:
    """Resolved points per surface coefficient."""
    if n_coeff <= 0:
        raise ValueError("approximation efficiency needs a nonzero coefficient count")
    return n_resolved / n_coeff


def _column_matrix(cols, scales, n_rows: int) -> sparse.csc_matrix:
    """CSC matrix with one column per B-spline: column ``i`` holds
    ``scales[i] * values`` at the rows ``ids`` of ``cols[i] = (ids, values)``.
    The values are concatenated once and scaled in place; int32 ids are
    kept by scipy without a copy."""
    lengths = [len(ids) for ids, _ in cols]
    indptr = np.cumsum([0] + lengths)
    indices = np.concatenate([ids for ids, _ in cols])
    data = np.concatenate([w for _, w in cols])
    data *= np.repeat(scales, lengths)   # w * s == s * w, bit for bit
    return sparse.csc_matrix((data, indices, indptr), shape=(n_rows, len(cols)))


class Collocation:
    """Cache of per-B-spline basis rows at the cloud points, for one space.

    Rows store the raw product ``R(x) R(y)`` keyed by B-spline id (its store
    row), which survives both knot-table remaps and scaling-factor updates;
    only new ids need evaluation after a refinement.  Each row is one column
    of the collocation matrix, in sorted order.  The matrix built after an
    :meth:`update` is kept for the :meth:`predict` that follows the fit.

    Memory per nonzero: the cache holds each one once, as an int32 point id
    and a float64 value (12 B; int64 ids only for a cloud of 2**31 points or
    more).  :meth:`matrix` peaks at about 24 B above the cache while it
    converts the CSC assembly to CSR, and keeps the 12 B of the CSR matrix.
    """

    def __init__(self, cloud: PointCloud):
        self.cloud = cloud
        self._id_dtype = np.int32 if len(cloud) <= np.iinfo(np.int32).max else np.int64
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._matrix = None

    def update(self, space: LRSpace, assignment: Assignment) -> None:
        self._matrix = None
        self._ids = space.bspline_ids().tolist()
        for i in self._rows.keys() - set(self._ids):
            del self._rows[i]
        new = [bi for bi, i in enumerate(self._ids) if i not in self._rows]
        for bi in new:   # a B-spline without points keeps an empty row
            self._rows[self._ids[bi]] = (np.empty(0, dtype=self._id_dtype), np.empty(0))
        for bi, ids, ru, rv in _bspline_points(space, assignment.order, assignment.start,
                                               self.cloud.x, self.cloud.y, new):
            w = ru * rv
            nz = w > 0.0
            self._rows[self._ids[bi]] = (ids[nz].astype(self._id_dtype), w[nz])

    def matrix(self, space: LRSpace):
        """Sparse collocation matrix ``A[k, i] = s_i R_i(x_k, y_k)`` in CSR
        form, assembled column by column from the cached rows."""
        cols = [self._rows[i] for i in self._ids]
        self._matrix = _column_matrix(cols, space.scale_array(), len(self.cloud)).tocsr()
        return self._matrix

    def predict(self, space: LRSpace) -> np.ndarray:
        """Surface heights at the cloud points: the matrix built since the
        last :meth:`update` times the coefficients.  Releases that matrix."""
        a = self._matrix if self._matrix is not None else self.matrix(space)
        self._matrix = None
        return a @ space.coeff_array()
