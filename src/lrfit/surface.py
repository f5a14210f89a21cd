"""Surface evaluation, point-to-element assignment and accuracy statistics.

The surface is a height function ``F(u, v) = sum_i P_i s_i R_i(u, v)`` over
the B-splines of an :class:`~lrfit.mesh.LRSpace`; points are parameterized by
their xy coordinates and the fitting distance is the vertical residual
``|F(x, y) - z|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    def _locate(self, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
        """Element id per query point; half-open boxes, closed at the top."""
        sp = self.space
        iu = np.clip(np.searchsorted(sp.u, uu, side="right") - 1, 0, len(sp.u) - 2)
        iv = np.clip(np.searchsorted(sp.v, vv, side="right") - 1, 0, len(sp.v) - 2)
        return sp.cell_to_element()[iu, iv]

    def evaluate(self, u, v):
        """Surface height at ``(u, v)``; arrays broadcast, scalars in/out."""
        sp = self.space
        u0, u1, v0, v1 = sp.domain
        uu, vv = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        scalar = uu.ndim == 0
        uu = np.atleast_1d(uu).ravel()
        vv = np.atleast_1d(vv).ravel()
        if (uu < u0).any() or (uu > u1).any() or (vv < v0).any() or (vv > v1).any():
            raise DomainError("query point outside the surface domain")
        eid = self._locate(uu, vv)
        e2b, _ = sp.overlap_maps()
        keys = sp.keys_sorted()
        scales = sp.scale_array()
        coeffs = sp.coeff_array()
        p1, p2 = sp.degrees
        out = np.zeros_like(uu)
        for e in np.unique(eid):
            mask = eid == e
            ue, ve = uu[mask], vv[mask]
            acc = np.zeros_like(ue)
            for bi in e2b[int(e)]:
                tu, tv = sp.local_knot_values(keys[bi])
                acc += (scales[bi] * coeffs[bi]
                        * basis_value(tu, p1, ue, u1)
                        * basis_value(tv, p2, ve, v1))
            out[mask] = acc
        shp = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))[0].shape
        out = out.reshape(shp)
        return float(out) if scalar else out


@dataclass
class Assignment:
    """Point-to-element assignment for the current mesh."""

    element_of: np.ndarray          # element id per point
    by_element: list[np.ndarray]    # point ids per element, aligned with elements()


def assign_points(surface: LRSurface, cloud: PointCloud) -> Assignment:
    """Assign every point to exactly one element (half-open boxes, the
    greater-side element on interior meshlines, closed at the domain edge)."""
    eid = surface._locate(cloud.x, cloud.y)
    n_el = len(surface.space.elements())
    order = np.argsort(eid, kind="stable")
    sorted_eid = eid[order]
    starts = np.searchsorted(sorted_eid, np.arange(n_el), side="left")
    ends = np.searchsorted(sorted_eid, np.arange(n_el), side="right")
    by_element = [order[s:e] for s, e in zip(starts, ends)]
    return Assignment(element_of=eid, by_element=by_element)


@dataclass
class ElementStats:
    """Distance statistics for the points inside one element."""

    n_points: int = 0
    n_out: int = 0
    max_dist: float = 0.0
    sum_dist: float = 0.0
    sum_out_dist: float = 0.0

    @property
    def avg_dist(self) -> float:
        return self.sum_dist / self.n_points if self.n_points else 0.0


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

    A point whose distance equals the tolerance exactly counts as inside.
    """

    tolerance: float
    per_element: list[ElementStats]
    distances: np.ndarray = field(repr=False)

    @property
    def global_stats(self) -> GlobalStats:
        n_pts = sum(s.n_points for s in self.per_element)
        n_out = sum(s.n_out for s in self.per_element)
        max_d = max((s.max_dist for s in self.per_element), default=0.0)
        sum_d = sum(s.sum_dist for s in self.per_element)
        sum_od = sum(s.sum_out_dist for s in self.per_element)
        return GlobalStats(
            max_dist=max_d,
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
    n_el = len(assignment.by_element)
    n_points = np.bincount(eid, minlength=n_el)
    n_out = np.bincount(eid[out], minlength=n_el)
    sum_d = np.bincount(eid, weights=d, minlength=n_el)
    sum_od = np.bincount(eid[out], weights=d[out], minlength=n_el)
    max_d = np.zeros(n_el)
    np.maximum.at(max_d, eid, d)
    per_element = [
        ElementStats(int(n_points[i]), int(n_out[i]), float(max_d[i]),
                     float(sum_d[i]), float(sum_od[i]))
        for i in range(n_el)
    ]
    return AccuracyLedger(tolerance=tolerance, per_element=per_element, distances=d)


def approximation_efficiency(n_resolved: int, n_coeff: int) -> float:
    """Resolved points per surface coefficient."""
    if n_coeff <= 0:
        raise ValueError("approximation efficiency needs a nonzero coefficient count")
    return n_resolved / n_coeff


class Collocation:
    """Cache of per-B-spline basis rows at the cloud points.

    Rows store the raw product ``R(x) R(y)`` keyed by local knot *values*, so
    they survive both knot-table remaps and scaling-factor updates; only
    B-splines new to the space need evaluation after a refinement.  Each row
    is one column of the collocation matrix.  The matrix built after an
    :meth:`update` is kept for the :meth:`predict` that follows the fit.
    """

    def __init__(self, cloud: PointCloud):
        self.cloud = cloud
        self._rows: dict = {}
        self._matrix = None

    def update(self, space: LRSpace, assignment: Assignment) -> None:
        self._matrix = None
        keys = space.keys_sorted()
        _, b2e = space.overlap_maps()
        p1, p2 = space.degrees
        u1 = float(space.u[-1])
        v1 = float(space.v[-1])
        x, y = self.cloud.x, self.cloud.y
        wanted = {}
        for bi, key in enumerate(keys):
            tu, tv = space.local_knot_values(key)
            wanted[(tuple(tu), tuple(tv))] = bi
        for vk in list(self._rows):
            if vk not in wanted:
                del self._rows[vk]
        for vk, bi in wanted.items():
            if vk in self._rows:
                continue
            ids_parts = [assignment.by_element[int(e)] for e in b2e[bi]]
            ids = np.concatenate(ids_parts) if ids_parts else np.empty(0, dtype=int)
            if len(ids) == 0:
                self._rows[vk] = (ids, np.empty(0))
                continue
            w = (basis_value(np.asarray(vk[0]), p1, x[ids], u1)
                 * basis_value(np.asarray(vk[1]), p2, y[ids], v1))
            nz = w > 0.0
            self._rows[vk] = (ids[nz], w[nz])
        self._order = [None] * len(keys)
        for vk, bi in wanted.items():
            self._order[bi] = vk

    def matrix(self, space: LRSpace):
        """Sparse collocation matrix ``A[k, i] = s_i R_i(x_k, y_k)`` in CSR
        form, assembled column by column from the cached rows."""
        from scipy import sparse

        scales = space.scale_array()
        n = len(self._order)
        k = len(self.cloud)
        cols = [self._rows[vk] for vk in self._order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(ids) for ids, _ in cols], out=indptr[1:])
        if n:
            indices = np.concatenate([ids for ids, _ in cols])
            data = np.concatenate([s * w for s, (_, w) in zip(scales, cols)])
        else:
            indices, data = np.empty(0, dtype=np.int64), np.empty(0)
        self._matrix = sparse.csc_matrix((data, indices, indptr), shape=(k, n)).tocsr()
        return self._matrix

    def predict(self, space: LRSpace) -> np.ndarray:
        """Surface heights at the cloud points: the matrix built since the
        last :meth:`update` times the coefficients.  Releases that matrix."""
        a = self._matrix if self._matrix is not None else self.matrix(space)
        self._matrix = None
        return a @ space.coeff_array()
