"""The two approximation engines of the adaptive loop.

Penalized least squares solves the sparse normal equations of

    min_P  alpha_smooth * E(F) + alpha_ls * sum_k (F(x_k, y_k) - z_k)^2

over ``K`` points, with ``alpha_ls = 1/K`` and ``E`` the thin-plate energy
integrated by Gauss-Legendre quadrature, and the multilevel B-spline
approximation (MBA) update folds a pseudo-inverse residual correction into
the coefficients of the existing surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from .basis import basis_deriv, basis_value
from .mesh import LRSpace
from .surface import (PAIR_BLOCK, Assignment, Collocation, LRSurface, PointCloud,
                      assign_points)


class FitError(RuntimeError):
    """Least-squares system could not be solved."""


class SingularSystemError(FitError):
    """A B-spline without data support makes the unsmoothed system singular;
    set a positive smoothing weight."""


#: loop passes fitted by global least squares before the MBA updates take over
LSQ_ITERATIONS = 2


@dataclass
class FitConfig:
    """Smoothing weight and solver settings for the approximation engines.

    A ``None`` smoothing weight resolves to the scale-invariant default
    ``alpha_smooth = 1e-3 * alpha_ls * domain_area`` at fit time.
    """

    alpha_smooth: float | None = None
    solver_tol: float = 1e-10
    solver_max_iter: int = 4000

    def __post_init__(self):
        if self.alpha_smooth is not None and not (math.isfinite(self.alpha_smooth)
                                                  and self.alpha_smooth >= 0.0):
            raise ValueError("alpha_smooth must be None or a finite number >= 0, "
                             f"got {self.alpha_smooth!r}")
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0.0):
            raise ValueError(f"solver_tol must be a finite number > 0, got {self.solver_tol!r}")
        if self.solver_max_iter < 1:
            raise ValueError(f"solver_max_iter must be at least 1, got {self.solver_max_iter!r}")

    def resolved_weights(self, n_points: int, domain_area: float) -> tuple[float, float]:
        a2 = 1.0 / max(n_points, 1)
        a1 = (self.alpha_smooth if self.alpha_smooth is not None
              else 1e-3 * a2 * domain_area)
        return a1, a2


def smoothing_matrix(space: LRSpace) -> sparse.csr_matrix:
    """Thin-plate energy matrix of the scaled basis,
    ``M_ij = integral (f_uu g_uu + 2 f_uv g_uv + f_vv g_vv)``,
    with ``p + 1`` Gauss points per direction on every element.

    With ``W`` the quadrature weights of all elements' points and ``D_uu``,
    ``D_uv``, ``D_vv`` holding one column per B-spline, its scaled
    derivatives at the points of the elements in its support,
    ``M = D_uu^T W D_uu + w_twist D_uv^T W D_uv + D_vv^T W D_vv``.

    The twist term (``w_twist = 2``) enters only when both degrees carry
    curvature (>= 2); for (bi)linear directions the penalty reduces to the
    pure second derivatives, making the matrix identically zero at degree
    (1, 1) so smoothing is inert there.
    """
    p1, p2 = space.degrees
    w_twist = 2.0 if min(p1, p2) >= 2 else 0.0
    u0, u1, v0, v1 = space.element_bounds().T
    xu, wu = np.polynomial.legendre.leggauss(p1 + 1)
    xv, wv = np.polynomial.legendre.leggauss(p2 + 1)
    half_u, half_v = 0.5 * (u1 - u0), 0.5 * (v1 - v0)
    gu = 0.5 * (u0 + u1)[:, None] + half_u[:, None] * xu
    gv = 0.5 * (v0 + v1)[:, None] + half_v[:, None] * xv
    # point (e, a, b) sits at Gauss node a in u and node b in v of element e
    shape = (len(u0), p1 + 1, p2 + 1)
    uq = np.broadcast_to(gu[:, :, None], shape).ravel()
    vq = np.broadcast_to(gv[:, None, :], shape).ravel()
    wq = ((half_u[:, None] * wu)[:, :, None] * (half_v[:, None] * wv)[:, None, :]).ravel()
    nq, n_pts = (p1 + 1) * (p2 + 1), len(wq)
    # one (B-spline, element) pair per element of each support, B-spline major
    owner, elem = space.element_pairs()
    n_el = np.bincount(owner, minlength=len(space))
    # column i holds the D_uu, D_uv, D_vv rows of its n_col[i] Gauss points
    n_col = nq * n_el
    first = np.cumsum(n_col) - n_col
    indptr = np.r_[0, 3 * np.cumsum(n_col)]
    indices = np.empty(indptr[-1], dtype=np.int32 if 3 * n_pts <= np.iinfo(np.int32).max
                       else np.int64)
    data = np.empty(indptr[-1])
    ku, kv = space.knot_indices()
    scale = space.scale_array()
    step = max(PAIR_BLOCK // nq, 1)
    for s in range(0, len(elem), step):
        # the (B-spline, Gauss point) pairs of a block of element pairs
        ids = (elem[s:s + step, None] * nq + np.arange(nq)).ravel()
        b = np.repeat(owner[s:s + step], nq)
        u, v, tu, tv = uq[ids], vq[ids], space.u[ku[b].T], space.v[kv[b].T]
        bu = [basis_value(tu, p1, u), basis_deriv(tu, p1, u, 1), basis_deriv(tu, p1, u, 2)]
        bv = [basis_value(tv, p2, v), basis_deriv(tv, p2, v, 1), basis_deriv(tv, p2, v, 2)]
        at = 2 * first[b] + np.arange(s * nq, s * nq + len(ids))
        for r, (du, dv) in enumerate([(2, 0), (1, 1), (0, 2)]):
            pos = at + r * n_col[b]
            indices[pos] = ids + r * n_pts
            data[pos] = bu[du] * bv[dv] * scale[b]
    d = sparse.csc_matrix((data, indices, indptr), shape=(3 * n_pts, len(n_el)))
    w = sparse.diags(np.concatenate([wq, w_twist * wq, wq]))
    m = (d.T @ (w @ d)).tocsr()
    # exact symmetry despite summation order
    return (m + m.T) * 0.5


def _collocation_matrix(space: LRSpace, cloud: PointCloud, colloc: Collocation | None,
                        assignment: Assignment | None):
    """Collocation matrix at the cloud points, through a new cache and
    assignment when none is given."""
    if assignment is None:
        assignment = assign_points(LRSurface(space), cloud)
    if colloc is None:
        colloc = Collocation(cloud)
    colloc.update(space, assignment)
    return colloc.matrix(space)


def lsq_fit(space: LRSpace, cloud: PointCloud, cfg: FitConfig,
            colloc: Collocation | None = None,
            assignment: Assignment | None = None) -> np.ndarray:
    """Penalized least-squares coefficients over the current spline space."""
    a = _collocation_matrix(space, cloud, colloc, assignment)
    u0, u1, v0, v1 = space.domain
    a1, a2 = cfg.resolved_weights(len(cloud), (u1 - u0) * (v1 - v0))
    col_counts = np.bincount(a.indices, minlength=a.shape[1])
    if a1 == 0.0 and (col_counts == 0).any():
        raise SingularSystemError(
            "B-spline with empty data support and zero smoothing weight")
    ata = (a.T @ a).tocsr()
    rhs = a2 * (a.T @ cloud.z)
    sys_m = a2 * ata
    if a1 > 0.0:
        sys_m = sys_m + a1 * smoothing_matrix(space)
    diag = sys_m.diagonal()
    diag = np.where(diag > 0, diag, 1.0)
    precond = LinearOperator(sys_m.shape, matvec=lambda x: x / diag)
    x0 = space.coeff_array()
    sol, info = cg(sys_m, rhs, x0=x0, rtol=cfg.solver_tol, atol=0.0,
                   maxiter=cfg.solver_max_iter, M=precond)
    if info != 0:
        raise FitError(f"conjugate gradient did not converge (info={info})")
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm > 0:
        rel = np.linalg.norm(sys_m @ sol - rhs) / rhs_norm
        if rel > max(cfg.solver_tol * 1e3, 1e-12):
            raise FitError(f"normal-equation residual {rel:.3e} above tolerance")
    return sol


def mba_update(space: LRSpace, cloud: PointCloud,
               colloc: Collocation | None = None,
               assignment: Assignment | None = None) -> np.ndarray:
    """Local pseudo-inverse coefficient update on the current residuals.

    For weights ``w_ic = s_i R_i(x_c, y_c)`` over the residuals ``r_c``:
    ``phi_ic = w_ic r_c / sum_j w_jc^2`` and
    ``dP_i = sum_c w_ic^2 phi_ic / sum_c w_ic^2``.

    Memory per nonzero above the collocation cache: the CSR matrix ``w``
    (12 B) and one float64 buffer (8 B) on its structure, which holds
    ``w^2`` for both sums and is then cubed in place for the numerator.
    """
    a = _collocation_matrix(space, cloud, colloc, assignment)
    p = space.coeff_array()
    r = cloud.z - a @ p
    pw = sparse.csr_matrix((a.data * a.data, a.indices, a.indptr), shape=a.shape)
    s_row = np.asarray(pw.sum(axis=1)).ravel()
    den = np.asarray(pw.sum(axis=0)).ravel()
    rr = np.divide(r, s_row, out=np.zeros_like(r), where=s_row > 0)
    pw.data *= a.data   # (w * w) * w, as a.multiply(a).multiply(a) gives
    num = np.asarray(pw.T @ rr).ravel()
    dp = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return p + dp


def fit_step(space: LRSpace, cloud: PointCloud, cfg: FitConfig, iteration: int,
             colloc: Collocation | None = None,
             assignment: Assignment | None = None) -> np.ndarray:
    """One approximation pass: global LSQ for the first
    :data:`LSQ_ITERATIONS` loop passes, the local MBA update afterwards.
    Writes the coefficients back into the space and returns them."""
    if iteration < LSQ_ITERATIONS:
        coeffs = lsq_fit(space, cloud, cfg, colloc, assignment)
    else:
        coeffs = mba_update(space, cloud, colloc, assignment)
    space.set_coeffs(coeffs)
    return coeffs
