"""The two approximation engines of the adaptive loop.

Penalized least squares solves the sparse normal equations of

    min_P  alpha_smooth * E(F) + alpha_ls * sum_k (F(x_k, y_k) - z_k)^2

where ``E`` is the thin-plate energy assembled by Gauss-Legendre quadrature,
and the multilevel B-spline approximation (MBA) update folds a pseudo-inverse
residual correction into the coefficients of the existing surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg

from .basis import basis_deriv, basis_value
from .mesh import LRSpace
from .surface import Assignment, Collocation, LRSurface, PointCloud, assign_points


class FitError(RuntimeError):
    """Least-squares system could not be solved."""


class SingularSystemError(FitError):
    """A B-spline without data support makes the unsmoothed system singular;
    set a positive smoothing weight."""


@dataclass
class FitConfig:
    """Weights and solver settings for the approximation engines.

    ``None`` weights resolve to scale-invariant defaults at fit time:
    ``alpha_ls = 1/K`` and ``alpha_smooth = 1e-3 * alpha_ls * domain_area``.
    """

    alpha_smooth: float | None = None
    alpha_ls: float | None = None
    lsq_iterations: int = 2
    solver_tol: float = 1e-10
    solver_max_iter: int = 4000

    def resolved_weights(self, n_points: int, domain_area: float) -> tuple[float, float]:
        a2 = self.alpha_ls if self.alpha_ls is not None else 1.0 / max(n_points, 1)
        a1 = (self.alpha_smooth if self.alpha_smooth is not None
              else 1e-3 * a2 * domain_area)
        return a1, a2


def _gauss_on(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def smoothing_matrix(space: LRSpace) -> sparse.csr_matrix:
    """Thin-plate energy matrix of the scaled basis,
    ``M_ij = integral (f_uu g_uu + 2 f_uv g_uv + f_vv g_vv)``,
    assembled element-wise with ``p + 1`` Gauss points per direction.

    The twist term enters only when both degrees carry curvature (>= 2);
    for (bi)linear directions the penalty reduces to the pure second
    derivatives, making the matrix identically zero at degree (1, 1) so
    smoothing is inert there.
    """
    p1, p2 = space.degrees
    w_twist = 2.0 if min(p1, p2) >= 2 else 0.0
    keys = space.keys_sorted()
    scales = space.scale_array()
    e2b, _ = space.overlap_maps()
    u_max = float(space.u[-1])
    v_max = float(space.v[-1])
    n = len(keys)
    ii, jj, vv = [], [], []
    for e, el in enumerate(space.elements()):
        bids = e2b[e]
        if not bids:
            continue
        u0, u1, v0, v1 = el.bounds(space)
        gu, wu = _gauss_on(u0, u1, p1 + 1)
        gv, wv = _gauss_on(v0, v1, p2 + 1)
        wg = np.outer(wu, wv).ravel()
        uu = np.repeat(gu, len(gv))
        vvq = np.tile(gv, len(gu))
        rows = {0: [], 1: [], 2: []}  # orders of the u-derivative in (uu, uv, vv)
        for bi in bids:
            tu, tv = space.local_knot_values(keys[bi])
            s = scales[bi]
            bu0 = basis_value(tu, p1, uu, u_max)
            bu1 = basis_deriv(tu, p1, uu, 1, u_max)
            bu2 = basis_deriv(tu, p1, uu, 2, u_max)
            bv0 = basis_value(tv, p2, vvq, v_max)
            bv1 = basis_deriv(tv, p2, vvq, 1, v_max)
            bv2 = basis_deriv(tv, p2, vvq, 2, v_max)
            rows[0].append(s * bu2 * bv0)
            rows[1].append(s * bu1 * bv1)
            rows[2].append(s * bu0 * bv2)
        duu = np.array(rows[0])
        duv = np.array(rows[1])
        dvv = np.array(rows[2])
        wloc = (duu * wg) @ duu.T + w_twist * (duv * wg) @ duv.T + (dvv * wg) @ dvv.T
        bids_arr = np.asarray(bids)
        ii.append(np.repeat(bids_arr, len(bids)))
        jj.append(np.tile(bids_arr, len(bids)))
        vv.append(wloc.ravel())
    if not ii:
        return sparse.csr_matrix((n, n))
    m = sparse.coo_matrix(
        (np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))),
        shape=(n, n)).tocsr()
    # exact symmetry despite summation order
    return (m + m.T) * 0.5


def lsq_fit(space: LRSpace, cloud: PointCloud, cfg: FitConfig,
            colloc: Collocation | None = None,
            assignment: Assignment | None = None) -> np.ndarray:
    """Penalized least-squares coefficients over the current spline space."""
    surface = LRSurface(space)
    if assignment is None:
        assignment = assign_points(surface, cloud)
    if colloc is None:
        colloc = Collocation(cloud)
    colloc.update(space, assignment)
    a = colloc.matrix(space)
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
    """
    surface = LRSurface(space)
    if assignment is None:
        assignment = assign_points(surface, cloud)
    if colloc is None:
        colloc = Collocation(cloud)
    colloc.update(space, assignment)
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
    return p + dp


def fit_step(space: LRSpace, cloud: PointCloud, cfg: FitConfig, iteration: int,
             colloc: Collocation | None = None,
             assignment: Assignment | None = None) -> np.ndarray:
    """One approximation pass: global LSQ for the first ``lsq_iterations``
    loop passes, the local MBA update afterwards.  Writes the coefficients
    back into the space and returns them."""
    if iteration < cfg.lsq_iterations:
        coeffs = lsq_fit(space, cloud, cfg, colloc, assignment)
    else:
        coeffs = mba_update(space, cloud, colloc, assignment)
    space.set_coeffs(coeffs)
    return coeffs
