"""Shared corpus builders and independent oracles for the test suite."""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.interpolate import BSpline

from lrfit.mesh import LRSpace, MeshSegment, U, V, make_tensor_mesh


def uniform_tensor_space(degrees, n_elems=4, lo=0.0, hi=1.0) -> LRSpace:
    p1, p2 = degrees
    k = np.linspace(lo, hi, n_elems + 1)
    ku = np.r_[[lo] * p1, k, [hi] * p1]
    kv = np.r_[[lo] * p2, k, [hi] * p2]
    return make_tensor_mesh(ku, kv, degrees)


def random_refinement_step(space: LRSpace, rng: np.random.Generator) -> int:
    """Insert one random midpoint meshline with a random (long) span; returns
    the number of B-splines the insertion actually refined."""
    axis = U if rng.random() < 0.5 else V
    table = space.table(axis)
    i = int(rng.integers(0, len(table) - 1))
    mid = 0.5 * (table[i] + table[i + 1])
    # ends must land on orthogonal meshlines crossing interval i, otherwise
    # the new line would dangle inside an element
    cands = np.flatnonzero(space.coverage(V if axis == U else U)[:, i])
    k = len(cands)
    lo_pos = int(rng.integers(0, max(k // 3, 1)))
    hi_pos = int(rng.integers(min(2 * k // 3, k - 1), k))
    lo, hi = int(cands[lo_pos]), int(cands[hi_pos])
    if hi <= lo:
        return 0
    space.ensure_values(axis, [mid])
    fixed = int(np.searchsorted(space.table(axis), mid))
    inserted, _ = space.try_apply_segments([MeshSegment(axis, fixed, lo, hi)])
    return inserted


def random_refined_space(seed: int, degrees, n_insertions: int = 30,
                         n_elems: int = 4) -> LRSpace:
    rng = np.random.default_rng(seed)
    space = uniform_tensor_space(degrees, n_elems)
    done = 0
    while done < n_insertions:
        done += random_refinement_step(space, rng)
    return space


def mesh_corpus(n_meshes: int = 50, n_insertions: int = 30):
    """Deterministic corpus of refined meshes over all supported degrees."""
    degree_cycle = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)]
    for i in range(n_meshes):
        degrees = degree_cycle[i % len(degree_cycle)]
        yield random_refined_space(1000 + i, degrees, n_insertions)


# ----------------------------------------------------------------------
# independent oracles


def tensor_design_matrix(knots, degree, x):
    """Classical tensor B-spline basis values via scipy, right-closed."""
    return BSpline.design_matrix(x, knots, degree, extrapolate=False).toarray()


def tensor_eval_oracle(knots_u, knots_v, degrees, coeffs, u, v):
    """Evaluate a tensor-product spline sum_ij C_ij N_i(u) N_j(v) with scipy
    design matrices — no lrfit code involved."""
    bu = tensor_design_matrix(np.asarray(knots_u, float), degrees[0],
                              np.atleast_1d(np.asarray(u, float)))
    bv = tensor_design_matrix(np.asarray(knots_v, float), degrees[1],
                              np.atleast_1d(np.asarray(v, float)))
    return np.einsum("ki,kj,ij->k", bu, bv, coeffs)


def element_boxes_oracle(space: LRSpace) -> set:
    """Element boxes by union-find over the fine cell grid, using only the
    public segment list — an algorithm independent of the element scan in
    the library."""
    nu, nv = len(space.u), len(space.v)
    # wall_u[i, j]: a constant-u meshline at table index i crosses v-cell j
    wall_u = np.zeros((nu, nv - 1), dtype=bool)
    wall_v = np.zeros((nv, nu - 1), dtype=bool)
    for seg in space.segments():
        if seg.axis == U:
            wall_u[seg.fixed, seg.lo:seg.hi] = True
        else:
            wall_v[seg.fixed, seg.lo:seg.hi] = True

    parent = list(range((nu - 1) * (nv - 1)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def cid(iu, iv):
        return iu * (nv - 1) + iv

    for iu in range(nu - 1):
        for iv in range(nv - 1):
            if iu + 1 < nu - 1 and not wall_u[iu + 1, iv]:
                union(cid(iu, iv), cid(iu + 1, iv))
            if iv + 1 < nv - 1 and not wall_v[iv + 1, iu]:
                union(cid(iu, iv), cid(iu, iv + 1))

    groups: dict = {}
    for iu in range(nu - 1):
        for iv in range(nv - 1):
            groups.setdefault(find(cid(iu, iv)), []).append((iu, iv))
    boxes = set()
    for cells in groups.values():
        ius = [c[0] for c in cells]
        ivs = [c[1] for c in cells]
        box = (min(ius), max(ius) + 1, min(ivs), max(ivs) + 1)
        # a legal mesh tiles into rectangles
        assert len(cells) == (box[1] - box[0]) * (box[3] - box[2]), \
            "non-rectangular cell group"
        boxes.add(box)
    return boxes


ALL_DEGREES = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)]


@pytest.fixture(scope="session")
def corpus50():
    """50 randomly refined meshes, >= 30 insertions each, all degrees, and
    the time their construction took."""
    meshes = []
    t0 = time.perf_counter()
    for i in range(50):
        degrees = ALL_DEGREES[i % len(ALL_DEGREES)]
        meshes.append(random_refined_space(2000 + i, degrees, n_insertions=30))
    return meshes, time.perf_counter() - t0


@pytest.fixture(scope="session")
def small_corpus():
    return list(mesh_corpus(n_meshes=12, n_insertions=12))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    import re

    try:
        from test_acceptance import CRITERIA
    except ImportError:
        return
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          getattr(rep, "nodeid", ""))
            if m and getattr(rep, "when", "call") == "call":
                outcomes[int(m.group(1))] = status
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        if num in outcomes:
            verdict = "PASS" if outcomes[num] == "passed" else "FAIL"
            terminalreporter.write_line(
                f"criterion {num:2d} {verdict}: {CRITERIA[num]}")
