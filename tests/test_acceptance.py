"""Acceptance suite: twelve go/no-go checks over the whole library.

Each test covers one numbered criterion; the conftest terminal-summary hook
prints one PASS/FAIL line per criterion at the end of the run.
"""

import time

import numpy as np
import pytest

from lrfit.basis import basis_value
from lrfit.driver import (EXIT_CONVERGED, EXIT_STAGNATION, RunConfig, run)
from lrfit.fitting import FitConfig, lsq_fit, mba_update, smoothing_matrix
from lrfit.io import gen_synthetic, write_surface
from lrfit.mesh import U, V, make_tensor_mesh
from lrfit.surface import LRSurface, PointCloud

from conftest import (ALL_DEGREES, random_refined_space, random_refinement_step,
                      tensor_eval_oracle, uniform_tensor_space)

CRITERIA = {
    1: "partition of unity <= 1e-12 on 50 refined meshes, < 10 s",
    2: "surface values invariant under refinement to 1e-10",
    3: "full-span saturation equals tensor-product knot insertion",
    4: "minimal support everywhere across the property corpus",
    5: "MBA: single-point exactness 1e-13 and RMS contraction",
    6: "LSQ in-space recovery 1e-9; smoothing matrix symmetric/PSD",
    7: "six-strategy dunes benchmark converges, eFB <= 15 iters, < 2 min",
    8: "structured mesh is fat: bSB coefficients >= 1.2x eFB",
    9: "alternation is lean: eFA coefficients <= 1.02x eFB",
    10: "restricted-mesh stagnation is rescued by strategy switching",
    11: "coincident-xy duplicates bound max distance from below",
    12: "benchmark rerun reproduces ledgers and surfaces bit-for-bit",
}


def pou_residual(space, n_pts, rng):
    uu = rng.uniform(space.u[0], space.u[-1], n_pts)
    vv = rng.uniform(space.v[0], space.v[-1], n_pts)
    tot = np.zeros(n_pts)
    for key, (s, _c) in space.bsplines.items():
        tu, tv = space.local_knot_values(key)
        tot += (s * basis_value(tu, space.degrees[0], uu, space.u[-1])
                * basis_value(tv, space.degrees[1], vv, space.v[-1]))
    return np.abs(tot - 1.0).max()


def test_criterion_01_partition_of_unity(corpus50):
    meshes, build_time = corpus50
    t0 = time.perf_counter()
    worst = 0.0
    for i, sp in enumerate(meshes):
        worst = max(worst, pou_residual(sp, 1000, np.random.default_rng(i)))
    elapsed = build_time + (time.perf_counter() - t0)
    assert worst <= 1e-12, f"partition-of-unity residual {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_02_refinement_invariance():
    worst = 0.0
    for i in range(50):
        degrees = ALL_DEGREES[i % len(ALL_DEGREES)]
        rng = np.random.default_rng(3000 + i)
        sp = uniform_tensor_space(degrees, n_elems=4)
        sp.set_coeffs(rng.normal(size=len(sp)))
        uu = rng.uniform(0, 1, 200)
        vv = rng.uniform(0, 1, 200)
        done = 0
        while done < 6:   # per-insertion checks on a subset of the corpus
            before = LRSurface(sp).evaluate(uu, vv)
            inserted = random_refinement_step(sp, rng)
            if inserted == 0:
                continue
            done += inserted
            after = LRSurface(sp).evaluate(uu, vv)
            worst = max(worst, float(np.abs(after - before).max()))
    assert worst <= 1e-10, f"refinement changed the surface by {worst:.3e}"


def test_criterion_03_tensor_oracle():
    rng = np.random.default_rng(77)
    for trial in range(20):
        degrees = ALL_DEGREES[trial % len(ALL_DEGREES)]
        p1, p2 = degrees
        base = np.linspace(0.0, 1.0, 4)
        ku = np.r_[[0.0] * p1, base, [1.0] * p1]
        kv = np.r_[[0.0] * p2, base, [1.0] * p2]
        sp = make_tensor_mesh(ku, kv, degrees)
        # classical knot insertion: one full-domain line at a new value
        axis = U if trial % 2 == 0 else V
        i = int(rng.integers(0, 3))
        new_val = float(0.5 * (base[i] + base[i + 1]))
        sp.ensure_values(axis, [new_val])
        table = sp.table(axis)
        orth = sp.table(V if axis == U else U)
        from lrfit.mesh import MeshSegment
        sp.insert_segment(MeshSegment(axis, int(np.searchsorted(table, new_val)),
                                      0, len(orth) - 1))
        ku2 = np.sort(np.r_[ku, new_val]) if axis == U else ku
        kv2 = np.sort(np.r_[kv, new_val]) if axis == V else kv
        ref = make_tensor_mesh(ku2, kv2, degrees)

        def value_keys(space):
            return sorted(
                (tuple(space.u[list(k[0])]), tuple(space.v[list(k[1])]))
                for k in space.bsplines)

        assert value_keys(sp) == value_keys(ref), "basis multisets differ"
        assert np.abs(sp.scale_array() - 1.0).max() < 1e-14

        # random coefficients evaluate identically to the scipy tensor oracle
        keys = sp.keys_sorted()
        us = sorted({k[0] for k in keys})
        vs = sorted({k[1] for k in keys})
        grid = rng.normal(size=(len(us), len(vs)))
        sp.set_coeffs(np.array([grid[us.index(k[0]), vs.index(k[1])]
                                for k in keys]))
        uu = rng.uniform(0, 1, 100)
        vv = rng.uniform(0, 1, 100)
        ours = LRSurface(sp).evaluate(uu, vv)
        ref_vals = tensor_eval_oracle(ku2, kv2, degrees, grid, uu, vv)
        assert np.abs(ours - ref_vals).max() <= 1e-12


def test_criterion_04_minimal_support(corpus50):
    meshes, _ = corpus50
    for sp in meshes:
        assert all(sp.has_minimal_support(k) for k in sp.bsplines)


def test_criterion_05_mba_exact_and_contracting():
    for degrees in ALL_DEGREES:
        sp = uniform_tensor_space(degrees, n_elems=2)
        cloud = PointCloud(np.array([[0.37, 0.61, 1.7]]))
        sp.set_coeffs(mba_update(sp, cloud))
        assert abs(LRSurface(sp).evaluate(0.37, 0.61) - 1.7) <= 1e-13

    rng = np.random.default_rng(55)
    for trial in range(20):
        sp = uniform_tensor_space((2, 2), n_elems=4)
        n = 1200
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        a, b = rng.uniform(0.5, 2.5, 2)
        z = np.sin(3 * a * x) * np.cos(3 * b * y)
        cloud = PointCloud(np.c_[x, y, z])
        prev = None
        for _ in range(4):
            sp.set_coeffs(mba_update(sp, cloud))
            resid = LRSurface(sp).evaluate(x, y) - z
            rms = float(np.sqrt(np.mean(resid ** 2)))
            if prev is not None:
                assert rms <= prev + 1e-12, "MBA residual grew"
            prev = rms


def test_criterion_06_lsq_recovery_and_smoothing():
    cfg = FitConfig(alpha_smooth=0.0, solver_tol=1e-13, solver_max_iter=30000)
    rng = np.random.default_rng(66)
    for degrees in [(1, 1), (2, 2), (3, 3)]:
        sp = random_refined_space(600 + degrees[0], degrees, n_insertions=4)
        sp.set_coeffs(rng.normal(size=len(sp)))
        truth_surf = LRSurface(sp)
        x = rng.uniform(sp.u[0], sp.u[-1], 5000)
        y = rng.uniform(sp.v[0], sp.v[-1], 5000)
        cloud = PointCloud(np.c_[x, y, truth_surf.evaluate(x, y)])
        sp.set_coeffs(np.zeros(len(sp)))
        sp.set_coeffs(lsq_fit(sp, cloud, cfg))
        resid = np.abs(LRSurface(sp).evaluate(x, y) - cloud.z)
        assert resid.max() <= 1e-9, f"recovery residual {resid.max():.3e}"

    for seed in (71, 72, 73):
        sp = random_refined_space(seed, (2, 2), n_insertions=5)
        assert len(sp) <= 400
        m = smoothing_matrix(sp).toarray()
        assert np.array_equal(m, m.T), "smoothing matrix not symmetric"
        assert np.linalg.eigvalsh(m).min() >= -1e-10, "smoothing matrix not PSD"
    m11 = smoothing_matrix(uniform_tensor_space((1, 1), n_elems=4))
    assert np.abs(m11.toarray()).max() == 0.0, "degree (1,1) matrix not zero"


BENCH_LABELS = ["eFB", "eFA", "eFA tn", "bSB", "bRA tk", "eMcB"]


def run_benchmark():
    cloud = gen_synthetic("dunes", 1, 100_000)
    tol = 0.01 * float(cloud.z.max() - cloud.z.min())
    results = {}
    t0 = time.perf_counter()
    for label in BENCH_LABELS:
        cfg = RunConfig(strategy=label, tolerance=tol, degrees=(2, 2),
                        max_iterations=40)
        surface, ledger = run(cloud, cfg)
        results[label] = (surface, ledger)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def benchmark7():
    return run_benchmark()


def test_criterion_07_convergence_benchmark(benchmark7):
    results, elapsed = benchmark7
    for label, (_surf, ledger) in results.items():
        code = ledger.exit_code()
        assert code in (EXIT_CONVERGED, EXIT_STAGNATION), \
            f"{label}: exit {code} is neither convergence nor stagnation"
        assert ledger.rows[-1].iteration <= 40
    efb = results["eFB"][1]
    assert efb.converged, "eFB did not converge"
    assert efb.rows[-1].iteration <= 15, \
        f"eFB used {efb.rows[-1].iteration} iterations"
    assert elapsed < 120.0, f"benchmark took {elapsed:.1f}s"


def test_criterion_08_structured_mesh_is_fat(benchmark7):
    results, _ = benchmark7
    n_bsb = results["bSB"][1].rows[-1].n_coeff
    n_efb = results["eFB"][1].rows[-1].n_coeff
    assert n_bsb >= 1.2 * n_efb, f"bSB/eFB ratio {n_bsb / n_efb:.3f} < 1.2"


def test_criterion_09_alternation_is_lean(benchmark7):
    results, _ = benchmark7
    n_efa = results["eFA"][1].rows[-1].n_coeff
    n_efb = results["eFB"][1].rows[-1].n_coeff
    assert n_efa <= 1.02 * n_efb, f"eFA/eFB ratio {n_efa / n_efb:.3f} > 1.02"
    if n_efa < n_efb:
        print(f"  (strict inequality holds: eFA {n_efa} < eFB {n_efb})")


def stagnation_cloud():
    """Dense near-planar data with three tiny bumps: the out-of-tolerance
    points are so rare that the tk cutoff falls back to 1% of the mean
    support population, which no knot-interval strip can reach."""
    rng = np.random.default_rng(10)
    n = 50_000
    x = rng.uniform(0, 100, n)
    y = rng.uniform(0, 100, n)
    z = 0.001 * x
    for cx, cy in [(20.0, 30.0), (55.0, 70.0), (80.0, 25.0)]:
        z = z + 1.5 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.4)
    return PointCloud(np.c_[x, y, z])


def test_criterion_10_switch_mechanism():
    cloud = stagnation_cloud()

    def run_with(label):
        return run(cloud, RunConfig(strategy=label, tolerance=0.3,
                                    max_iterations=40, initial_elements=(8, 8)))

    _s, plain = run_with("bRB tk")
    assert plain.stopped_no_segments, "plain restricted run did not stagnate"
    assert plain.exit_code() == EXIT_STAGNATION

    _s, switched = run_with("bR/eFB tk/n")
    assert switched.converged, "switching run did not converge"
    labels = {r.strategy_active for r in switched.rows}
    assert len(labels) == 2, "the backup strategy never activated"


def test_criterion_11_duplicate_lower_bound():
    rng = np.random.default_rng(14)
    n = 4000
    x = rng.uniform(0, 10, n)
    y = rng.uniform(0, 10, n)
    z = 0.05 * np.sin(x) * np.cos(y)
    dup = np.array([[5.0, 5.0, 0.0], [5.0, 5.0, 2.38]])
    cloud = PointCloud(np.vstack([np.c_[x, y, z], dup]))
    cfg = RunConfig(strategy="eFB", tolerance=0.5, max_iterations=12)
    _surf, ledger = run(cloud, cfg)
    for row in ledger.rows:
        assert row.max_dist >= 1.19 - 1e-12, \
            f"iteration {row.iteration} reported max {row.max_dist}"
    assert not ledger.converged


def test_criterion_12_determinism(benchmark7, tmp_path):
    first, _ = benchmark7
    second, _ = run_benchmark()
    for label in BENCH_LABELS:
        la = first[label][1]
        lb = second[label][1]
        assert len(la.rows) == len(lb.rows), f"{label}: ledger length differs"
        for a, b in zip(la.rows, lb.rows):
            assert (a.iteration, a.n_out, a.n_coeff, a.segments_inserted,
                    a.strategy_active) == \
                   (b.iteration, b.n_out, b.n_coeff, b.segments_inserted,
                    b.strategy_active), f"{label}: ledger rows differ"
            assert (a.max_dist, a.avg_dist, a.avg_out_dist, a.efficiency) == \
                   (b.max_dist, b.avg_dist, b.avg_out_dist, b.efficiency), \
                f"{label}: ledger statistics differ"
        fa = tmp_path / f"{label.replace(' ', '_')}_a.lrb"
        fb = tmp_path / f"{label.replace(' ', '_')}_b.lrb"
        write_surface(first[label][0], str(fa))
        write_surface(second[label][0], str(fb))
        assert fa.read_bytes() == fb.read_bytes(), f"{label}: surfaces differ"
