"""The adaptive loop: stop criteria, ledger content, milestones, switching."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfit.driver import (EXIT_CONVERGED, EXIT_ITERATION_CAP, EXIT_STAGNATION,
                          InputError, LedgerRow, RunConfig, RunLedger,
                          StagePredicate, detect_intermediate, initial_space,
                          oscillation_grade, run)
from lrfit.fitting import FitConfig
from lrfit.strategy import LabelError
from lrfit.surface import LRSurface, PointCloud

from conftest import non_finite_cells


def plane_cloud(n=5000, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = rng.uniform(0, 10, n)
    return PointCloud(np.c_[x, y, 2.0 * x - y + 3.0])


def wavy_cloud(n=20_000, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = rng.uniform(0, 10, n)
    z = np.sin(1.5 * x) * np.cos(1.2 * y) + 0.4 * np.exp(
        -((x - 7) ** 2 + (y - 3) ** 2) / 0.5)
    return PointCloud(np.c_[x, y, z])


class TestConfigValidation:
    def test_bad_tolerance(self):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(InputError, match=f"positive and finite, got {tol!r}"):
                RunConfig(tolerance=tol)

    def test_bad_min_interval(self):
        for value in (-5.0, float("nan")):
            with pytest.raises(InputError, match=f"non-negative, got {value!r}"):
                RunConfig(tolerance=1.0, min_interval=value)

    def test_bad_degree(self):
        with pytest.raises(InputError):
            RunConfig(tolerance=1.0, degrees=(4, 2))

    def test_negative_iterations(self):
        with pytest.raises(InputError):
            RunConfig(tolerance=1.0, max_iterations=-1)

    @pytest.mark.parametrize("kwargs, error", [
        ({"initial_elements": (2.5, 3)}, InputError),
        ({"initial_elements": (0, 3)}, InputError),
        ({"initial_elements": (3, -1)}, InputError),
        ({"initial_elements": (3,)}, InputError),
        ({"initial_elements": (3, 3, 3)}, InputError),
        ({"initial_elements": 3}, InputError),
        ({"degrees": (2,)}, InputError),
        ({"degrees": (2, 2, 2)}, InputError),
        ({"degrees": 2}, InputError),
        ({"degrees": (2.0, 2)}, InputError),
        ({"strategy": "zz"}, LabelError),
        ({"strategy": "bSB tn"}, LabelError),
    ])
    def test_bad_value_fails_at_construction(self, kwargs, error):
        """Each bad value is rejected when the config is built (a fractional
        grid used to escape from ``run`` as a TypeError, a one-element degree
        tuple as an unpacking ValueError, and a bad label only inside
        ``run``)."""
        with pytest.raises(error):
            RunConfig(tolerance=1.0, **kwargs)

    def test_label_parsed_once(self):
        cfg = RunConfig(strategy="bR/eFB tk/n", tolerance=1.0)
        assert cfg.spec.label == "bR/eFB tk/n"
        assert cfg.spec.switch_to.label == "eFB tn"


class TestInitialSurface:
    def test_plane_in_every_space(self):
        cloud = plane_cloud()
        for degrees in [(1, 1), (2, 2), (3, 3)]:
            cfg = RunConfig(tolerance=1.0, degrees=degrees, max_iterations=0,
                            fit=FitConfig(solver_tol=1e-13,
                                          solver_max_iter=20000))
            surf, _ = run(cloud, cfg)
            resid = np.abs(surf.evaluate(cloud.x, cloud.y) - cloud.z)
            assert resid.max() < 1e-8

    def test_one_element_bilinear_sheet(self):
        cloud = plane_cloud(n=500)
        cfg = RunConfig(tolerance=1.0, degrees=(1, 1), initial_elements=(1, 1),
                        max_iterations=0)
        surf, _ = run(cloud, cfg)
        assert len(surf.space) == 4

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(InputError):
            initial_space(PointCloud(np.array([[1.0, 2.0, 3.0]])),
                          RunConfig(tolerance=1.0))
        column = PointCloud(np.c_[np.full(50, 2.0), np.arange(50.0),
                                  np.zeros(50)])
        with pytest.raises(InputError):
            initial_space(column, RunConfig(tolerance=1.0))

    def test_aspect_adjusted_default_grid(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(np.c_[rng.uniform(0, 100, 500),
                                 rng.uniform(0, 25, 500),
                                 rng.normal(size=500)])
        from lrfit.driver import initial_elements_for
        nu, nv = initial_elements_for(cloud, RunConfig(tolerance=1.0))
        assert nu == 8 and nv == 2


class TestNonFiniteInput:
    """One bad coordinate in a 5000-point dunes cloud is named before any fit
    runs (a NaN z used to end in a conjugate-gradient failure, an inf x in a
    knot-multiplicity error)."""

    @pytest.mark.parametrize("row, col, value, name", [
        (1234, 2, np.nan, "z"), (77, 0, np.inf, "x")])
    def test_rejected_with_position(self, row, col, value, name):
        from lrfit.io import gen_synthetic

        xyz = gen_synthetic("dunes", 1, 5000).xyz.copy()
        xyz[row, col] = value
        with pytest.raises(InputError, match=rf"point {row} \(0-based\), column {name}"):
            run(PointCloud(xyz), RunConfig(tolerance=0.5))

    def test_first_bad_coordinate_is_named(self):
        xyz = plane_cloud(n=100).xyz.copy()
        xyz[40, 1] = -np.inf
        xyz[40, 2] = np.nan
        xyz[90, 0] = np.nan
        with pytest.raises(InputError, match=r"point 40 \(0-based\), column y: -inf"):
            run(PointCloud(xyz), RunConfig(tolerance=0.5))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_positions_name_the_first(self, data):
        xyz, (row, col, value) = data.draw(non_finite_cells(plane_cloud(n=60).xyz))
        message = f"point {row} (0-based), column {'xyz'[col]}: {value!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            run(PointCloud(xyz), RunConfig(tolerance=0.5))


class TestRun:
    def test_representable_cloud_converges_at_zero(self):
        cloud = plane_cloud()
        cfg = RunConfig(strategy="eFB", tolerance=0.5)
        _surf, ledger = run(cloud, cfg)
        assert ledger.converged and ledger.stop_reason == "converged"
        assert ledger.rows[-1].iteration == 0
        assert ledger.rows[0].segments_inserted == 0
        assert ledger.exit_code() == EXIT_CONVERGED

    def test_zero_iterations_returns_initial(self):
        cloud = wavy_cloud()
        cfg = RunConfig(strategy="eFB", tolerance=0.01, max_iterations=0)
        _surf, ledger = run(cloud, cfg)
        assert len(ledger.rows) == 1
        assert not ledger.converged and ledger.stop_reason == "iteration cap"
        assert ledger.exit_code() == EXIT_ITERATION_CAP

    def test_wavy_converges_and_ledger_monotone(self):
        cloud = wavy_cloud()
        cfg = RunConfig(strategy="eFB", tolerance=0.02, max_iterations=40)
        surf, ledger = run(cloud, cfg)
        assert ledger.converged
        counts = [r.n_coeff for r in ledger.rows]
        assert counts == sorted(counts)
        resid = np.abs(surf.evaluate(cloud.x, cloud.y) - cloud.z)
        assert resid.max() <= 0.02 + 1e-12

    def test_ledger_rows_one_per_iteration(self):
        cloud = wavy_cloud()
        cfg = RunConfig(strategy="eFA", tolerance=0.02, max_iterations=6)
        _surf, ledger = run(cloud, cfg)
        assert [r.iteration for r in ledger.rows] == list(range(len(ledger.rows)))

    def test_intermediate_stage_and_tail(self):
        """The stage is read off the finished ledger: the first row within it,
        and the tail from there to the last row."""
        cloud = wavy_cloud()
        cfg = RunConfig(strategy="eFB", tolerance=0.02, max_iterations=40)
        _surf, ledger = run(cloud, cfg)
        stage = StagePredicate(max_out_fraction=0.01)
        reached = detect_intermediate(ledger, stage)
        assert reached is not None
        assert stage.satisfied(ledger.rows[reached])
        assert not any(stage.satisfied(row) for row in ledger.rows[:reached])
        assert 0 <= ledger.rows[-1].iteration - reached < len(ledger.rows)

    def test_deterministic_rerun(self):
        cloud = wavy_cloud()
        cfg = RunConfig(strategy="eFA tn", tolerance=0.02, max_iterations=10)
        _s1, led1 = run(cloud, cfg)
        _s2, led2 = run(cloud, cfg)
        for a, b in zip(led1.rows, led2.rows):
            assert (a.iteration, a.n_out, a.n_coeff, a.max_dist, a.avg_dist,
                    a.segments_inserted, a.strategy_active) == \
                   (b.iteration, b.n_out, b.n_coeff, b.max_dist, b.avg_dist,
                    b.segments_inserted, b.strategy_active)


def ledger_from(max_dists, n_outs, n_points=100):
    rows = [LedgerRow(iteration=i, n_out=o, n_coeff=10 + i, max_dist=m,
                      avg_dist=m / 2, avg_out_dist=m, efficiency=1.0,
                      wall_time=0.0, segments_inserted=1, strategy_active="eFB",
                      n_points=n_points)
            for i, (m, o) in enumerate(zip(max_dists, n_outs))]
    return RunLedger(rows=rows)


class TestIntermediateDetection:
    def test_first_satisfying_iteration(self):
        led = ledger_from([5, 4, 3, 2, 1, 0.5, 0.2],
                          [50, 30, 20, 10, 1, 1, 0])
        stage = StagePredicate(max_out_fraction=0.01)
        assert detect_intermediate(led, stage) == 4

    def test_never_satisfied(self):
        led = ledger_from([5, 4], [50, 40])
        assert detect_intermediate(led, StagePredicate(max_out_fraction=0.0)) is None

    def test_satisfied_at_zero(self):
        led = ledger_from([0.1], [0])
        assert detect_intermediate(led, StagePredicate(max_out_fraction=0.5)) == 0

    def test_or_combinator(self):
        led = ledger_from([5, 1.5], [50, 40])
        stage = StagePredicate(max_out_fraction=0.01, max_dist_cap=2.0,
                               combinator="OR")
        assert detect_intermediate(led, stage) == 1


class TestStagePredicateChecks:
    """A bad milestone is rejected when it is built, before any fit runs
    (an unknown combinator used to raise only after the run, and a NaN cap
    was never met)."""

    @pytest.mark.parametrize("combinator", ["and", "or", "XOR", ""])
    def test_unknown_combinator(self, combinator):
        with pytest.raises(InputError,
                           match=re.escape(f"combinator must be 'AND' or 'OR', got {combinator!r}")):
            StagePredicate(max_dist_cap=1.0, combinator=combinator)

    @pytest.mark.parametrize("name", ["max_out_fraction", "max_dist_cap", "avg_out_cap"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_bad_cap(self, name, value):
        with pytest.raises(InputError,
                           match=re.escape(f"{name} must be finite and non-negative, "
                                           f"got {value!r}")):
            StagePredicate(**{name: value})

    def test_boundary_caps_accepted(self):
        stage = StagePredicate(max_out_fraction=0.0, max_dist_cap=0.0, avg_out_cap=None,
                               combinator="OR")
        assert stage.satisfied(ledger_from([0.0], [0]).rows[0])


class TestOscillation:
    def test_monotone_is_none(self):
        led = ledger_from([5, 4, 3, 2, 1], [50, 40, 30, 20, 10])
        assert oscillation_grade(led) == "none"

    def test_single_bump_is_low(self):
        led = ledger_from([5, 4, 4.5, 3, 2], [50, 40, 30, 20, 10])
        assert oscillation_grade(led) == "low"

    def test_alternating_is_high(self):
        led = ledger_from([5, 3, 4, 2, 3, 1, 2, 0.5, 1],
                          [50, 30, 40, 20, 30, 10, 20, 5, 10])
        assert oscillation_grade(led) == "high"

    def test_too_short_is_undefined(self):
        led = ledger_from([5, 4], [50, 40])
        assert oscillation_grade(led) is None
