"""End-to-end command-line behavior and exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfit.cli import cli_main, parse_stage
from lrfit.io import REPORT_HEADER, read_surface

from conftest import non_finite_cells


@pytest.fixture(scope="module")
def cloud_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pts.xyz"
    code = cli_main(["synth", "--kind", "dunes", "--seed", "1",
                     "--n", "2000", "--out", str(path)])
    assert code == 0
    return str(path)


class TestFit:
    def test_full_run_with_outputs(self, cloud_file, tmp_path):
        surf_path = tmp_path / "s.lrb"
        csv_path = tmp_path / "run.csv"
        code = cli_main(["fit", "--points", cloud_file, "--strategy", "bSB",
                         "--tolerance", "0.6", "--degree", "2",
                         "--max-iter", "40", "--out", str(surf_path),
                         "--report", str(csv_path)])
        assert code == 0
        surf = read_surface(str(surf_path))
        assert surf.degrees == (2, 2)
        assert csv_path.read_text().startswith("iter,")

    def test_iteration_cap_exit(self, cloud_file):
        code = cli_main(["fit", "--points", cloud_file, "--strategy", "eFB",
                         "--tolerance", "0.05", "--max-iter", "0"])
        assert code == 2

    def test_unknown_label_exit(self, cloud_file, capsys):
        code = cli_main(["fit", "--points", cloud_file, "--strategy", "zz",
                         "--tolerance", "0.5"])
        assert code == 4
        assert "grammar" in capsys.readouterr().err

    def test_missing_file_exit(self):
        code = cli_main(["fit", "--points", "/nonexistent.xyz",
                         "--tolerance", "0.5"])
        assert code == 4

    @pytest.mark.parametrize("option, value, message", [
        ("--strategy", "zz", "grammar"),
        ("--tolerance", "nan", "tolerance must be positive and finite"),
        ("--initial-grid", "4x0", "at least one element per side"),
        ("--initial-grid", "4by4", "--initial-grid wants NxM"),
        ("--intermediate", "max<=-1", "finite and non-negative"),
    ])
    def test_bad_setting_exits_before_reading_points(self, option, value, message,
                                                     capsys):
        """The run settings are checked before the point file is opened (a bad
        label used to be reported only after a missing file was)."""
        argv = ["fit", "--points", "/nonexistent.xyz", "--tolerance", "0.5"]
        assert cli_main(argv + [option, value]) == 4
        err = capsys.readouterr().err
        assert message in err
        assert "nonexistent" not in err

    def test_usage_error_exit(self):
        assert cli_main(["fit", "--points"]) == 4
        assert cli_main(["unknown-command"]) == 4

    def test_intermediate_flag(self, cloud_file, capsys):
        code = cli_main(["fit", "--points", cloud_file, "--strategy", "eFB",
                         "--tolerance", "0.6", "--initial-grid", "4x4",
                         "--intermediate", "out<=50%"])
        assert code == 0
        assert "intermediate stage" in capsys.readouterr().out


class TestFailureExits:
    def test_non_finite_coordinate_exit(self, tmp_path, capsys):
        from lrfit.io import gen_synthetic, write_points
        from lrfit.surface import PointCloud

        xyz = gen_synthetic("dunes", 1, 5000).xyz.copy()
        xyz[1234, 2] = np.nan
        path = str(tmp_path / "nan.xyz")
        write_points(PointCloud(xyz), path)
        assert cli_main(["fit", "--points", path, "--tolerance", "0.5"]) == 4
        assert "point 1234 (0-based), column z" in capsys.readouterr().err

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_non_finite_coordinates_exit(self, data, tmp_path_factory):
        from lrfit.io import gen_synthetic, write_points
        from lrfit.surface import PointCloud

        xyz, (row, col, value) = data.draw(non_finite_cells(gen_synthetic("dunes", 1, 100).xyz))
        path = str(tmp_path_factory.mktemp("nonfinite") / "bad.xyz")
        write_points(PointCloud(xyz), path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli_main(["fit", "--points", path, "--tolerance", "0.5"]) == 4
        assert f"point {row} (0-based), column {'xyz'[col]}: {value!r}" in err.getvalue()

    def test_non_finite_tolerance_fit_exit(self, cloud_file, tmp_path, capsys):
        out = tmp_path / "s.lrb"
        for tol in ("nan", "inf"):
            assert cli_main(["fit", "--points", cloud_file, "--tolerance", tol,
                             "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert f"tolerance must be positive and finite, got {float(tol)!r}" in err
        assert cli_main(["fit", "--points", cloud_file, "--tolerance", "0.6",
                         "--min-interval", "nan", "--out", str(out)]) == 4
        assert "min_interval must be non-negative, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_tolerance_report_exit(self, cloud_file, tmp_path, capsys):
        from lrfit.driver import RunConfig, run
        from lrfit.io import read_points, write_surface

        surface, _ = run(read_points(cloud_file), RunConfig(tolerance=0.6, max_iterations=0))
        path = str(tmp_path / "s.lrb")
        write_surface(surface, path)
        argv = ["report", "--surface", path, "--points", cloud_file, "--tolerance"]
        assert cli_main(argv + ["0.6"]) == 0
        capsys.readouterr()
        for tol in ("nan", "inf", "0"):
            assert cli_main(argv + [tol]) == 4
            captured = capsys.readouterr()
            assert f"tolerance must be positive and finite, got {float(tol)!r}" in captured.err
            assert "n_out=" not in captured.out

    def test_non_finite_coordinate_report_exit(self, cloud_file, tmp_path, capsys):
        from lrfit.driver import RunConfig, run
        from lrfit.io import read_points, write_points, write_surface
        from lrfit.surface import PointCloud

        cloud = read_points(cloud_file)
        surface, _ = run(cloud, RunConfig(tolerance=0.6, max_iterations=0))
        surf_path = str(tmp_path / "s.lrb")
        write_surface(surface, surf_path)
        for row, col in ((1234, 2), (17, 0)):
            xyz = cloud.xyz.copy()
            xyz[row, col] = np.nan
            path = str(tmp_path / "nan.xyz")
            write_points(PointCloud(xyz), path)
            assert cli_main(["report", "--surface", surf_path, "--points", path,
                             "--tolerance", "0.6"]) == 4
            captured = capsys.readouterr()
            assert f"point {row} (0-based), column {'xyz'[col]}" in captured.err
            assert "n_out=" not in captured.out

    def test_fit_failure_mid_run_keeps_partial_outputs(self, cloud_file, tmp_path,
                                                       monkeypatch, capsys):
        import lrfit.driver
        from lrfit.fitting import FitError

        fit_step = lrfit.driver.fit_step

        def failing(space, cloud, cfg, iteration, *args):
            if iteration == 2:
                raise FitError("conjugate gradient did not converge (info=7)")
            return fit_step(space, cloud, cfg, iteration, *args)

        monkeypatch.setattr(lrfit.driver, "fit_step", failing)
        surf_path = tmp_path / "s.lrb"
        csv_path = tmp_path / "run.csv"
        code = cli_main(["fit", "--points", cloud_file, "--strategy", "eFB",
                         "--tolerance", "0.05", "--out", str(surf_path),
                         "--report", str(csv_path)])
        assert code == 5
        err = capsys.readouterr().err
        assert "aborted after iteration 1" in err and "info=7" in err
        iters = [line.split(",")[0] for line in csv_path.read_text().splitlines()]
        assert iters == ["iter", "0", "1"]
        doc = json.loads(surf_path.read_text())
        assert doc["provenance"]["aborted"].endswith("(info=7)")
        assert doc["provenance"]["iterations"] == 1
        # the partial surface is the refined space of iteration 2, fit 1
        surf = read_surface(str(surf_path))
        assert len(surf.space) > int(csv_path.read_text().splitlines()[-1].split(",")[2])

    def test_initial_fit_failure_exits_5_with_start_surface(self, cloud_file, tmp_path,
                                                            monkeypatch, capsys):
        import lrfit.driver
        from lrfit.fitting import FitError

        fit_step = lrfit.driver.fit_step

        def failing(space, cloud, cfg, iteration, *args):
            if iteration == 0:
                raise FitError("conjugate gradient did not converge (info=3)")
            return fit_step(space, cloud, cfg, iteration, *args)

        monkeypatch.setattr(lrfit.driver, "fit_step", failing)
        surf_path = tmp_path / "s.lrb"
        csv_path = tmp_path / "run.csv"
        code = cli_main(["fit", "--points", cloud_file, "--tolerance", "0.05",
                         "--out", str(surf_path), "--report", str(csv_path)])
        assert code == 5
        err = capsys.readouterr().err
        assert "run aborted in the initial fit" in err and "info=3" in err
        assert csv_path.read_text().splitlines() == [REPORT_HEADER]
        doc = json.loads(surf_path.read_text())
        assert doc["provenance"]["aborted"].endswith("(info=3)")
        assert doc["provenance"]["iterations"] is None
        # the unfitted 8x8 start surface: coefficients still zero
        surf = read_surface(str(surf_path))
        assert len(surf.space) == 10 * 10
        assert not surf.space.coeff_array().any()


class TestStageParsing:
    def test_and_clauses(self):
        stage = parse_stage("out<=0.1%,max<=2")
        assert stage.max_out_fraction == pytest.approx(0.001)
        assert stage.max_dist_cap == 2.0
        assert stage.combinator == "AND"

    def test_or_clauses(self):
        stage = parse_stage("out<=0.1%|avgout<=1.5")
        assert stage.combinator == "OR"
        assert stage.avg_out_cap == 1.5

    def test_bad_clause(self):
        from lrfit.driver import InputError
        with pytest.raises(InputError):
            parse_stage("frobnicate<=1")

    def test_bad_caps_exit(self, cloud_file, capsys):
        for text, clause in (("out<=nan%", "out<=nan%"), ("max<=inf", "max<=inf"),
                             ("out<=1%,avgout<=-0.5", "avgout<=-0.5"),
                             ("max<=2|out<=-inf%", "out<=-inf%")):
            assert cli_main(["fit", "--points", cloud_file, "--tolerance", "0.6",
                             "--intermediate", text]) == 4
            err = capsys.readouterr().err
            assert f"intermediate stage clause {clause!r}" in err
            assert "finite and non-negative" in err
        assert parse_stage("out<=0%,max<=0").max_dist_cap == 0.0


class TestPipelines:
    def test_raster_and_report_and_roundtrip(self, cloud_file, tmp_path, capsys):
        surf_path = str(tmp_path / "s.lrb")
        assert cli_main(["fit", "--points", cloud_file, "--tolerance", "0.6",
                         "--out", surf_path]) == 0
        raster_path = str(tmp_path / "r.asc")
        assert cli_main(["raster", "--surface", surf_path, "--nx", "8",
                         "--ny", "6", "--out", raster_path]) == 0
        with open(raster_path) as fh:
            assert fh.readline().strip() == "ncols 8"
        assert cli_main(["report", "--surface", surf_path, "--points",
                         cloud_file, "--tolerance", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "n_out=0" in out
        assert cli_main(["roundtrip-check", "--surface", surf_path]) == 0

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_roundtrip_rejects_samples_below_one(self, cloud_file, tmp_path, capsys, samples):
        surf_path = str(tmp_path / "s.lrb")
        assert cli_main(["fit", "--points", cloud_file, "--tolerance", "0.6",
                         "--out", surf_path]) == 0
        capsys.readouterr()
        assert cli_main(["roundtrip-check", "--surface", surf_path,
                         "--samples", samples]) == 4
        captured = capsys.readouterr()
        assert f"--samples must be at least 1, got {samples}" in captured.err
        assert "roundtrip ok" not in captured.out

    def test_synth_rejects_bad_noise_and_outlier_fraction(self, tmp_path, capsys):
        pts = tmp_path / "p.xyz"
        argv = ["synth", "--kind", "scanlines", "--n", "200", "--out", str(pts)]
        for option, value, message in (
                ("--noise", "nan", "noise must be finite and >= 0, got nan"),
                ("--noise", "-1", "noise must be finite and >= 0, got -1.0"),
                ("--noise", "inf", "noise must be finite and >= 0, got inf"),
                ("--outlier-fraction", "5", "outlier_fraction must be in [0, 1], got 5.0"),
                ("--outlier-fraction", "nan", "outlier_fraction must be in [0, 1], got nan")):
            assert cli_main(argv + [option, value]) == 4
            assert f"{option}: {message}" in capsys.readouterr().err
            assert not pts.exists()

    def test_synth_truth_sidecar(self, tmp_path):
        pts = str(tmp_path / "p.xyz")
        truth = str(tmp_path / "t.txt")
        assert cli_main(["synth", "--kind", "scanlines", "--seed", "7",
                         "--n", "1000", "--outlier-fraction", "0.01",
                         "--out", pts, "--truth", truth]) == 0
        flags = [int(line.split()[-1]) for line in open(truth)
                 if not line.startswith("#")]
        assert sum(flags) == 10
