"""End-to-end command-line behavior and exit codes."""

import json

import numpy as np
import pytest

from lrfit.cli import cli_main, parse_stage
from lrfit.io import read_surface


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
        from lrfit.cli import SystemExit_
        with pytest.raises(SystemExit_):
            parse_stage("frobnicate<=1")


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

    def test_synth_truth_sidecar(self, tmp_path):
        pts = str(tmp_path / "p.xyz")
        truth = str(tmp_path / "t.txt")
        assert cli_main(["synth", "--kind", "scanlines", "--seed", "7",
                         "--n", "1000", "--outlier-fraction", "0.01",
                         "--out", pts, "--truth", truth]) == 0
        flags = [int(line.split()[-1]) for line in open(truth)
                 if not line.startswith("#")]
        assert sum(flags) == 10
