"""Text formats: point files, surface documents, rasters, reports, synth."""

import copy
import json
import re

import numpy as np
import pytest

from lrfit.driver import RunConfig, run
from lrfit.io import (REPORT_HEADER, FormatError, gen_synthetic, read_points,
                      read_surface, sample_raster, write_points, write_report,
                      write_surface, write_truth_sidecar)
from lrfit.surface import LRSurface, PointCloud

from conftest import random_refined_space, uniform_tensor_space


class TestReadPoints:
    def test_whitespace_triples(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0 1\n1 0 2\n2 0 3\n")
        cloud = read_points(str(p))
        assert len(cloud) == 3
        assert cloud.z.tolist() == [1.0, 2.0, 3.0]

    def test_commas_and_comments(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("# header\n0,0,1 # note\n1, 0, 2\n2 0 3\n\n")
        cloud = read_points(str(p))
        assert len(cloud) == 3

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0 1\n0 0\n")
        with pytest.raises(FormatError, match=":2:"):
            read_points(str(p))

    def test_too_few_points(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0 1\n1 1 1\n")
        with pytest.raises(FormatError, match="at least 3"):
            read_points(str(p))

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(50, 3)))
        p = tmp_path / "a.xyz"
        write_points(cloud, str(p))
        again = read_points(str(p))
        assert np.array_equal(cloud.xyz, again.xyz)


class TestSurfaceDocument:
    def surface(self, seed=23):
        sp = random_refined_space(seed, (2, 2), n_insertions=6)
        rng = np.random.default_rng(seed)
        sp.set_coeffs(rng.normal(size=len(sp)))
        return LRSurface(sp)

    def test_roundtrip_exact(self, tmp_path):
        surf = self.surface()
        path = str(tmp_path / "s.lrb")
        write_surface(surf, path)
        again = read_surface(path)
        rng = np.random.default_rng(1)
        u0, u1, v0, v1 = surf.domain
        uu = rng.uniform(u0, u1, 500)
        vv = rng.uniform(v0, v1, 500)
        assert np.array_equal(surf.evaluate(uu, vv), again.evaluate(uu, vv))

    def test_byte_stable(self, tmp_path):
        surf = self.surface()
        p1 = tmp_path / "a.lrb"
        p2 = tmp_path / "b.lrb"
        write_surface(surf, str(p1))
        write_surface(surf, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch(self, tmp_path):
        surf = self.surface()
        path = tmp_path / "s.lrb"
        write_surface(surf, str(path))
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="version"):
            read_surface(str(path))

    def test_empty_bspline_set(self, tmp_path):
        surf = self.surface()
        path = tmp_path / "s.lrb"
        write_surface(surf, str(path))
        doc = json.loads(path.read_text())
        doc["bsplines"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="without B-splines"):
            read_surface(str(path))

    def test_corrupt_indices(self, tmp_path):
        surf = self.surface()
        path = tmp_path / "s.lrb"
        write_surface(surf, str(path))
        doc = json.loads(path.read_text())
        doc["bsplines"][0][0] = [0, 1, 2, 99999]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="indexes outside"):
            read_surface(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "s.lrb"
        path.write_text("not a document")
        with pytest.raises(FormatError):
            read_surface(str(path))



@pytest.fixture(scope="module")
def fitted_doc(tmp_path_factory):
    """A small fitted eFB surface document (degree 2) as parsed JSON."""
    surf, _ledger = run(gen_synthetic("dunes", 1, 2000),
                        RunConfig(tolerance=2.0, max_iterations=2))
    path = tmp_path_factory.mktemp("doc") / "fitted.lrb"
    write_surface(surf, str(path))
    return json.loads(path.read_text())


class TestNotAnLRSpace:
    """Corrupted copies of a fitted document are rejected when read."""

    def read(self, doc, tmp_path):
        path = tmp_path / "bad.lrb"
        path.write_text(json.dumps(doc))
        return read_surface(str(path))

    def test_fitted_document_reads(self, fitted_doc, tmp_path):
        assert len(self.read(fitted_doc, tmp_path).space) == len(fitted_doc["bsplines"])

    def test_stored_benchmark_documents_read(self):
        from pathlib import Path

        data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
        for name in ("dunes1_p2.lrb", "dunes1_p3.lrb"):
            doc = json.loads((data / name).read_text())
            assert len(read_surface(str(data / name)).space) == len(doc["bsplines"])

    def test_segments_that_do_not_tile(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        doc["segments"].remove(["v", 0, 0, len(doc["knots_u"]) - 1])   # bottom edge
        with pytest.raises(FormatError, match="do not form a box partition: "
                                              "mesh does not tile"):
            self.read(doc, tmp_path)

    def test_knot_line_not_a_meshline(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        n_v = len(doc["knots_v"])
        i, (axis, fixed, lo, hi) = next(
            (i, s) for i, s in enumerate(doc["segments"])
            if s[0] == "u" and (s[2], s[3]) != (0, n_v - 1))   # a refinement line
        doc["segments"][i] = [axis, fixed, lo, hi - 1]
        value = doc["knots_u"][fixed]
        with pytest.raises(FormatError,
                           match=re.escape(f"knot line u={value!r} is not a meshline")):
            self.read(doc, tmp_path)

    def test_bspline_without_minimal_support(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        assert doc["bsplines"][0][:2] == [[0, 0, 0, 1], [0, 0, 0, 1]]
        doc["bsplines"][0][0] = [0, 0, 0, 2]   # support now spans the line u1
        value = doc["knots_u"][1]
        with pytest.raises(FormatError, match=re.escape(f"lacks minimal support: the meshline "
                                                        f"u={value!r} traverses it")):
            self.read(doc, tmp_path)


class TestRaster:
    def test_constant_surface(self, tmp_path):
        sp = uniform_tensor_space((2, 2), n_elems=2)
        sp.set_coeffs(np.full(len(sp), 7.5))
        path = tmp_path / "r.asc"
        sample_raster(LRSurface(sp), 4, 4, str(path))
        lines = path.read_text().splitlines()
        vals = [float(x) for row in lines[7:] for x in row.split()]
        assert len(vals) == 16
        assert all(abs(v - 7.5) < 1e-13 for v in vals)

    def test_plane_matches_closed_form(self, tmp_path):
        from lrfit.fitting import FitConfig, lsq_fit
        sp = uniform_tensor_space((1, 1), n_elems=3)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 2000)
        y = rng.uniform(0, 1, 2000)
        cloud = PointCloud(np.c_[x, y, 2 * x - y + 3])
        coeffs = lsq_fit(sp, cloud, FitConfig(alpha_smooth=0.0,
                                              solver_tol=1e-14,
                                              solver_max_iter=20000))
        sp.set_coeffs(coeffs)
        path = tmp_path / "r.asc"
        sample_raster(LRSurface(sp), 5, 5, str(path))
        lines = path.read_text().splitlines()
        rows = [[float(v) for v in row.split()] for row in lines[7:]]
        gu = np.linspace(0, 1, 5)
        gv = np.linspace(0, 1, 5)
        for i, row in enumerate(rows):        # north-up: first row is max v
            vvv = gv[4 - i]
            for j, val in enumerate(row):
                assert abs(val - (2 * gu[j] - vvv + 3)) < 1e-9

    def test_too_small_grid(self, tmp_path):
        sp = uniform_tensor_space((1, 1), n_elems=1)
        with pytest.raises(ValueError):
            sample_raster(LRSurface(sp), 1, 4, str(tmp_path / "r.asc"))


class TestSynthetic:
    def test_deterministic(self):
        a = gen_synthetic("dunes", 1, 1000)
        b = gen_synthetic("dunes", 1, 1000)
        assert np.array_equal(a.xyz, b.xyz)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            gen_synthetic("volcano", 1, 1000)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_synthetic("dunes", 1, 50)

    def test_scanlines_outlier_count(self, tmp_path):
        cloud = gen_synthetic("scanlines", 2, 10_000, outlier_fraction=0.0013)
        assert int(cloud.outliers.sum()) == int(0.0013 * 10_000)
        sidecar = tmp_path / "truth.txt"
        write_truth_sidecar(cloud, str(sidecar))
        flags = [int(line.split()[-1]) for line in
                 sidecar.read_text().splitlines() if not line.startswith("#")]
        assert sum(flags) == int(0.0013 * 10_000)
        # outliers are far off the true surface, inliers are on it
        z_true = cloud.truth(cloud.x, cloud.y)
        d = np.abs(cloud.z - z_true)
        assert (d[cloud.outliers] > 10.0).all()
        assert (d[~cloud.outliers] == 0.0).all()

    def test_steps_refines_at_discontinuities(self):
        """Terraced data forces localized refinement: converged or not, the
        surviving unresolved points and fine elements hug the step lines."""
        cloud = gen_synthetic("steps", 3, 20_000)
        cfg = RunConfig(strategy="eFB", tolerance=1.0, max_iterations=6)
        _surf, ledger = run(cloud, cfg)
        assert ledger.rows[-1].n_coeff > ledger.rows[0].n_coeff
        # distances shrink overall even with jumps present
        assert ledger.rows[-1].avg_dist < ledger.rows[0].avg_dist


class TestReport:
    def test_header_and_rows(self, tmp_path):
        rng = np.random.default_rng(8)
        cloud = PointCloud(np.c_[rng.uniform(0, 10, 4000),
                                 rng.uniform(0, 10, 4000),
                                 rng.normal(size=4000) * 0.01])
        _surf, ledger = run(cloud, RunConfig(strategy="eFB", tolerance=0.5))
        path = tmp_path / "run.csv"
        write_report(ledger, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert lines[0] == ("iter,n_out,n_coeff,max,avg,avg_out,"
                            "efficiency,segments,wall_ms,strategy")
        assert len(lines) == 1 + len(ledger.rows)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[-1] == "eFB"
