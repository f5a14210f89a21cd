"""Text formats: point files, surface documents, rasters, reports, synth."""

import copy
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lrfit.io

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

    def test_empty_and_comment_only_files(self, tmp_path):
        p = tmp_path / "a.xyz"
        for text in ("", "# header\n\n  # note\n"):
            p.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FormatError, match="need at least 3 points, got 0"):
                    read_points(str(p))

    def test_consistent_two_columns(self, tmp_path):
        p = tmp_path / "a.xyz"
        p.write_text("0 0\n1 0\n2 1\n3 1\n")
        with pytest.raises(FormatError, match=":1: expected 3 values, got 2"):
            read_points(str(p))

    def test_line_loop_only_when_needed(self, tmp_path, monkeypatch):
        """Plain whitespace triples never reach the line loop; commas and
        tokens that only Python's ``float`` reads do, and still parse."""
        loop = lrfit.io._parse_point_lines
        calls = []
        monkeypatch.setattr(lrfit.io, "_parse_point_lines",
                            lambda path: calls.append(path) or loop(path))
        p = tmp_path / "a.xyz"
        p.write_text("# x y z\n0 0 1\n1\t0 2 # note\r\n\n2 0 -0.0\n")
        assert read_points(str(p)).z.tolist() == [1.0, 2.0, -0.0]
        assert calls == []
        for text, z in (("0,0,1\n1,0,2\n2,0,3\n", 3.0), ("0 0 1\n1 0 2\n2 0 1_0\n", 10.0),
                        ("0 0 1\n1 0 2\n2 0 \u0661\u0662\n", 12.0)):
            p.write_text(text, encoding="utf-8")
            assert read_points(str(p)).z[-1] == z
        assert len(calls) == 3


def read_points_by_lines(path):
    """Oracle: the line loop that parsed every point file before the
    ``np.loadtxt`` fast path."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.replace(",", " ").split()
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 values, "
                                  f"got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if len(rows) < 3:
        raise FormatError(f"{path}: need at least 3 points, got {len(rows)}")
    return np.array(rows)


def write_points_by_rows(cloud, path):
    """Oracle: the per-row point writer."""
    with open(path, "w") as fh:
        for x, y, z in cloud.xyz:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def write_truth_sidecar_by_rows(cloud, path):
    """Oracle: the per-row truth sidecar writer."""
    z_true = cloud.truth(cloud.x, cloud.y)
    with open(path, "w") as fh:
        fh.write("# x y z_true is_outlier\n")
        for x, y, zt, flag in zip(cloud.x, cloud.y, z_true, cloud.outliers):
            fh.write(f"{float(x)!r} {float(y)!r} {float(zt)!r} {int(flag)}\n")


def outcome(read, path):
    """An array, or the type and message of the exception raised."""
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - the oracle's failure is compared too
        return type(exc), str(exc)


def same_values(a, b):
    """Equal arrays, NaN at the same places and equal sign bits (``-0.0``,
    ``-nan``)."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


#: tokens both parsers read, with edge values among them
PLAIN_TOKENS = ["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "-0.0", "0", "+1",
                ".5", "5.", "1E5", "1e-320", "4.9e-324", "1e400", "-1e400",
                "1.7976931348623157e308", "123456789012345678901234567890"]
#: tokens only Python's ``float`` reads, and tokens neither reads
ODD_TOKENS = ["1_0", "1.0e+0_1", "\u0661\u0662", "0x10", "1d3", '"1"', "1.5f",
              "1e", "1__0", "nan(1)", "\ufeff1", "1;", "-", ""]
SEPARATORS = [" ", "\t", "  ", " \t", ",", ", ", " ,"]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def point_files(draw):
    """Point-file text: whitespace triples, which the fast path takes, with
    commas, odd tokens or 2- and 4-value rows switched on independently;
    those files go through the line loop."""
    commas, odd, ragged = (draw(st.booleans()) for _ in range(3))
    token = st.one_of(FINITE.map(repr), st.integers(-10**6, 10**6).map(str),
                      st.sampled_from(PLAIN_TOKENS))
    if odd:
        token = st.one_of(token, st.sampled_from(ODD_TOKENS))
    sep = st.sampled_from(SEPARATORS if commas else SEPARATORS[:4])
    width = st.sampled_from([3, 3, 3, 2, 4]) if ragged else st.just(3)
    end = st.sampled_from(["\n", "\r\n"])
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t", "  \t "]))
        elif kind == "comment":
            body = draw(st.sampled_from(["", "  "])) + "# " + draw(st.sampled_from(
                ["x y z", "1 2 3", "", "#", "a,b"]))
        else:
            tokens = [draw(token) for _ in range(draw(width))]
            body = draw(st.sampled_from(["", " "]))
            for i, tok in enumerate(tokens):
                body += (draw(sep) if i else "") + tok
            body += draw(st.sampled_from(["", " ", "\t", " # note", "#1 2 3"]))
        lines.append(body + draw(end))
    last_end = draw(st.booleans())
    text = "".join(lines)
    if lines and not last_end:
        text = text.rstrip("\r\n")
    return text


class TestPointFileOracles:
    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("points")

    @given(text=point_files())
    @settings(max_examples=300, deadline=None)
    def test_read_points_matches_line_loop(self, scratch, text):
        path = scratch / "p.xyz"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = outcome(lambda p: read_points(p).xyz, str(path))
        expected = outcome(read_points_by_lines, str(path))
        if isinstance(expected, tuple):
            assert ours == expected
        else:
            assert isinstance(ours, np.ndarray) and same_values(ours, expected)

    @given(xyz=arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)),
                      elements=st.one_of(st.floats(allow_nan=False),
                                         st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310,
                                                          1e300, -1e-300, 1e308]))))
    @settings(max_examples=200, deadline=None)
    def test_write_points_matches_row_writer(self, scratch, xyz):
        cloud = PointCloud(xyz)
        ours, expected = scratch / "w.xyz", scratch / "w-rows.xyz"
        with mock.patch.object(lrfit.io, "WRITE_BLOCK", 7):
            write_points(cloud, str(ours))
        write_points_by_rows(cloud, str(expected))
        assert ours.read_bytes() == expected.read_bytes()
        if len(xyz) >= 3:
            assert same_values(read_points(str(ours)).xyz, xyz)

    def test_write_points_longer_than_a_block(self, tmp_path):
        rng = np.random.default_rng(4)
        n = lrfit.io.WRITE_BLOCK + 5
        xyz = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
        special = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, 1e300, -1e-300]
        xyz[rng.integers(0, n, 64), rng.integers(0, 3, 64)] = rng.choice(special, 64)
        cloud = PointCloud(xyz)
        ours, expected = tmp_path / "w.xyz", tmp_path / "w-rows.xyz"
        write_points(cloud, str(ours))
        write_points_by_rows(cloud, str(expected))
        assert ours.read_bytes() == expected.read_bytes()
        assert same_values(read_points(str(ours)).xyz, xyz)

    def test_truth_sidecar_matches_row_writer(self, tmp_path):
        cloud = gen_synthetic("scanlines", 3, lrfit.io.WRITE_BLOCK + 5,
                              outlier_fraction=0.01)
        small = PointCloud(np.array([[0.0, -0.0, 1.0], [5e-324, 1e300, 2.0],
                                     [-1e-300, 3.0, 4.0]]))
        small.truth = lambda x, y: np.array([-0.0, 1e-310, np.inf])
        small.outliers = np.array([True, False, True])
        for c in (cloud, small):
            ours, expected = tmp_path / "t.txt", tmp_path / "t-rows.txt"
            write_truth_sidecar(c, str(ours))
            write_truth_sidecar_by_rows(c, str(expected))
            assert ours.read_bytes() == expected.read_bytes()


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

    def test_bad_degrees(self, fitted_doc, tmp_path):
        for degrees in ([2, 2, 2], [2], [2, 4], [0, 2], [2.5, 2], ["2", 2], None):
            doc = copy.deepcopy(fitted_doc)
            doc["degrees"] = degrees
            with pytest.raises(FormatError, match=re.escape(
                    f"bad.lrb: degrees must be two values from (1, 2, 3), got {degrees!r}")):
                self.read(doc, tmp_path)

    def test_bspline_without_minimal_support(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        assert doc["bsplines"][0][:2] == [[0, 0, 0, 1], [0, 0, 0, 1]]
        doc["bsplines"][0][0] = [0, 0, 0, 2]   # support now spans the line u1
        value = doc["knots_u"][1]
        with pytest.raises(FormatError, match=re.escape(f"lacks minimal support: the meshline "
                                                        f"u={value!r} traverses it")):
            self.read(doc, tmp_path)


    def test_not_a_json_object(self, fitted_doc, tmp_path):
        with pytest.raises(FormatError, match="bad.lrb: not a surface document: "
                                              "a JSON object is expected"):
            self.read([fitted_doc], tmp_path)

    @pytest.mark.parametrize("field", ["segments", "bsplines"])
    def test_entries_not_a_list(self, fitted_doc, tmp_path, field):
        doc = copy.deepcopy(fitted_doc)
        doc[field] = 5
        with pytest.raises(FormatError, match="bad.lrb: segments and bsplines must be lists"):
            self.read(doc, tmp_path)

    def test_non_integer_segment_index(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        i = next(i for i, s in enumerate(doc["segments"]) if s[1] == 3)
        doc["segments"][i][1] = 3.5
        with pytest.raises(FormatError, match=re.escape(
                f"bad.lrb: segment {doc['segments'][i]!r} has a non-integer index")):
            self.read(doc, tmp_path)

    def test_non_integer_knot_index(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        doc["bsplines"][0][0] = [i + 0.25 for i in doc["bsplines"][0][0]]
        with pytest.raises(FormatError, match=re.escape(
                f"bad.lrb: B-spline {doc['bsplines'][0]!r} has a non-integer knot index")):
            self.read(doc, tmp_path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1.0"])
    def test_non_finite_knot(self, fitted_doc, tmp_path, value):
        doc = copy.deepcopy(fitted_doc)
        doc["knots_u"][-1] = value
        with pytest.raises(FormatError, match="bad.lrb: knot tables must be lists of "
                                              "finite numbers"):
            self.read(doc, tmp_path)

    @pytest.mark.parametrize("value", [float("nan"), "nan"])
    def test_non_finite_coefficient(self, fitted_doc, tmp_path, value):
        doc = copy.deepcopy(fitted_doc)
        doc["bsplines"][0][2] = value
        with pytest.raises(FormatError, match=re.escape(
                f"bad.lrb: B-spline {doc['bsplines'][0]!r} has a coefficient that is "
                "not a finite number")):
            self.read(doc, tmp_path)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_scale_not_positive(self, fitted_doc, tmp_path, value):
        doc = copy.deepcopy(fitted_doc)
        doc["bsplines"][0][3] = value
        with pytest.raises(FormatError, match=re.escape(
                f"bad.lrb: B-spline {doc['bsplines'][0]!r} has a scale that is "
                "not a finite positive number")):
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

    def test_bad_noise_and_outlier_fraction(self):
        for noise in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match=re.escape(
                    f"noise must be finite and >= 0, got {noise!r}")):
                gen_synthetic("dunes", 1, 200, noise=noise)
        for fraction in (5.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=re.escape(
                    f"outlier_fraction must be in [0, 1], got {fraction!r}")):
                gen_synthetic("scanlines", 1, 200, outlier_fraction=fraction)
        # the ends of both ranges stay valid
        cloud = gen_synthetic("scanlines", 1, 200, noise=0.0, outlier_fraction=1.0)
        assert cloud.outliers.all()

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
