"""Text formats: point files, surface documents, rasters, reports, synth."""

import copy
import importlib.util
import json
import re
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lrfit.io

from lrfit.driver import RunConfig, run
from lrfit.mesh import MeshError, U, V
from lrfit.io import (REPORT_HEADER, FormatError, gen_synthetic, read_points,
                      read_surface, sample_raster, write_points, write_report,
                      write_surface, write_truth_sidecar)
from lrfit.surface import LRSurface, PointCloud

from conftest import (element_scan, partition_residual, random_refined_space,
                      uniform_tensor_space)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
        # the read-back check of the surface-query benchmark (perfbench/workloads.py)
        assert len(again.space.bsplines) == len(surf.space.bsplines)
        assert again.space.keys_sorted() == surf.space.keys_sorted()
        assert np.array_equal(again.space.coeff_array(), surf.space.coeff_array())
        assert np.array_equal(again.space.scale_array(), surf.space.scale_array())

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

    def test_elements_one_ulp_wide_read(self, tmp_path):
        """Two heights at one xy refine down to one-ulp knot intervals, and
        the partition-of-unity check of the read accepts the document."""
        cloud = gen_synthetic("dunes", 3, 100)
        xyz = np.r_[cloud.xyz, [[500.0, 500.0, 0.0], [500.0, 500.0, 60.0]]]
        surf, _ledger = run(PointCloud(xyz), RunConfig(tolerance=5.0, max_iterations=60))
        assert np.diff(surf.space.u).min() == np.spacing(500.0)
        path = tmp_path / "s.lrb"
        write_surface(surf, str(path))
        assert read_surface(str(path)).space.keys_sorted() == surf.space.keys_sorted()

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

    def test_domain_not_the_knot_extent(self, fitted_doc, tmp_path):
        extent = [fitted_doc["knots_u"][0], fitted_doc["knots_u"][-1],
                  fitted_doc["knots_v"][0], fitted_doc["knots_v"][-1]]
        assert fitted_doc["domain"] == extent
        one_ulp_in = extent[:3] + [float(np.nextafter(extent[3], 0.0))]
        for domain in (None, [0, 1, 0, 1], extent[:3], one_ulp_in, "full"):
            doc = copy.deepcopy(fitted_doc)
            if domain is None:
                del doc["domain"]
            else:
                doc["domain"] = domain
            with pytest.raises(FormatError, match=re.escape(
                    f"bad.lrb: domain must be the knot-table extent {extent!r}, "
                    f"got {domain!r}")):
                self.read(doc, tmp_path)

    @pytest.mark.parametrize("direction", [0, 1])
    def test_empty_support(self, fitted_doc, tmp_path, direction):
        doc = copy.deepcopy(fitted_doc)
        entry = [[0, 0, 0, 1], [0, 0, 0, 1], 5.0, 1.0]
        entry[direction] = [0, 0, 0, 0]
        doc["bsplines"].append(entry)
        with pytest.raises(FormatError, match=re.escape(
                f"bad.lrb: B-spline {entry!r} has an empty support")):
            self.read(doc, tmp_path)

    def test_duplicate_bspline(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        entry = copy.deepcopy(doc["bsplines"][len(doc["bsplines"]) // 2])
        doc["bsplines"].append(entry)
        with pytest.raises(FormatError, match=re.escape(
                f"bad.lrb: duplicate B-spline {entry!r}")):
            self.read(doc, tmp_path)

    def test_wrong_scale(self, fitted_doc, tmp_path):
        doc = copy.deepcopy(fitted_doc)
        i = len(doc["bsplines"]) // 2
        doc["bsplines"][i][3] *= 1.0 + 1e-9
        with pytest.raises(FormatError, match=r"bad.lrb: the scaled B-splines sum to "
                                              r"1\.0000000\d*, not 1, at the centre \(.*\) "
                                              "of an element: a scale is wrong"):
            self.read(doc, tmp_path)

    @pytest.mark.parametrize("direction", [0, 1])
    def test_repeated_interior_knot_index(self, fitted_doc, tmp_path, direction):
        """Only the first and last table index may repeat, as the boundary
        B-splines of the fitted document do."""
        doc = copy.deepcopy(fitted_doc)
        n = len(doc["knots_u" if direction == 0 else "knots_v"])
        i = next(i for i, b in enumerate(doc["bsplines"])
                 if 0 < b[direction][0] and b[direction][-1] < n - 1)
        loc = doc["bsplines"][i][direction]
        doc["bsplines"][i][direction] = [loc[0], loc[1], loc[1]] + loc[2:-1]
        with pytest.raises(FormatError, match=re.escape(
                f"bad.lrb: B-spline {doc['bsplines'][i]!r} repeats an interior "
                "knot index")):
            self.read(doc, tmp_path)


def per_bspline_read_check(space, path):
    """The LR-space read check as a loop: the former cell-by-cell element
    scan, then one B-spline at a time its local knot lines and
    :meth:`~lrfit.mesh.LRSpace.find_offense`."""
    try:
        element_scan(space)
    except MeshError as exc:
        raise FormatError(f"{path}: segments do not form a box partition: {exc}") from exc
    for key in zip(*(a.tolist() for a in space.knot_indices())):
        for axis, loc, run in ((U, key[0], key[1]), (V, key[1], key[0])):
            covered = space.coverage(axis)[loc, run[0]:run[-1]].all(axis=1)
            if not covered.all():
                value = float(space.table(axis)[loc[int(covered.argmin())]])
                raise FormatError(f"{path}: B-spline {[list(k) for k in key]}: knot "
                                  f"line {axis}={value!r} is not a meshline across "
                                  "its support")
        if (offense := space.find_offense(key)) is not None:
            value = float(space.table(offense[0])[offense[1]])
            raise FormatError(f"{path}: B-spline {[list(k) for k in key]} lacks minimal "
                              f"support: the meshline {offense[0]}={value!r} traverses it")


def flip_span(space, rng):
    """Shorten, drop or extend one random meshline segment of ``space`` by
    editing its coverage; returns the edit's name."""
    segments = space.segments()
    seg = segments[int(rng.integers(len(segments)))]
    row = space.coverage(seg.axis)[seg.fixed]
    ends = [end for end in (seg.lo - 1, seg.hi) if 0 <= end < len(row)]
    kind = rng.choice(["shorten", "drop", "extend"] if ends else ["shorten", "drop"])
    if kind == "shorten":
        row[seg.lo if rng.random() < 0.5 else seg.hi - 1] = False
    elif kind == "drop":
        row[seg.lo:seg.hi] = False
    else:
        row[ends[int(rng.integers(len(ends)))]] = True
    space._touch()
    return kind


class TestReadCheckAgainstPerBsplineLoop:
    """Random coverage flips on both stored benchmark documents are accepted
    or rejected as the per-B-spline loop does, with its B-spline messages.
    An element failure may read differently: the former scan met a defect
    from the first element start it reached, the array pass from any cell."""

    def test_coverage_flips(self):
        rng = np.random.default_rng(400)
        spaces = [read_surface(str(PERFBENCH / "data" / name)).space
                  for name in ("dunes1_p2.lrb", "dunes1_p3.lrb")]
        for space in spaces:
            per_bspline_read_check(space, "stored")
        seen = Counter()
        for _ in range(80):
            space = spaces[int(rng.integers(2))]
            saved = {axis: space.coverage(axis).copy() for axis in (U, V)}
            kind = flip_span(space, rng)
            results = []
            for check in (lrfit.io._check_lr_space, per_bspline_read_check):
                try:
                    check(space, "flip")
                    results.append(None)
                except FormatError as exc:
                    results.append(str(exc))
            got, expected = results
            if expected is None or "B-spline" in expected:
                assert got == expected, kind
            else:
                assert got.startswith("flip: segments do not form a box partition: "), kind
            seen[next((rule for rule in ("box partition", "knot line", "minimal support")
                       if rule in (expected or "")), "accepted")] += 1
            for axis in (U, V):
                space.coverage(axis)[:] = saved[axis]
            space._touch()
        assert {"box partition", "knot line", "minimal support"} <= seen.keys(), seen


def indented_text(text: str) -> str:
    """A document in the former layout: ``json.dump`` with sorted keys and
    ``indent=1``, one JSON value per line."""
    return json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


def load_evaluator():
    """``perfbench/evaluator.py``, loaded by path (it shares no code with lrfit)."""
    spec = importlib.util.spec_from_file_location("perfbench_evaluator",
                                                  PERFBENCH / "evaluator.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def efb_surface():
    """A fitted 3,000-point seed-1 dunes eFB surface (degree 2)."""
    surf, _ledger = run(gen_synthetic("dunes", 1, 3000),
                        RunConfig(strategy="eFB", tolerance=1.0, max_iterations=3))
    return surf


class TestDocumentLayout:
    """One B-spline and one segment per line; every JSON layout reads."""

    def written(self, surface, tmp_path) -> Path:
        path = tmp_path / "s.lrb"
        write_surface(surface, str(path))
        return path

    def test_bytes_per_bspline(self, efb_surface, tmp_path):
        n = len(efb_surface.space)
        assert n > 300
        assert self.written(efb_surface, tmp_path).stat().st_size <= 64 * n

    def test_one_line_per_entry(self, efb_surface, tmp_path):
        lines = self.written(efb_surface, tmp_path).read_text().splitlines()
        for key, count in (("bsplines", len(efb_surface.space)),
                           ("segments", len(efb_surface.space.segments()))):
            start = lines.index(f'"{key}":[')
            end = lines.index("]" if key == "segments" else "],", start)
            assert end - start - 1 == count
            assert all(len(json.loads(line.rstrip(","))) == 4
                       for line in lines[start + 1:end])

    @pytest.mark.parametrize("name", ["dunes1_p2.lrb", "dunes1_p3.lrb"])
    def test_write_read_write_byte_identical(self, name, tmp_path):
        stored = PERFBENCH / "data" / name
        provenance = json.loads(stored.read_text())["provenance"]
        first, second = tmp_path / "a.lrb", tmp_path / "b.lrb"
        write_surface(read_surface(str(stored)), str(first), provenance)
        write_surface(read_surface(str(first)), str(second), provenance)
        assert first.read_bytes() == second.read_bytes()
        # the same JSON values as the stored document, in half its bytes
        assert json.loads(first.read_text()) == json.loads(stored.read_text())
        assert first.stat().st_size < 0.5 * stored.stat().st_size

    def test_stored_documents_are_the_former_layout(self):
        for name in ("dunes1_p2.lrb", "dunes1_p3.lrb"):
            text = (PERFBENCH / "data" / name).read_text()
            assert text == indented_text(text)

    def test_former_layout_reads_the_same_store(self, efb_surface, tmp_path):
        new = self.written(efb_surface, tmp_path)
        old = tmp_path / "indented.lrb"
        old.write_text(indented_text(new.read_text()))
        a, b = read_surface(str(new)).space, read_surface(str(old)).space
        assert a.keys_sorted() == b.keys_sorted() == efb_surface.space.keys_sorted()
        assert a.coeff_array().tobytes() == b.coeff_array().tobytes()
        assert a.scale_array().tobytes() == b.scale_array().tobytes()
        assert a.coeff_array().tobytes() == efb_surface.space.coeff_array().tobytes()

    def test_independent_evaluator_reads(self, efb_surface, tmp_path):
        doc = load_evaluator().Document.load(str(self.written(efb_surface, tmp_path)))
        rng = np.random.default_rng(2)
        u0, u1, v0, v1 = efb_surface.domain
        x, y = rng.uniform(u0, u1, 2000), rng.uniform(v0, v1, 2000)
        heights, pou = doc.evaluate(x, y)
        np.testing.assert_allclose(heights, efb_surface.evaluate(x, y), rtol=1e-12, atol=0)
        np.testing.assert_allclose(pou, 1.0, rtol=0, atol=1e-12)


class TestFailedWrite:
    """A document that cannot be serialized raises before the file opens."""

    def surface(self):
        sp = random_refined_space(5, (2, 2), n_insertions=4)
        sp.set_coeffs(np.arange(len(sp), dtype=float))
        return LRSurface(sp)

    def test_unserializable_provenance_keeps_the_document(self, tmp_path):
        surf = self.surface()
        path = tmp_path / "s.lrb"
        write_surface(surf, str(path), provenance={"iterations": 5})
        before = path.read_bytes()
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            write_surface(surf, str(path), provenance={"iterations": np.int64(5)})
        assert path.read_bytes() == before
        assert read_surface(str(path)).space.keys_sorted() == surf.space.keys_sorted()

    def test_nan_coefficient_keeps_the_document(self, tmp_path):
        surf = self.surface()
        path = tmp_path / "s.lrb"
        write_surface(surf, str(path))
        before = path.read_bytes()
        coeffs = surf.space.coeff_array()
        coeffs[3] = np.nan
        surf.space.set_coeffs(coeffs)
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_surface(surf, str(path))
        assert path.read_bytes() == before
        fresh = tmp_path / "new.lrb"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_surface(surf, str(fresh))
        assert not fresh.exists()


#: a JSON string (with the ``:`` that marks an object key), number or literal
JSON_TOKEN = re.compile(r'"[^"]*"(:?)|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null')


def corruptions(n_max: int):
    """Text of a JSON value to put in place of one token."""
    return st.one_of(
        st.sampled_from(['"x"', '"1"', "[]", "[1]", "{}", "null"]),       # wrong type
        st.sampled_from(["true", "false"]),
        st.integers(n_max, 2 ** 64).map(str),                             # index out of range
        st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]),
        st.integers(max_value=-1).map(str),
        st.floats(max_value=-0.0, allow_nan=False, allow_infinity=False).map(repr),
    )


class TestCorruptedDocuments:
    """Any one JSON value of a written document replaced: the read either
    raises :class:`FormatError` or gives a surface with partition of unity."""

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        out = []
        for seed, degrees in ((23, (2, 2)), (7, (1, 3))):
            sp = random_refined_space(seed, degrees, n_insertions=5)
            sp.set_coeffs(np.random.default_rng(seed).normal(size=len(sp)))
            path = tmp_path_factory.mktemp("corrupt") / "s.lrb"
            write_surface(LRSurface(sp), str(path), provenance={"strategy": "eFB",
                                                                "iterations": 2})
            text = path.read_text()
            tokens = [m.span() for m in JSON_TOKEN.finditer(text) if not m.group(1)]
            out.append((path, text, tokens, max(len(sp.u), len(sp.v))))
        return out

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rejected_or_a_partition_of_unity(self, documents, data):
        path, text, tokens, n_max = data.draw(st.sampled_from(documents))
        start, end = data.draw(st.sampled_from(tokens))
        path.write_text(text[:start] + data.draw(corruptions(n_max)) + text[end:])
        try:
            surface = read_surface(str(path))
        except FormatError:
            return
        assert partition_residual(surface.space, n=100) < 1e-12


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
