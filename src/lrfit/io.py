"""Point ingestion, surface and report serialization, synthetic clouds.

All formats are plain text for diffability: xyz triples for points, a JSON
surface document with stable key ordering, a CSV run report and an
ESRI-ASCII-style grid raster.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from itertools import compress

import numpy as np

from .driver import RunLedger
from .mesh import SUPPORTED_DEGREES, LRSpace, MeshError, MeshSegment, U
from .surface import LRSurface, PointCloud, element_sums

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed input file."""


# ----------------------------------------------------------------------
# point clouds


def read_points(path: str) -> PointCloud:
    """Read whitespace- or comma-separated ``x y z`` triples; ``#`` starts a
    comment; parse errors report the 1-based line number.

    ``np.loadtxt`` parses the file in C; its array is kept only when it has
    three columns and at least three rows.  Anything else (commas, tokens
    that only Python's ``float`` accepts such as ``1_0``, every malformed
    file) goes through the line loop, which gives the same values and owns
    every error message."""
    with open(path) as fh:
        try:
            with warnings.catch_warnings():
                # an empty or comment-only file warns; the loop reports it
                warnings.simplefilter("ignore", UserWarning)
                xyz = np.loadtxt(fh, comments="#", ndmin=2)
        except ValueError:
            xyz = None
    if xyz is None or xyz.shape[1] != 3 or len(xyz) < 3:
        xyz = _parse_point_lines(path)
    return PointCloud(xyz)


def _parse_point_lines(path: str) -> np.ndarray:
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


#: rows formatted per write; one string for a whole 1M-point cloud would
#: triple the writer's peak memory
WRITE_BLOCK = 65_536


def _write_rows(fh, row_format: str, *columns: np.ndarray) -> None:
    """Write ``row_format`` for every row of ``columns``, one joined string per
    block of ``WRITE_BLOCK`` rows.  ``tolist`` gives Python floats, whose
    ``!r`` is the shortest decimal that reads back to the same float."""
    fmt = row_format.format
    for start in range(0, len(columns[0]), WRITE_BLOCK):
        block = [col[start:start + WRITE_BLOCK].tolist() for col in columns]
        fh.write("".join(map(fmt, *block)))


def write_points(cloud: PointCloud, path: str) -> None:
    with open(path, "w") as fh:
        _write_rows(fh, "{!r} {!r} {!r}\n", cloud.x, cloud.y, cloud.z)


# ----------------------------------------------------------------------
# surface documents


#: compact JSON through CPython's C encoder; NaN and infinity are not JSON
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False).encode


def write_surface(surface: LRSurface, path: str, provenance: dict | None = None) -> None:
    """Serialize the surface as a JSON document.

    The top-level keys are sorted, one per line; each B-spline entry
    ``[[ku],[kv],coeff,scale]`` and each segment ``[axis,fixed,lo,hi]`` is
    one line, and every other value (the knot tables included) one compact
    line.  A diff shows one B-spline per line, and a degree-2 document takes
    about 60 B per B-spline, half the former ``indent=1`` layout.  Floats
    use shortest round-trip decimals, so reading back reproduces evaluation
    exactly; :func:`read_surface` reads any JSON layout.  The whole text is
    built before the file is opened: a value that JSON cannot hold (NaN,
    infinity, a numpy scalar in ``provenance``) raises and leaves an existing
    file untouched."""
    sp = surface.space
    doc = {
        "schema_version": SCHEMA_VERSION,
        "degrees": list(sp.degrees),
        "domain": list(sp.domain),
        "knots_u": sp.u.tolist(),
        "knots_v": sp.v.tolist(),
        "segments": [[s.axis, s.fixed, s.lo, s.hi] for s in sp.segments()],
        "bsplines": list(zip(*(a.tolist() for a in sp.knot_indices()),
                             sp.coeff_array().tolist(), sp.scale_array().tolist())),
        "provenance": provenance or {},
    }
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if key in ("bsplines", "segments") and value:
            value = "[\n" + ",\n".join(map(_encode, value)) + "\n]"
        else:
            value = _encode(value)
        lines.append(f"{_encode(key)}:{value}")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    with open(path, "w") as fh:
        fh.write(text)


def read_surface(path: str) -> LRSurface:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not a surface document: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: not a surface document: a JSON object is expected")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FormatError(f"{path}: unsupported schema version {version!r} "
                          f"(this build reads version {SCHEMA_VERSION})")
    degrees = doc.get("degrees")
    if not (isinstance(degrees, list) and len(degrees) == 2
            and all(type(p) is int and p in SUPPORTED_DEGREES for p in degrees)):
        raise FormatError(f"{path}: degrees must be two values from "
                          f"{SUPPORTED_DEGREES}, got {degrees!r}")
    try:
        knots = doc["knots_u"], doc["knots_v"]
        segments = doc["segments"]
        bsplines = doc["bsplines"]
    except KeyError as exc:
        raise FormatError(f"{path}: malformed surface document: {exc}") from exc
    if not (isinstance(segments, list) and isinstance(bsplines, list)):
        raise FormatError(f"{path}: segments and bsplines must be lists")
    if len(bsplines) == 0:
        raise FormatError(f"{path}: surface document without B-splines")
    if not all(isinstance(k, list) and all(map(_finite_number, k)) for k in knots):
        raise FormatError(f"{path}: knot tables must be lists of finite numbers")
    u, v = (np.array(k, dtype=float) for k in knots)
    if len(u) < 2 or len(v) < 2 or (np.diff(u) <= 0).any() or (np.diff(v) <= 0).any():
        raise FormatError(f"{path}: knot tables must be strictly increasing")
    extent = [knots[0][0], knots[0][-1], knots[1][0], knots[1][-1]]
    if doc.get("domain") != extent:
        raise FormatError(f"{path}: domain must be the knot-table extent {extent!r}, "
                          f"got {doc.get('domain')!r}")
    space = LRSpace(u, v, degrees)
    nu, nv = len(u), len(v)
    for seg in segments:
        try:
            axis, fixed, lo, hi = seg
            ms = MeshSegment(str(axis), fixed, lo, hi)
        except (TypeError, ValueError, MeshError) as exc:
            raise FormatError(f"{path}: corrupt segment {seg!r}: {exc}") from exc
        if not all(type(x) is int for x in (fixed, lo, hi)):   # not a float or a bool
            raise FormatError(f"{path}: segment {seg!r} has a non-integer index")
        n_fix = nu if ms.axis == U else nv
        n_orth = nv if ms.axis == U else nu
        if not (0 <= ms.fixed < n_fix and 0 <= ms.lo < ms.hi < n_orth):
            raise FormatError(f"{path}: segment {seg!r} indexes outside "
                              "the knot tables")
        space._add_span(ms.axis, ms.fixed, ms.lo, ms.hi)
    space.add_bsplines(*_bspline_columns(bsplines, degrees, (nu, nv), path))
    _check_lr_space(space, path)
    return LRSurface(space)


def _finite_number(x) -> bool:
    # a JSON number; NaN fails the comparison, and no float overflow on big ints
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _bspline_columns(bsplines: list, degrees, n_knots, path: str):
    """The entries ``[ku, kv, coeff, scale]`` as store columns: knot index rows,
    scales and coefficients.  Each rule runs over all entries at once, and
    the first bad entry is named with the message of its first broken rule."""
    key, n_u, n_v, coeff, scale, error = zip(*map(_unpack_entry, bsplines))
    coeff, scale = (np.array([x if _finite_number(x) else np.nan for x in c], dtype=float)
                    for c in (coeff, scale))
    ints = np.array([{*map(type, k)} <= {int} for k in key])   # not a float or a bool
    counts = np.equal(n_u, degrees[0] + 2) & np.equal(n_v, degrees[1] + 2)
    keys = np.zeros((len(key), sum(degrees) + 4), dtype=np.int64)
    # clipped to [-1, n], the indices keep their range and order answers
    use = np.array(list(compress(key, ints & counts)), dtype=object).reshape(-1, len(keys.T))
    keys[ints & counts] = np.clip(use, -1, max(n_knots)).astype(np.int64)
    ku, kv = np.split(keys, [degrees[0] + 2], axis=1)
    # each rule with the message for an entry that breaks it, in checking order
    rules = [(np.equal(error, None), "corrupt B-spline {entry!r}: {error}"),
             (ints, "B-spline {entry!r} has a non-integer knot index"),
             (np.isfinite(coeff), "B-spline {entry!r} has a coefficient that is not a "
              "finite number"),
             # refinement only multiplies and adds positive scales
             (scale > 0, "B-spline {entry!r} has a scale that is not a finite positive number"),
             (counts, "B-spline {entry!r} has the wrong local knot count for its degree")]
    for idx, n in ((ku, n_knots[0]), (kv, n_knots[1])):
        step, inner = np.diff(idx, axis=1), idx[:, 1:]
        rules += [((idx[:, 0] >= 0) & (idx[:, -1] < n) & (step >= 0).all(axis=1),
                   "B-spline {entry!r} indexes outside the knot tables"),
                  (idx[:, 0] != idx[:, -1], "B-spline {entry!r} has an empty support"),
                  # interior knots are simple; only the boundary ones repeat
                  (~((step == 0) & (0 < inner) & (inner < n - 1)).any(axis=1),
                   "B-spline {entry!r} repeats an interior knot index")]
    first = np.zeros(len(key), dtype=bool)
    first[np.unique(keys, axis=0, return_index=True)[1]] = True
    rules.append((first, "duplicate B-spline {entry!r}"))
    ok = np.stack([rule for rule, _ in rules])
    if not ok.all():
        k = int(ok.all(axis=0).argmin())
        message = rules[int(ok[:, k].argmin())][1]
        raise FormatError(f"{path}: " + message.format(entry=bsplines[k], error=error[k]))
    return ku, kv, scale, coeff


def _unpack_entry(entry):
    """``(ku + kv, len(ku), len(kv), coeff, scale, None)``, or placeholders and
    the reason the entry does not unpack."""
    try:
        ku, kv, coeff, scale = entry
        ku, kv = tuple(ku), tuple(kv)
        return ku + kv, len(ku), len(kv), coeff, scale, None
    except (TypeError, ValueError) as exc:
        return (), 0, 0, 0.0, 1.0, str(exc)


def _check_lr_space(space: LRSpace, path: str) -> None:
    """Reject segments that do not tile the domain, B-spline local knot lines
    that are not meshlines across the support, non-minimal supports, and
    scales under which the B-splines do not sum to one within 1e-12."""
    try:
        space.elements()
    except MeshError as exc:
        raise FormatError(f"{path}: segments do not form a box partition: {exc}") from exc
    if (bad := space.first_invalid_bspline()) is not None:
        bi, axis, index, is_knot = bad
        key = [k[bi].tolist() for k in space.knot_indices()]
        value = float(space.table(axis)[index])
        if is_knot:
            raise FormatError(f"{path}: B-spline {key}: knot line {axis}={value!r} is not "
                              "a meshline across its support")
        raise FormatError(f"{path}: B-spline {key} lacks minimal support: the meshline "
                          f"{axis}={value!r} traverses it")
    # partition of unity at every element centre: a scale off by ``e`` moves
    # the sum there by ``e`` times a positive B-spline value
    bounds = space.element_bounds()
    # strictly inside each element, also where its width is one ulp
    centre = [np.clip(0.5 * a + 0.5 * b, a, np.nextafter(b, a))
              for a, b in (bounds[:, :2].T, bounds[:, 2:].T)]
    total = element_sums(space, *centre, np.ones(len(space)))
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= 1e-12))   # NaN fails too
    if len(bad):
        k = int(bad[0])
        raise FormatError(f"{path}: the scaled B-splines sum to {float(total[k])!r}, not 1, "
                          f"at the centre ({float(centre[0][k])!r}, {float(centre[1][k])!r}) "
                          "of an element: a scale is wrong")


# ----------------------------------------------------------------------
# rasters


def sample_raster(surface: LRSurface, nx: int, ny: int, path: str) -> None:
    """Write an ESRI-ASCII-style grid of surface heights over the domain,
    row-major and north-up (the first data row is the maximum-y row)."""
    if nx < 2 or ny < 2:
        raise ValueError("raster needs nx, ny >= 2")
    u0, u1, v0, v1 = surface.domain
    gu = np.linspace(u0, u1, nx)
    gv = np.linspace(v0, v1, ny)
    uu, vv = np.meshgrid(gu, gv)
    zz = surface.evaluate(uu, vv)
    with open(path, "w") as fh:
        fh.write(f"ncols {nx}\n")
        fh.write(f"nrows {ny}\n")
        fh.write(f"xllcorner {u0!r}\n")
        fh.write(f"yllcorner {v0!r}\n")
        fh.write(f"dx {(u1 - u0) / (nx - 1)!r}\n")
        fh.write(f"dy {(v1 - v0) / (ny - 1)!r}\n")
        fh.write("NODATA_value -9999\n")
        # one row's floats at a time: the whole grid as a list holds 8 MB
        for row in zz[::-1]:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


# ----------------------------------------------------------------------
# run reports

REPORT_HEADER = "iter,n_out,n_coeff,max,avg,avg_out,efficiency,segments,wall_ms,strategy"


def write_report(ledger: RunLedger, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(REPORT_HEADER + "\n")
        for r in ledger.rows:
            fh.write(",".join([
                str(r.iteration), str(r.n_out), str(r.n_coeff),
                repr(r.max_dist), repr(r.avg_dist), repr(r.avg_out_dist),
                repr(r.efficiency), str(r.segments_inserted),
                repr(r.wall_time * 1000.0), r.strategy_active,
            ]) + "\n")


# ----------------------------------------------------------------------
# synthetic clouds

KINDS = ("dunes", "peaks", "scanlines", "steps")


def _dunes_height(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Smooth dune field: large-scale exponential hills with superposed
    medium-scale sand ripples of varying wavelength."""
    u, v = x / 1000.0, y / 1000.0
    z = (0.75 * np.exp(-((9 * u - 2) ** 2 + (9 * v - 2) ** 2) / 4)
         + 0.75 * np.exp(-((9 * u + 1) ** 2) / 49 - (9 * v + 1) / 10)
         + 0.5 * np.exp(-((9 * u - 7) ** 2 + (9 * v - 3) ** 2) / 4)
         - 0.2 * np.exp(-(9 * u - 4) ** 2 - (9 * v - 7) ** 2))
    z = 40.0 * z
    # ripple field: amplitude and frequency both grow toward the south-west
    ripple = (2.2 * np.exp(-((u - 0.35) ** 2 + (v - 0.3) ** 2) / 0.08)
              * np.sin(2 * np.pi * (14 * u + 3 * u * u))
              * np.sin(2 * np.pi * (11 * v)))
    crest = 3.0 * np.exp(-((u - 0.72) ** 2 / 0.001 + (v - 0.6) ** 2 / 0.05))
    return z + ripple + crest


def _peaks_height(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rugged mountain-side: steep anisotropic peaks over a sloping base."""
    u, v = x / 1000.0, y / 1000.0
    base = 120.0 * u + 60.0 * v
    z = base
    peaks = [(0.3, 0.4, 180.0, 0.004), (0.55, 0.7, 240.0, 0.002),
             (0.7, 0.25, 150.0, 0.003), (0.85, 0.6, 90.0, 0.0015)]
    for cx, cy, h, w in peaks:
        z = z + h * np.exp(-((u - cx) ** 2 + 1.8 * (v - cy) ** 2) / w)
    z = z + 8.0 * np.sin(21 * u) * np.sin(17 * v)
    return z


def _steps_height(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Raster-like piecewise-constant terraces."""
    return 5.0 * np.floor(x / 180.0) + 3.0 * np.floor(y / 260.0)


def check_noise(noise: float) -> None:
    """Reject a noise level that is not finite and non-negative; ``noise > 0``
    is false for NaN, so a NaN level would write the noise-free cloud."""
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")


def check_outlier_fraction(fraction: float) -> None:
    """Reject an outlier fraction outside [0, 1] (NaN included)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"outlier_fraction must be in [0, 1], got {fraction!r}")


def gen_synthetic(kind: str, seed: int, n_points: int, noise: float = 0.0,
                  outlier_fraction: float = 0.0) -> PointCloud:
    """Deterministic synthetic test cloud on a 1000 m square.

    The ground-truth height function is attached as ``cloud.truth`` and, for
    the scanlines kind, the injected outliers as the boolean mask
    ``cloud.outliers`` (exactly ``floor(outlier_fraction * n_points)`` of
    them, displaced far off the true surface).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r} (expected one of {KINDS})")
    if n_points < 100:
        raise ValueError("synthetic clouds need n_points >= 100")
    check_noise(noise)
    check_outlier_fraction(outlier_fraction)
    rng = np.random.default_rng(seed)
    if kind == "scanlines":
        n_lines = max(int(np.sqrt(n_points) / 2), 4)
        # scan lines at varying spacing, points dense along each line
        ys = np.sort(rng.uniform(0, 1000, n_lines))
        line_of = rng.integers(0, n_lines, n_points)
        x = rng.uniform(0, 1000, n_points)
        y = ys[line_of] + rng.normal(0.0, 0.5, n_points)
        truth = _dunes_height
    else:
        x = rng.uniform(0, 1000, n_points)
        y = rng.uniform(0, 1000, n_points)
        truth = {"dunes": _dunes_height, "peaks": _peaks_height,
                 "steps": _steps_height}[kind]
    z = truth(x, y)
    if noise > 0.0:
        z = z + rng.normal(0.0, noise, n_points)
    outliers = np.zeros(n_points, dtype=bool)
    n_outliers = int(outlier_fraction * n_points)
    if n_outliers > 0:
        ids = rng.choice(n_points, size=n_outliers, replace=False)
        z[ids] = z[ids] + rng.choice([-1.0, 1.0], n_outliers) * rng.uniform(
            30.0, 60.0, n_outliers)
        outliers[ids] = True
    cloud = PointCloud(np.c_[x, y, z])
    cloud.truth = truth
    cloud.outliers = outliers
    return cloud


def write_truth_sidecar(cloud: PointCloud, path: str) -> None:
    """Sidecar oracle for a synthetic cloud: true height and outlier flag
    per point, same order as the cloud."""
    z_true = cloud.truth(cloud.x, cloud.y)
    with open(path, "w") as fh:
        fh.write("# x y z_true is_outlier\n")
        _write_rows(fh, "{!r} {!r} {!r} {:d}\n", cloud.x, cloud.y, z_true,
                    np.asarray(cloud.outliers).astype(np.int64))
