"""Independent evaluator of lrfit surface documents.

Reads a surface document as plain JSON and evaluates the height function
``F(x, y) = sum_i s_i P_i B_i(x) C_i(y)`` with
``scipy.interpolate.BSpline.basis_element`` on each B-spline's local knot
values.  It shares no code with lrfit: points are bucketed on the document's
own knot tables, and at the domain maximum each B-spline takes its left
limit, evaluated as the right limit of the mirrored B-spline.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.interpolate import BSpline


class Document:
    """A surface document: knot tables, degrees and the B-spline list."""

    def __init__(self, doc: dict):
        self.degrees = tuple(int(p) for p in doc["degrees"])
        self.u = np.asarray(doc["knots_u"], dtype=float)
        self.v = np.asarray(doc["knots_v"], dtype=float)
        self.bsplines = [(np.asarray(ku, dtype=np.int64), np.asarray(kv, dtype=np.int64),
                          float(coeff), float(scale))
                         for ku, kv, coeff, scale in doc["bsplines"]]
        self.provenance = doc.get("provenance", {})

    @classmethod
    def load(cls, path: str) -> "Document":
        with open(path) as fh:
            return cls(json.load(fh))

    @property
    def domain(self) -> tuple[float, float, float, float]:
        return float(self.u[0]), float(self.u[-1]), float(self.v[0]), float(self.v[-1])

    def evaluate(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Heights and partition-of-unity sums ``sum_i s_i B_i C_i`` at the
        points; points outside the domain raise ``ValueError``."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        u0, u1, v0, v1 = self.domain
        if (x < u0).any() or (x > u1).any() or (y < v0).any() or (y > v1).any():
            raise ValueError("evaluation point outside the document's domain")
        # bucket the points on the knot-table cells, column-major by u cell
        cu = np.minimum(np.searchsorted(self.u, x, side="right") - 1, len(self.u) - 2)
        cv = np.minimum(np.searchsorted(self.v, y, side="right") - 1, len(self.v) - 2)
        nv = len(self.v) - 1
        cell = cu * nv + cv
        order = np.argsort(cell, kind="stable")
        starts = np.searchsorted(cell[order], np.arange((len(self.u) - 1) * nv + 1))
        height = np.zeros_like(x)
        pou = np.zeros_like(x)
        for ku, kv, coeff, scale in self.bsplines:
            parts = [order[starts[c * nv + kv[0]]:starts[c * nv + kv[-1]]]
                     for c in range(ku[0], ku[-1])]
            ids = np.concatenate(parts)
            if len(ids) == 0:
                continue
            bx = _basis(self.u[ku], x[ids], u1)
            by = _basis(self.v[kv], y[ids], v1)
            w = scale * bx * by
            pou[ids] += w
            height[ids] += coeff * w
        return height, pou


def _basis(t: np.ndarray, x: np.ndarray, end: float) -> np.ndarray:
    """B-spline with local knots ``t`` at points inside its support; points
    at ``end`` get the left limit."""
    out = BSpline.basis_element(t, extrapolate=False)(x)
    at_end = x == end
    if at_end.any():
        out[at_end] = BSpline.basis_element(-t[::-1], extrapolate=False)(-x[at_end])
    return out
