"""The benchmark's evaluator against scipy's B-spline design matrix.

    python3 -m pytest perfbench/test_evaluator.py

Tensor-product documents are written by hand, so the test needs no lrfit.
"""

import itertools
import os
import sys

import numpy as np
import pytest
from scipy.interpolate import BSpline

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from evaluator import Document  # noqa: E402


def tensor_document(table_u, table_v, degrees, coeffs) -> dict:
    """A surface document for the tensor-product space over two knot tables
    with open end knots."""
    p1, p2 = degrees
    iu = [0] * p1 + list(range(len(table_u))) + [len(table_u) - 1] * p1
    iv = [0] * p2 + list(range(len(table_v))) + [len(table_v) - 1] * p2
    bsplines = []
    for a in range(len(iu) - p1 - 1):
        for b in range(len(iv) - p2 - 1):
            bsplines.append([iu[a:a + p1 + 2], iv[b:b + p2 + 2], float(coeffs[a, b]), 1.0])
    return {"schema_version": 1, "degrees": [p1, p2], "knots_u": list(table_u),
            "knots_v": list(table_v), "segments": [], "bsplines": bsplines, "provenance": {}}


def full_knots(table, p):
    return np.r_[[table[0]] * p, table, [table[-1]] * p]


@pytest.mark.parametrize("degrees", list(itertools.product((1, 2, 3), repeat=2)))
def test_matches_design_matrix(degrees):
    rng = np.random.default_rng(sum(degrees) * 10 + degrees[0])
    p1, p2 = degrees
    table_u = np.r_[-2.0, np.sort(rng.uniform(-2.0, 5.0, 5)), 5.0]
    table_v = np.r_[10.0, np.sort(rng.uniform(10.0, 11.0, 3)), 11.0]
    tu, tv = full_knots(table_u, p1), full_knots(table_v, p2)
    coeffs = rng.normal(size=(len(tu) - p1 - 1, len(tv) - p2 - 1))
    doc = Document(tensor_document(table_u, table_v, degrees, coeffs))

    x = np.r_[rng.uniform(-2.0, 5.0, 400), table_u, -2.0, 5.0, 5.0]
    y = np.r_[rng.uniform(10.0, 11.0, 400), rng.choice(table_v, len(table_u)), 11.0, 10.0, 11.0]
    height, pou = doc.evaluate(x, y)

    dx = BSpline.design_matrix(x, tu, p1).toarray()
    dy = BSpline.design_matrix(y, tv, p2).toarray()
    expected = np.einsum("ki,ij,kj->k", dx, coeffs, dy)
    assert np.abs(height - expected).max() <= 1e-12
    assert np.abs(pou - 1.0).max() <= 1e-14
    # the corner at the domain maximum interpolates the last coefficient
    assert height[-1] == pytest.approx(coeffs[-1, -1], abs=1e-13)


def test_rejects_points_outside_the_domain():
    doc = Document(tensor_document(np.array([0.0, 1.0]), np.array([0.0, 1.0]), (2, 2),
                                   np.zeros((3, 3))))
    with pytest.raises(ValueError):
        doc.evaluate([1.5], [0.5])
