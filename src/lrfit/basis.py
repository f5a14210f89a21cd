"""Evaluation of a single B-spline from its local knot vector.

All routines work on one local knot vector of length ``degree + 2`` and are
vectorized over the evaluation points.  The half-open convention is used for
the degree-zero indicators; intervals ending at ``right_closed_at`` (the
domain maximum) are treated as closed so that open knot vectors interpolate
their last coefficient at the domain edge.
"""

from __future__ import annotations

import numpy as np


def basis_value(knots, degree: int, x, right_closed_at: float | None = None) -> np.ndarray:
    """Value of the B-spline with local knots ``knots`` at points ``x``.

    ``knots`` must be non-decreasing with ``degree + 2`` entries.
    """
    return basis_deriv(knots, degree, x, 0, right_closed_at)


def basis_deriv(knots, degree: int, x, order: int,
                right_closed_at: float | None = None) -> np.ndarray:
    """``order``-th derivative of the B-spline with local knots ``knots``.

    One Cox–de Boor triangle runs up to degree ``q = degree - order``; the
    ``order`` levels above it apply the derivative recurrence (de Boor, *A
    Practical Guide to Splines*, ch. X) to the degree-``q`` B-splines
    instead: ``B'_{j,d} = d / (t[j+d] - t[j]) B_{j,d-1}
    - d / (t[j+d+1] - t[j+1]) B_{j+1,d-1}``.
    """
    t = np.asarray(knots, dtype=float)
    x = np.asarray(x, dtype=float)
    p = degree
    if t.shape[0] != p + 2:
        raise ValueError(f"expected {p + 2} local knots, got {t.shape[0]}")
    if order > p:
        return np.zeros_like(x)
    levels = []
    for j in range(p + 1):
        ind = (x >= t[j]) & (x < t[j + 1])
        if right_closed_at is not None and t[j] < t[j + 1] and t[j + 1] >= right_closed_at:
            ind = ind | (x == t[j + 1])
        levels.append(ind.astype(float))
    for d in range(1, p + 1):
        value_step = d <= p - order
        for j in range(p + 1 - d):
            acc = np.zeros_like(x)
            den = t[j + d] - t[j]
            if den > 0.0:
                acc += ((x - t[j]) if value_step else d) / den * levels[j]
            den = t[j + d + 1] - t[j + 1]
            if den > 0.0:
                acc += ((t[j + d + 1] - x) if value_step else -d) / den * levels[j + 1]
            levels[j] = acc
    return levels[0]


def basis_value_pairs(knots, x) -> np.ndarray:
    """Value of the B-spline with local knots ``knots[:, k]`` at ``x[k]``, for
    every column ``k`` of the ``(degree + 2, M)`` array ``knots``.

    The same Cox–de Boor triangle as :func:`basis_deriv`, term for term, run
    over all pairs at once on contiguous knot rows.  Every interval is
    half-open, so a point at the domain maximum reads 0: use it for interior
    points such as element centres.
    """
    t = np.asarray(knots, dtype=float)
    x = np.asarray(x, dtype=float)
    p = t.shape[0] - 2
    levels = [((x >= t[j]) & (x < t[j + 1])).astype(float) for j in range(p + 1)]
    for d in range(1, p + 1):
        for j in range(p + 1 - d):
            den = t[j + d] - t[j]
            acc = np.divide(x - t[j], den, out=np.zeros_like(x), where=den > 0.0)
            acc *= levels[j]
            den = t[j + d + 1] - t[j + 1]
            right = np.divide(t[j + d + 1] - x, den, out=np.zeros_like(x), where=den > 0.0)
            right *= levels[j + 1]
            levels[j] = acc + right
    return levels[0]
