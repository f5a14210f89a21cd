"""Evaluation of B-splines from their local knot vectors.

One Cox–de Boor kernel serves one local knot vector of length ``degree + 2``
or many at once, as the columns of a ``(degree + 2, M)`` array, and is
vectorized over the evaluation points, which broadcast against the columns.
The half-open convention is used for the degree-zero indicators; intervals
ending at ``right_closed_at`` (the domain maximum) are treated as closed so
that open knot vectors interpolate their last coefficient at the domain edge.
"""

from __future__ import annotations

import numpy as np


def basis_value(knots, degree: int, x, right_closed_at: float | None = None) -> np.ndarray:
    """Value of the B-spline with local knots ``knots`` at points ``x``.

    ``knots`` must be non-decreasing with ``degree + 2`` entries (rows).
    """
    return basis_deriv(knots, degree, x, 0, right_closed_at)


def basis_deriv(knots, degree: int, x, order: int,
                right_closed_at: float | None = None) -> np.ndarray:
    """``order``-th derivative of the B-spline with local knots ``knots``.

    ``knots`` is one vector of ``degree + 2`` knots or a ``(degree + 2, M)``
    array whose column ``k`` is the knot vector of the B-spline at ``x[..., k]``.

    One Cox–de Boor triangle runs up to degree ``q = degree - order``; the
    ``order`` levels above it apply the derivative recurrence (de Boor, *A
    Practical Guide to Splines*, ch. X) to the degree-``q`` B-splines
    instead: ``B'_{j,d} = d / (t[j+d] - t[j]) B_{j,d-1}
    - d / (t[j+d+1] - t[j+1]) B_{j+1,d-1}``.  A term over a zero span is
    divided by ``inf``, which gives the zero the recurrence drops.
    """
    t = np.asarray(knots, dtype=float)
    x = np.asarray(x, dtype=float)
    p = degree
    if t.shape[0] != p + 2:
        raise ValueError(f"expected {p + 2} local knots, got {t.shape[0]}")
    if order > p:
        return np.zeros(np.broadcast_shapes(x.shape, t.shape[1:]))
    # knot j on row j of axis 0; the rows broadcast against x
    t = t[(slice(None),) + (None,) * max(x.ndim + 1 - t.ndim, 0)]
    # the degree-zero indicator of [t[j], t[j+1]): at or past t[j], not past t[j+1]
    at_or_past = x >= t
    levels = at_or_past[:-1] > at_or_past[1:]
    # the nonempty intervals that end at the domain end are closed there
    if right_closed_at is not None and t.max() >= right_closed_at:
        levels |= (t[:-1] < t[1:]) & (t[1:] >= right_closed_at) & (x == t[1:])
    levels = levels.astype(float)
    # row j of each level is B_{j,d}: the triangle runs over all j at once
    for d in range(1, p + 1):
        span = t[d:] - t[:-d]
        span = np.where(span > 0.0, span, np.inf)
        if d <= p - order:
            levels = ((x - t[:-d - 1]) / span[:-1] * levels[:-1]
                      + (t[d + 1:] - x) / span[1:] * levels[1:])
        else:
            levels = d / span[:-1] * levels[:-1] + -d / span[1:] * levels[1:]
    return levels[0]
