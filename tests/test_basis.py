"""Single-B-spline evaluation against the scipy reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from lrfit.basis import basis_deriv, basis_value


def scipy_single(knots, degree, x):
    """One B-spline on its local knots, via scipy with a padded vector."""
    t = np.asarray(knots, float)
    pad_lo = np.full(degree, t[0])
    pad_hi = np.full(degree, t[-1])
    full = np.r_[pad_lo, t, pad_hi]
    c = np.zeros(len(full) - degree - 1)
    c[degree] = 1.0
    return BSpline(full, c, degree, extrapolate=False)(x)


@st.composite
def local_knots(draw, degree):
    vals = draw(st.lists(st.floats(0, 10, allow_nan=False, width=32),
                         min_size=degree + 2, max_size=degree + 2,
                         unique=True))
    return np.sort(np.asarray(vals, dtype=float))


class TestValueAgainstScipy:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_uniform_knots(self, degree):
        t = np.arange(degree + 2, dtype=float)
        x = np.linspace(t[0], t[-1] - 1e-9, 500)
        ours = basis_value(t, degree, x)
        ref = scipy_single(t, degree, x)
        assert np.abs(ours - ref).max() < 1e-13

    @given(degree=st.sampled_from([1, 2, 3]), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_knots(self, degree, data):
        t = data.draw(local_knots(degree))
        x = np.linspace(t[0], t[-1], 101)[:-1]
        ours = basis_value(t, degree, x)
        ref = scipy_single(t, degree, x)
        assert np.abs(ours - ref).max() < 1e-12

    def test_repeated_interior_knot(self):
        t = np.array([0.0, 1.0, 1.0, 2.0])
        x = np.linspace(0, 2, 201)[:-1]
        ours = basis_value(t, 2, x)
        ref = scipy_single(t, 2, x)
        assert np.abs(ours - ref).max() < 1e-13

    def test_right_closed_convention(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        # open at the right end unless the domain closes there
        assert basis_value(t, 2, np.array([3.0])) == 0.0
        assert basis_value(t, 2, np.array([3.0]), right_closed_at=3.0) == 0.0
        t_end = np.array([1.0, 3.0, 3.0, 3.0])
        assert basis_value(t_end, 2, np.array([3.0]), right_closed_at=3.0) == 1.0

    def test_wrong_knot_count_rejected(self):
        with pytest.raises(ValueError):
            basis_value(np.array([0.0, 1.0, 2.0]), 2, np.array([0.5]))


class TestDerivatives:
    @pytest.mark.parametrize("degree,order", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_against_finite_differences(self, degree, order):
        t = np.sort(np.array([0.0, 0.7, 1.9, 3.1, 4.0, 5.2]))[: degree + 2]
        x = np.linspace(t[0] + 0.05, t[-1] - 0.05, 200)
        h = 1e-6

        def f(xx, k):
            return basis_deriv(t, degree, xx, k) if k else basis_value(t, degree, xx)

        num = (f(x + h, order - 1) - f(x - h, order - 1)) / (2 * h)
        ana = basis_deriv(t, degree, x, order)
        assert np.abs(num - ana).max() < 1e-5

    def test_zeroth_order_is_value(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        x = np.linspace(0, 3, 50)
        assert np.array_equal(basis_deriv(t, 2, x, 0), basis_value(t, 2, x))

    def test_degree_one_second_derivative_zero(self):
        t = np.array([0.0, 1.0, 2.0])
        x = np.linspace(0, 2, 50)
        assert (basis_deriv(t, 1, x, 2) == 0.0).all()


def recursive_deriv(knots, degree, x, order, right_closed_at=None):
    """The derivative as two lower-degree derivatives of the knot halves,
    recursing down to ``basis_value``: the formulation ``basis_deriv`` must
    reproduce bit for bit."""
    if order == 0:
        return basis_value(knots, degree, x, right_closed_at)
    t = np.asarray(knots, dtype=float)
    p = degree
    out = np.zeros_like(np.asarray(x, dtype=float))
    if p == 0:
        return out
    den = t[p] - t[0]
    if den > 0.0:
        out = out + (p / den) * recursive_deriv(t[:-1], p - 1, x, order - 1, right_closed_at)
    den = t[p + 1] - t[1]
    if den > 0.0:
        out = out - (p / den) * recursive_deriv(t[1:], p - 1, x, order - 1, right_closed_at)
    return out


class TestDerivativeRecurrence:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_equals_recursive_formulation(self, degree, order):
        rng = np.random.default_rng(10 * degree + order)
        pool = np.array([0.0, 0.25, 1.0, 1.5, 2.75, 4.0])
        vectors = [np.sort(rng.choice(pool, degree + 2)) for _ in range(200)]
        vectors += [np.arange(degree + 2.0),                     # uniform
                    np.r_[0.0, np.full(degree, 1.0), 2.0],        # interior repeat
                    np.r_[np.zeros(degree + 1), 1.0],             # open left end
                    np.r_[0.0, np.full(degree + 1, 1.0)]]         # open right end
        for t in vectors:
            if t[0] == t[-1]:
                continue
            x = np.r_[np.linspace(t[0] - 0.5, t[-1] + 0.5, 61), t]
            for closed_at in (None, t[-1]):
                ours = basis_deriv(t, degree, x, order, closed_at)
                ref = recursive_deriv(t, degree, x, order, closed_at)
                assert np.array_equal(ours, ref), (t, closed_at)


class TestValuePairs:
    """Knot vectors as the columns of a ``(degree + 2, M)`` array: column ``k``
    evaluated at ``x[k]`` gives the bytes of a call on that vector alone."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_equals_basis_value_pair_by_pair(self, degree):
        """At orders 0 to 2, over repeated knots, open ends and points on,
        inside and outside every support, half-open and closed at the domain
        maximum."""
        rng = np.random.default_rng(degree)
        pool = np.array([0.0, 0.25, 1.0, 1.5, 2.75, 4.0])
        rows = np.sort(rng.choice(pool, (300, degree + 2)), axis=1)
        rows = np.r_[rows, [np.r_[np.zeros(degree + 1), 1.0],          # open left end
                            np.r_[2.75, np.full(degree + 1, 4.0)],     # open right end
                            np.r_[0.0, np.full(degree, 1.0), 2.0]]]    # interior repeat
        rows = rows[rows[:, 0] < rows[:, -1]]
        x = rng.choice(np.r_[pool, rng.uniform(-0.5, 4.5, 20)], (len(rows), 8))
        for order in (0, 1, 2):
            for closed_at in (None, pool[-1]):
                ours = np.stack([basis_deriv(rows.T, degree, col, order, closed_at)
                                 for col in x.T], axis=1)
                ref = np.stack([basis_deriv(t, degree, xs, order, closed_at)
                                for t, xs in zip(rows, x)])
                assert ours.tobytes() == ref.tobytes(), (order, closed_at)

    def test_points_broadcast_against_columns(self):
        """A ``(K, M)`` point array evaluates every column at its K points."""
        rows = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.5, 4.0]]).T
        x = np.linspace(-0.5, 4.0, 19)[:, None] + np.zeros(2)
        ours = basis_value(rows, 2, x, 4.0)
        assert ours.shape == (19, 2)
        for k in range(2):
            assert ours[:, k].tobytes() == basis_value(rows[:, k], 2, x[:, k], 4.0).tobytes()
