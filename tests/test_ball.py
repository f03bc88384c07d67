"""Poincare ball geometry: algebraic identities, exp/log round trips,
metric axioms, closed forms, and analytic gradients vs finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    composed_exp_map,
    composed_origin_distance_and_grad,
    conformal_factor,
    distance_and_grad,
    distance_from_origin,
    distance_grad,
    exp_map_origin_vjp,
    log_map,
    mobius_add,
    numeric_grad,
    rel_err,
    slotted_exp_origin_distance_vjp,
)
from hyperclass import ball
from hyperclass.ball import (
    EPS_BALL,
    EPS_DIV,
    MAX_NORM,
    distance,
    distance_vjp,
    exp_map,
    exp_map_origin,
    exp_origin_distance_vjp,
    log_map_origin,
    project_to_ball,
    random_ball_point,
    riemannian_grad,
)
from hyperclass.errors import NumericalError

DIMS = (2, 3, 5, 10)


def sample_points(n, max_radius, seed=0):
    rng = np.random.default_rng(seed)
    return [random_ball_point(rng, DIMS[i % len(DIMS)], max_radius) for i in range(n)]


@st.composite
def ball_pair(draw, max_norm=0.9):
    dim = draw(st.integers(1, 5))
    pair = []
    for _ in range(2):
        coords = draw(
            st.lists(
                st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
                min_size=dim,
                max_size=dim,
            )
        )
        p = np.array(coords, dtype=float)
        norm = np.linalg.norm(p)
        if norm > max_norm:
            p *= max_norm / norm
        pair.append(p)
    return pair


class TestMobius:
    def test_left_identity_exact(self):
        for y in sample_points(1000, MAX_NORM, seed=1):
            assert np.linalg.norm(mobius_add(np.zeros_like(y), y) - y) <= 1e-12

    def test_right_identity(self):
        for x in sample_points(1000, 0.99, seed=2):
            assert np.linalg.norm(mobius_add(x, np.zeros_like(x)) - x) <= 1e-12

    def test_left_inverse(self):
        for x in sample_points(1000, 0.95, seed=3):
            assert np.linalg.norm(mobius_add(x, -x)) <= 1e-9

    def test_left_cancellation(self):
        # x (+) (-x (+) y) = y; the gyrogroup left cancellation law.
        pts = sample_points(2000, 0.9, seed=4)
        for x, y in zip(pts[::2], pts[1::2]):
            if x.shape != y.shape:
                continue
            assert np.linalg.norm(mobius_add(x, mobius_add(-x, y)) - y) <= 1e-9

    def test_collinear_worked_example(self):
        # 1-D Mobius addition (x + y) / (1 + xy).
        out = mobius_add(np.array([0.3, 0.0]), np.array([0.4, 0.0]))
        np.testing.assert_allclose(out, [0.7 / 1.12, 0.0], atol=1e-15)

    def test_result_stays_in_ball(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            x = random_ball_point(rng, 3, MAX_NORM)
            y = random_ball_point(rng, 3, MAX_NORM)
            assert np.linalg.norm(mobius_add(x, y)) <= MAX_NORM + 1e-15

    @given(ball_pair())
    def test_left_cancellation_property(self, pair):
        x, y = pair
        assert np.linalg.norm(mobius_add(x, mobius_add(-x, y)) - y) <= 1e-9


class TestExpLog:
    def test_round_trip_log_exp(self):
        # log(x, exp(x, v)) = v within 1e-6 for ||v|| <= 2, ||x|| <= 0.9,
        # restricted to tangents whose image stays off the radial clamp
        # band: the 1e-5 artanh/ball clamp truncates points within 1e-5 of
        # the boundary, where no convention can round-trip to 1e-6.
        rng = np.random.default_rng(10)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            x = random_ball_point(rng, dim, 0.9)
            v = rng.standard_normal(dim)
            cap = min(2.0, 8.0 / conformal_factor(x))
            v *= rng.uniform(0, cap) / max(np.linalg.norm(v), 1e-12)
            assert np.linalg.norm(log_map(x, exp_map(x, v)) - v) <= 1e-6

    def test_round_trip_exp_log(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            x = random_ball_point(rng, dim, 0.9)
            y = random_ball_point(rng, dim, 0.9)
            assert np.linalg.norm(exp_map(x, log_map(x, y)) - y) <= 1e-6

    def test_origin_worked_example(self):
        out = exp_map(np.zeros(2), np.array([0.3, 0.0]))
        np.testing.assert_allclose(out, [np.tanh(0.3), 0.0], atol=1e-15)
        back = log_map(np.zeros(2), np.array([np.tanh(0.3), 0.0]))
        np.testing.assert_allclose(back, [0.3, 0.0], atol=1e-12)

    def test_zero_limits(self):
        x = np.array([0.2, -0.1])
        np.testing.assert_array_equal(exp_map(x, np.zeros(2)), x)
        np.testing.assert_array_equal(log_map(x, x), np.zeros(2))

    def test_exp_map_origin_matches_general(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = rng.standard_normal(4) * rng.uniform(0, 2)
            assert np.linalg.norm(exp_map_origin(v) - exp_map(np.zeros(4), v)) <= 1e-12

    @given(ball_pair(max_norm=0.85))
    def test_round_trip_property(self, pair):
        x, y = pair
        assert np.linalg.norm(exp_map(x, log_map(x, y)) - y) <= 1e-6


def test_rows_shorter_than_eps_div_are_zero_rows():
    # A row of norm exactly EPS_DIV is not a zero row: tanh and artanh of
    # 1e-12 round to 1e-12, so exp_0 and log_0 return it. A shorter one is,
    # and both maps send it to the origin.
    below = np.nextafter(EPS_DIV, 0.0)
    v = np.array([[EPS_DIV, 0.0], [below, 0.0], [0.0, 0.0]])
    want = [[EPS_DIV, 0.0], [0.0, 0.0], [0.0, 0.0]]
    np.testing.assert_array_equal(exp_map_origin(v), want)
    np.testing.assert_array_equal(log_map_origin(v), want)


class TestDistance:
    def test_metric_axioms(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            x = random_ball_point(rng, dim, 0.95)
            y = random_ball_point(rng, dim, 0.95)
            z = random_ball_point(rng, dim, 0.95)
            dxy = distance(x, y)
            assert dxy >= 0.0
            assert abs(dxy - distance(y, x)) <= 1e-10
            assert distance(x, z) <= dxy + distance(y, z) + 1e-9
        x = random_ball_point(rng, 3, 0.95)
        assert distance(x, x) == 0.0

    def test_identity_of_indiscernibles(self):
        # d > 0 for distinct points at a scale the clamp cannot hide.
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = random_ball_point(rng, 3, 0.9)
            y = x + 1e-8 * np.ones(3)
            assert distance(x, y) > 0.0

    def test_origin_closed_form(self):
        # d(0, r e1) = 2 artanh(r), strictly increasing in r.
        prev = -1.0
        for r in np.linspace(0.1, 0.99, 90):
            d = distance(np.zeros(2), np.array([r, 0.0]))
            assert abs(d - 2.0 * np.arctanh(r)) <= 1e-9
            assert abs(d - distance_from_origin(r)) <= 1e-12
            assert d > prev
            prev = d

    def test_ln3_worked_example(self):
        assert abs(distance(np.zeros(2), np.array([0.5, 0.0])) - np.log(3.0)) <= 1e-12

    def test_boundary_blowup_ratio(self):
        num = distance(np.zeros(2), np.array([0.99, 0.0]))
        den = distance(np.zeros(2), np.array([0.9, 0.0]))
        assert abs(num / den - 1.7977) <= 1e-3

    @given(ball_pair(max_norm=0.95))
    def test_symmetry_property(self, pair):
        x, y = pair
        assert abs(distance(x, y) - distance(y, x)) <= 1e-10


class TestDistanceGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            x = random_ball_point(rng, dim, 0.95)
            y = random_ball_point(rng, dim, 0.95)
            if np.linalg.norm(x - y) < 1e-4:
                continue
            gx, gy = distance_grad(x, y)
            assert rel_err(gx, numeric_grad(lambda: distance(x, y), x)) < 1e-4
            assert rel_err(gy, numeric_grad(lambda: distance(x, y), y)) < 1e-4

    def test_argument_swap_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = random_ball_point(rng, 4, 0.9)
            y = random_ball_point(rng, 4, 0.9)
            gx, gy = distance_grad(x, y)
            gy2, gx2 = distance_grad(y, x)
            np.testing.assert_allclose(gx, gx2, atol=1e-12)
            np.testing.assert_allclose(gy, gy2, atol=1e-12)

    def test_zero_subgradient_at_coincidence(self):
        x = np.array([0.3, -0.2])
        gx, gy = distance_grad(x, x.copy())
        assert not gx.any() and not gy.any()


def separate_distance_and_grad(x, y):
    """Frozen reference: `distance` and then `distance_grad`, each
    recomputing the shared terms, as two separate kernels."""

    def terms(x, y):
        diff = x - y
        a = np.vecdot(diff, diff)
        b = 1.0 - np.vecdot(x, x)
        c = 1.0 - np.vecdot(y, y)
        return diff, a, b, c, 1.0 + 2.0 * a / (b * c)

    d = np.arccosh(np.maximum(terms(x, y)[-1], 1.0))
    diff, a, b, c, arg = terms(x, y)
    root = np.sqrt(np.maximum(arg * arg - 1.0, 0.0))
    common = np.divide(4.0, b * c * root, out=np.zeros_like(root), where=root >= 1e-12)
    gx = common[..., None] * (diff + (a / b)[..., None] * x)
    gy = common[..., None] * ((a / c)[..., None] * y - diff)
    return d, gx, gy


class TestDistanceAndGrad:
    """The tests' one-pass oracle, distance_and_grad, is bitwise the
    separate distance and gradient kernels, on the (B, 1+k, d) stage-one
    shape and on (n, d) rows."""

    @pytest.mark.parametrize("dim", [2, 5, 10])
    def test_stage_one_batch_shape(self, dim):
        rng = np.random.default_rng(150 + dim)
        points = np.stack([random_ball_point(rng, dim, 0.95) for _ in range(30)])
        points[7] = 0.0
        u = rng.integers(0, 30, size=10)
        others = rng.integers(0, 30, size=(10, 11))
        others[0, 3] = u[0]  # a negative equal to its parent: zero subgradient
        eu, ev = points[u][:, None, :], points[others]
        got = distance_and_grad(eu, ev)
        expected = separate_distance_and_grad(eu, ev)
        assert got[0].shape == (10, 11) and got[1].shape == got[2].shape == (10, 11, dim)
        for out, ref in zip(got, expected):
            np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(got[0], distance(eu, ev))
        for out, ref in zip(got[1:], distance_grad(eu, ev)):
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_row_pairs(self, dim):
        x, y = row_pairs(dim, seed=160 + dim)
        got = distance_and_grad(x, y)
        for out, ref in zip(got, separate_distance_and_grad(x, y)):
            np.testing.assert_array_equal(out, ref)
        d, gx, gy = distance_and_grad(x[5], y[5])
        assert isinstance(d, float) and d == distance(x[5], y[5])
        np.testing.assert_array_equal(gx, got[1][5])


class TestDistanceVjp:
    """Stage one's pair kernel: its distances are bitwise `distance`, and
    its VJP is the cotangent contracted against distance_and_grad's full
    (B, K, d) partials, up to the summation order of the parent's sum."""

    @staticmethod
    def batch(dim, seed, edge=True):
        """(x, y, g) for 10 pairs of 11: a zero point, with edge a point on
        the clamp radius, and a negative equal to its parent."""
        rng = np.random.default_rng(seed)
        points = np.stack([random_ball_point(rng, dim, 0.9) for _ in range(30)])
        points[7] = 0.0
        if edge:
            direction = rng.standard_normal(dim)
            points[8] = direction * (MAX_NORM / np.linalg.norm(direction))
        u = rng.integers(0, 30, size=10)
        others = rng.integers(0, 30, size=(10, 11))
        others[0, 3] = u[0]  # a negative equal to its parent: zero subgradient
        others[1, :3] = 7, 8, 7
        return points[u][:, None, :], points[others], rng.standard_normal((10, 11))

    @pytest.mark.parametrize("dim", [1, 2, 5, 10])
    def test_matches_full_partials(self, dim):
        x, y, g = self.batch(dim, seed=200 + dim)
        d, vjp = distance_vjp(x, y)
        gx, gy = vjp(g)
        ref_d, ref_gx, ref_gy = distance_and_grad(x, y)
        assert d.shape == g.shape and gx.shape == x.shape and gy.shape == y.shape
        np.testing.assert_array_equal(d, ref_d)
        np.testing.assert_array_equal(d, distance(x, y))
        # Measured at most 8.5e-16 relative over 300 such batches.
        assert rel_err(gx, np.matmul(g[:, None, :], ref_gx)) <= 1e-14
        assert rel_err(gy, ref_gy * g[..., None]) <= 1e-14
        assert not gy[0, 3].any()

    def test_matches_finite_differences(self):
        # Central differences of the coincident pair are 0 by symmetry,
        # which is its subgradient.
        x, y, g = self.batch(4, seed=210, edge=False)
        gx, gy = distance_vjp(x, y)[1](g)
        for arr, grad in ((x, gx), (y, gy)):
            numeric = numeric_grad(lambda: float(np.sum(g * distance(x, y))), arr)
            assert rel_err(grad, numeric) < 1e-4


class TestSlope:
    """_slope, the arcosh factor of both distance VJPs: 4 / (bc sqrt(arg^2 - 1))
    where that root is at least EPS_DIV, and exactly 0 where it is smaller.
    Every arg is at least 1, as `_terms` gives it for points inside the ball."""

    @pytest.mark.parametrize("eps_div", [EPS_DIV, 1e-7])
    def test_zero_below_the_threshold_and_the_arcosh_slope_above(self, eps_div, monkeypatch):
        # A float64 argument near 1 gives a root of 0 or at least ~1.5e-8,
        # so the root falls strictly between 0 and the threshold only when
        # the threshold is raised to 1e-7.
        monkeypatch.setattr(ball, "EPS_DIV", eps_div)
        rng = np.random.default_rng(270)
        near_one = [1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-15]
        arg = np.concatenate([near_one, [1e100], 1.0 + rng.exponential(2.0, 58)])
        bc = rng.uniform(1e-5, 1.0, arg.size)
        # The root from (arg - 1)(arg + 1), which has no cancellation near 1.
        root = np.sqrt((arg - 1.0) * (arg + 1.0))
        below = root < eps_div
        assert below[0] and not below.all()
        if eps_div > EPS_DIV:
            assert (below & (root > 0.0)).any()
        out = ball._slope(arg, bc)
        assert not out[below].any()
        np.testing.assert_allclose(out[~below], 4.0 / (bc * root)[~below], rtol=1e-13, atol=0)

    def test_the_threshold_itself_takes_the_arcosh_slope(self, monkeypatch):
        # arg 1.25 gives the exact root 0.75; at a threshold of 0.75 the
        # slope is 4 / (bc * 0.75), not the masked 0.
        monkeypatch.setattr(ball, "EPS_DIV", 0.75)
        assert ball._slope(np.array([1.25]), np.array([0.5]))[0] == 4.0 / (0.5 * 0.75)

    def test_nan_argument_gives_nan(self):
        # No caller passes a NaN: a point with a NaN coordinate raises in
        # project_to_ball first.
        arg, bc = np.array([np.nan, 2.0]), np.array([0.5, 0.5])
        out = ball._slope(arg, bc)
        assert np.isnan(out[0]) and out[1] == 4.0 / (0.5 * np.sqrt(3.0))


class TestExpOriginVjp:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            v = rng.standard_normal(dim) * rng.uniform(0.01, 2.0)
            g = rng.standard_normal(dim)
            analytic = exp_map_origin_vjp(v, g)
            numeric = numeric_grad(lambda: float(g @ exp_map_origin(v)), v)
            assert rel_err(analytic, numeric) < 1e-4

    def test_zero_limit_is_identity(self):
        g = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(exp_map_origin_vjp(np.zeros(3), g), g)

    @pytest.mark.parametrize("r", [6.2, 7.0, 9.0, 15.0])
    def test_past_the_clamp(self, r):
        # Past the clamp exp_0(v) = MAX_NORM u with u = v / ||v||, whose VJP
        # is (MAX_NORM / ||v||) (g - (u . g) u).
        rng = np.random.default_rng(41)
        v = rng.standard_normal(4)
        v *= r / np.linalg.norm(v)
        g = rng.standard_normal(4)
        u = v / r
        analytic = exp_map_origin_vjp(v, g)
        np.testing.assert_allclose(analytic, (MAX_NORM / r) * (g - (u @ g) * u), rtol=1e-12, atol=0)
        numeric = numeric_grad(lambda: float(g @ exp_map_origin(v)), v)
        assert rel_err(analytic, numeric) < 1e-4


class TestExpOriginDistance:
    """The weight path's kernel, d(exp_0(v), y) and its VJP in v, against
    the separate kernels it replaced: the distances bitwise, the VJP within
    rounding, since it scales by the cotangent before the sums that the
    full partial takes first. Against the slotted form it replaced in
    turn, distance_vjp on (B, 1, d) slots, both are bitwise."""

    @staticmethod
    def tangents(dim, seed, clamp):
        """Rows of v with a zero row, tiny and large rows, and, if clamp, a
        row whose exp_0 lies past MAX_NORM, so project_to_ball moves it."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((12, dim))
        v *= rng.uniform(0.01, 3.0, size=(12, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        v[3] = 0.0
        v[5] = 1e-14
        if clamp:
            v[8] *= 9.0 / np.linalg.norm(v[8])
            assert np.tanh(np.linalg.norm(v[8])) > MAX_NORM
        else:
            assert (np.tanh(np.linalg.norm(v, axis=1)) <= MAX_NORM).all()
        y = np.stack([random_ball_point(rng, dim, 0.95) for _ in range(12)])
        y[0] = exp_map_origin(v[0])  # coincident: the zero subgradient
        return v, y

    def test_a_row_shorter_than_eps_div_has_the_identity_jacobian(self):
        # exp_0 sends both rows to the origin, so dd/dz is the same; the
        # tiny row's gradient must be that dd/dz exactly, as the zero row's
        # is, with no term along v to fill its zero coordinate.
        v = np.array([[0.0, 0.0], [1e-13, 1e-13]])
        y = np.array([[0.0, 0.5], [0.0, 0.5]])
        _, vjp = exp_origin_distance_vjp(v, y)
        grad = vjp(np.ones(2))
        assert grad[1, 0] == 0.0 and grad[1, 1] != 0.0
        np.testing.assert_array_equal(grad[1], grad[0])

    @staticmethod
    def cotangent(seed):
        """A (12,) cotangent with negative and zero entries, which the loss's
        d total / d w = ce / n never has but a VJP must take, and nonzero on
        the zero row 3."""
        g = np.random.default_rng(seed).standard_normal(12)
        g[[6, 10]] = 0.0
        g[3] = -abs(g[3]) - 0.5
        return g

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_batch_matches_composed_kernels_bitwise(self, dim, clamp):
        v, y = self.tangents(dim, seed=170 + dim, clamp=clamp)
        g = self.cotangent(seed=175 + dim)
        d, vjp = exp_origin_distance_vjp(v, y)
        ref_d, ref_dv = composed_origin_distance_and_grad(v, y)
        np.testing.assert_array_equal(d, ref_d)
        dv = vjp(g)
        # Measured at most 2.4e-12, on the clamped row, and 6.8e-15 on the
        # others, with numpy 2.4.6.
        np.testing.assert_allclose(dv, g[:, None] * ref_dv, rtol=0, atol=1e-11)
        assert d[0] == 0.0 and not dv[0].any()
        assert (dv[3] != 0.0).any()  # a zero row still passes the gradient through

    @pytest.mark.parametrize("clamp", [False, True])
    def test_one_row_matches_composed_kernels_bitwise(self, clamp):
        v, y = self.tangents(4, seed=180, clamp=clamp)
        g = self.cotangent(seed=185)
        ref_d, ref_dv = composed_origin_distance_and_grad(v, y)
        for row in (1, 3, 5, 8):
            d, vjp = exp_origin_distance_vjp(v[[row]], y[[row]])
            assert d.shape == (1,) and d[0] == ref_d[row]
            # Measured at most 4.7e-13, on the clamped row, and 4.5e-16 on
            # the others, with numpy 2.4.6.
            np.testing.assert_allclose(vjp(g[[row]])[0], g[row] * ref_dv[row], rtol=0, atol=3e-11)

    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_matches_slotted_form_bitwise(self, dim):
        # Seeded batches with a zero row, tiny rows, rows at and past the
        # clamp radius (r ~ 6.1), coincident z == y rows (one of them past
        # the clamp) and a cotangent with zero and negative entries.
        rng = np.random.default_rng(260 + dim)
        radii = np.array([0.0, 1e-14, 0.3, 1.0, 2.5, 6.0, 6.2, 9.0, 15.0, 0.7, 1.5, 15.0])
        for _ in range(20):
            v = rng.standard_normal((12, dim))
            v *= radii[:, None] / np.linalg.norm(v, axis=1, keepdims=True)
            y = np.stack([random_ball_point(rng, dim, 0.95) for _ in radii])
            y[[0, 9, 11]] = exp_map_origin(v[[0, 9, 11]])
            g = rng.standard_normal(12)
            g[[1, 4]] = 0.0
            g[[3, 7, 9]] = -np.abs(g[[3, 7, 9]])
            d, vjp = exp_origin_distance_vjp(v, y)
            ref_d, ref_vjp = slotted_exp_origin_distance_vjp(v, y)
            np.testing.assert_array_equal(d, ref_d)
            np.testing.assert_array_equal(vjp(g), ref_vjp(g))
            assert not d[[0, 9, 11]].any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(190)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            v = rng.standard_normal((1, dim)) * rng.uniform(0.01, 2.0)
            y = random_ball_point(rng, dim, 0.9)[None]
            analytic = exp_origin_distance_vjp(v, y)[1](np.ones(1))
            numeric = numeric_grad(lambda: distance(exp_map_origin(v), y)[0], v)
            assert rel_err(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_cotangent_matches_finite_differences(self, dim):
        # The VJP of g is the gradient of g . d, row by row, for a
        # cotangent with zero and negative entries, over zero rows, tiny
        # rows and rows on both sides of the clamp radius (r ~ 6.1).
        rng = np.random.default_rng(200 + dim)
        v = rng.standard_normal((10, dim))
        radii = [0.0, 1e-14, 0.3, 1.0, 2.5, 6.0, 6.2, 7.0, 9.0, 15.0]
        v *= np.array(radii)[:, None] / np.linalg.norm(v, axis=1, keepdims=True)
        y = np.stack([random_ball_point(rng, dim, 0.95) for _ in radii])
        g = rng.standard_normal(10)
        g[[2, 7]] = 0.0
        g[[0, 6]] = -np.abs(g[[0, 6]])
        dv = exp_origin_distance_vjp(v, y)[1](g)
        # eps 1e-5: rounding of a clamped norm moves d by ~5e-12, which the
        # default 1e-6 step turns into up to 2e-4 of a clamped row's gradient.
        numeric = numeric_grad(lambda: float(g @ distance(exp_map_origin(v), y)), v, eps=1e-5)
        for row, (got, want) in enumerate(zip(dv, numeric)):
            # The floor admits rounding where the gradient is 0, as on a
            # clamped row of dimension 1 (measured 7.3e-12).
            assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want) + 1e-9, row
        assert not dv[[2, 7]].any()


class TestProject:
    def test_inside_unchanged(self):
        p = np.array([0.5, 0.0])
        assert project_to_ball(p) is not None
        np.testing.assert_array_equal(project_to_ball(p), p)
        np.testing.assert_array_equal(project_to_ball(np.zeros(3)), np.zeros(3))

    def test_outside_rescaled(self):
        np.testing.assert_allclose(
            project_to_ball(np.array([2.0, 0.0])), [1.0 - EPS_BALL, 0.0], atol=1e-15
        )

    def test_idempotent(self):
        # Idempotent to one ulp: the radial rescale can land a hair above
        # MAX_NORM and get rescaled once more by a factor of 1 - 2e-16.
        rng = np.random.default_rng(50)
        for _ in range(200):
            p = rng.standard_normal(3) * rng.uniform(0, 3)
            once = project_to_ball(p)
            np.testing.assert_allclose(project_to_ball(once), once, rtol=0, atol=1e-15)
            assert np.linalg.norm(once) <= MAX_NORM * (1.0 + 1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_to_ball(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            project_to_ball(np.array([np.inf, 1.0]))

    def test_rejects_a_norm_that_overflows(self):
        # Finite components whose squared norm overflows: rescaling by
        # MAX_NORM / inf would return the origin.
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite norm"):
            project_to_ball(np.array([[1e200, 1e200]]))


def test_conformal_factor():
    assert conformal_factor(np.zeros(2)) == 2.0
    assert abs(conformal_factor(np.array([0.5, 0.0])) - 2.0 / 0.75) <= 1e-15


def mixed_rows(dim, seed):
    """A batch mixing interior points, zero rows, near-boundary rows and
    rows outside the ball."""
    rng = np.random.default_rng(seed)
    rows = [random_ball_point(rng, dim, 0.95) for _ in range(6)]
    rows.append(np.zeros(dim))
    edge = rng.standard_normal(dim)
    rows.append(edge * (MAX_NORM / np.linalg.norm(edge)))
    rows.append(rng.standard_normal(dim) * 3.0)
    rows.append(np.full(dim, 1e-14))
    return np.stack(rows)


class TestBatchedKernels:
    """Every (n, d) kernel agrees with a loop of 1-D calls, and 1-D calls
    keep their scalar return types."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_project_matches_rows(self, dim):
        batch = mixed_rows(dim, seed=60 + dim)
        out = project_to_ball(batch)
        for row, got in zip(batch, out):
            np.testing.assert_allclose(got, project_to_ball(row), rtol=0, atol=1e-12)
        inside = np.linalg.norm(batch, axis=1) <= MAX_NORM
        np.testing.assert_array_equal(out[inside], batch[inside])

    @pytest.mark.parametrize("dim", [2, 5])
    def test_distance_and_grad_match_rows(self, dim):
        rng = np.random.default_rng(70 + dim)
        x = project_to_ball(mixed_rows(dim, seed=71))
        y = np.stack([random_ball_point(rng, dim, 0.95) for _ in x])
        y[:3] = x[:3]  # x == y
        y[6] = 0.0  # x[6] is the zero row, so both points sit at the origin
        d = distance(x, y)
        gx, gy = distance_grad(x, y)
        assert d.shape == (len(x),) and gx.shape == gy.shape == x.shape
        for i in range(len(x)):
            assert abs(d[i] - distance(x[i], y[i])) <= 1e-12
            rx, ry = distance_grad(x[i], y[i])
            np.testing.assert_allclose(gx[i], rx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gy[i], ry, rtol=1e-12, atol=1e-12)
        assert not gx[:3].any() and not gy[:3].any()

    def test_distance_broadcasts_one_point_against_many(self):
        rng = np.random.default_rng(80)
        u = random_ball_point(rng, 4, 0.9)
        others = np.stack([random_ball_point(rng, 4, 0.9) for _ in range(7)] + [u])
        d = distance(u, others)
        gu, go = distance_grad(u, others)
        for i, row in enumerate(others):
            assert abs(d[i] - distance(u, row)) <= 1e-12
            ru, ro = distance_grad(u, row)
            np.testing.assert_allclose(gu[i], ru, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(go[i], ro, rtol=1e-12, atol=1e-12)
        assert d[-1] == 0.0

    def test_one_dimensional_calls_return_floats(self):
        x, y = np.array([0.1, 0.2]), np.array([-0.3, 0.0])
        assert type(distance(x, y)) is float
        assert distance_grad(x, y)[0].shape == (2,)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_exp_origin_and_vjp_match_rows(self, dim):
        rng = np.random.default_rng(90 + dim)
        v = np.concatenate([mixed_rows(dim, seed=91), rng.standard_normal((3, dim)) * 8.0])
        g = rng.standard_normal(v.shape)
        out = exp_map_origin(v)
        vjp = exp_map_origin_vjp(v, g)
        for i in range(len(v)):
            np.testing.assert_allclose(out[i], exp_map_origin(v[i]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(vjp[i], exp_map_origin_vjp(v[i], g[i]), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(vjp[6], g[6])  # zero row: identity

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_log_origin_matches_log_map_at_zero(self, dim):
        # The tangent export's call: the origin's log map of a batch of points.
        batch = mixed_rows(dim, seed=100 + dim)
        out = log_map_origin(batch)
        for row, got in zip(batch, out):
            expected = log_map(np.zeros(dim), row)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_log_origin_inverts_exp_origin(self):
        rng = np.random.default_rng(110)
        v = rng.standard_normal((50, 3)) * rng.uniform(0, 3, size=(50, 1))
        np.testing.assert_allclose(log_map_origin(exp_map_origin(v)), v, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_log_origin_is_bitwise_log_map_at_zero(self, dim):
        # Interior, zero, -0.0, near-boundary, outside and tiny rows.
        batch = np.concatenate([mixed_rows(dim, seed=120 + dim), np.full((1, dim), -0.0)])
        expected = log_map(np.zeros(dim), batch)
        assert log_map_origin(batch).tobytes() == expected.tobytes()
        for row, want in zip(batch, expected):
            assert log_map_origin(row).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda v: exp_map(np.array([[1e-3, 0.0, 0.0]]), v),
            exp_map_origin,
            lambda v: exp_origin_distance_vjp(v, np.zeros((1, 3))),
            log_map_origin,
        ],
        ids=["exp_map", "exp_map_origin", "exp_origin_distance_vjp", "log_map_origin"],
    )
    def test_overflowing_norm_raises(self, kernel):
        # A tangent norm of 1.4e160 squares past float64's range: tanh(r) / r
        # would be 0, and exp_map would return its start point unmoved.
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite norm"):
            kernel(np.array([[1e160, 1e160, 0.0]]))


def row_pairs(dim, seed):
    """(x, y) batches whose rows mix interior points, zero rows, x == y
    rows, y == -x rows and rows on the clamp radius."""
    rng = np.random.default_rng(seed)
    x = mixed_rows(dim, seed)[:-2]  # drop the outside row and the tiny one
    y = np.stack([random_ball_point(rng, dim, 0.95) for _ in x])
    y[:2] = x[:2]  # x == y
    y[2] = -x[2]
    y[3] = 0.0
    edge = rng.standard_normal(dim)
    y[4] = edge * (MAX_NORM / np.linalg.norm(edge))
    return x, y


class TestBatchedStageOneKernels:
    """The kernels of the Riemannian Adam step agree with a loop of 1-D
    calls on batches mixing zero, x == y and boundary rows."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_mobius_add_matches_rows(self, dim):
        x, y = row_pairs(dim, seed=120 + dim)
        out = mobius_add(x, y)
        assert out.shape == x.shape
        for i in range(len(x)):
            np.testing.assert_allclose(out[i], mobius_add(x[i], y[i]), rtol=0, atol=1e-12)
        # One point against many broadcasts like the row-by-row call.
        many = mobius_add(x[5], y)
        for i in range(len(y)):
            np.testing.assert_allclose(many[i], mobius_add(x[5], y[i]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_exp_and_log_match_rows(self, dim):
        rng = np.random.default_rng(130 + dim)
        x, y = row_pairs(dim, seed=131 + dim)
        v = rng.standard_normal(x.shape) * rng.uniform(0, 3, size=(len(x), 1))
        v[1] = 0.0
        v[2] = 1e-14
        out_exp = exp_map(x, v)
        out_log = log_map(x, y)
        for i in range(len(x)):
            np.testing.assert_allclose(out_exp[i], exp_map(x[i], v[i]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(out_log[i], log_map(x[i], y[i]), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out_exp[1], x[1])  # zero tangent: x itself
        np.testing.assert_array_equal(out_log[:2], 0.0)  # x == y: zero vector

    @pytest.mark.parametrize("dim", [2, 4])
    def test_conformal_factor_and_riemannian_grad_match_rows(self, dim):
        rng = np.random.default_rng(140 + dim)
        x, _ = row_pairs(dim, seed=141 + dim)
        g = rng.standard_normal(x.shape)
        lam = conformal_factor(x)
        rg = riemannian_grad(x, g)
        assert lam.shape == (len(x),) and rg.shape == x.shape
        for i in range(len(x)):
            assert abs(lam[i] - conformal_factor(x[i])) <= 1e-12 * lam[i]
            np.testing.assert_allclose(rg[i], riemannian_grad(x[i], g[i]), rtol=0, atol=1e-12)
            # g^-1 = 1 / lambda^2 of the conformal metric.
            np.testing.assert_allclose(rg[i], g[i] / lam[i] ** 2, rtol=1e-9, atol=0)


class TestClosedFormExpMap:
    """exp_map's closed form from ||x||^2, <x,v> and ||v|| is the Mobius
    composition x (+) tanh(lambda_x ||v|| / 2) v / ||v|| up to rounding."""

    @staticmethod
    def batch(dim, seed):
        """(x, v): interior, zero, clamp-radius and past-the-clamp points,
        with random, zero, tiny and huge tangents; the rows past the clamp
        step outward, so the final projection clamps them again. (An
        inward step from past the clamp whose tanh saturates at 1 divides
        by about (1 - ||x||)^2 ~ 1e-12, where both forms are rounding noise.)"""
        rng = np.random.default_rng(seed)
        x = np.concatenate([mixed_rows(dim, seed)[:-2], mixed_rows(dim, seed + 1)[:-2]])
        edge = rng.standard_normal((2, dim))
        x[-2:] = edge * ((MAX_NORM + 5e-6) / np.linalg.norm(edge, axis=1, keepdims=True))
        v = rng.standard_normal(x.shape) * rng.uniform(0, 3, size=(len(x), 1))
        v[1] = 0.0
        v[6] = 0.0  # the zero point with a zero tangent
        v[2] = 1e-14
        v[3] *= 1e3
        v[4] *= 1e100
        v[9] *= 1e150 / np.linalg.norm(v[9])
        v[10] = -30.0 * x[10]
        v[-2:] = x[-2:] * rng.uniform(0.01, 3.0, size=(2, 1))
        return x, v

    @pytest.mark.parametrize("dim", [1, 2, 5, 10])
    def test_matches_mobius_composition(self, dim):
        for seed in range(220 + dim, 260 + dim):
            x, v = self.batch(dim, seed)
            out = exp_map(x, v)
            # Measured at most 2.1e-14 over these batches.
            np.testing.assert_allclose(out, composed_exp_map(x, v), rtol=0, atol=1e-12)
            assert (norms(out) <= MAX_NORM * (1.0 + 1e-15)).all()
            # A zero row of v returns the point itself, bit for bit.
            np.testing.assert_array_equal(out[[1, 6]], x[[1, 6]])

    def test_point_at_the_clamp_stepping_inward(self):
        # The stage-one case with the least room: a clamped point, whose
        # lambda_x saturates tanh at 1, stepped toward the origin.
        for dim in (1, 2, 10):
            x = np.full((1, dim), MAX_NORM / np.sqrt(dim))
            for scale in (1e-3, 1e-2, 1.0):
                np.testing.assert_allclose(
                    exp_map(x, -scale * x), composed_exp_map(x, -scale * x), rtol=0, atol=1e-12
                )


# Finite entries of magnitude up to 1e300; hypothesis spreads them over
# the float exponents, down to subnormals, so a row's norm can underflow
# or pass float64's squared range (about 1.3e154).
ENTRIES = st.floats(-1e300, 1e300)


@st.composite
def raw_rows(draw, n, dim):
    """(n, dim) tangent vectors of ENTRIES."""
    return np.array(draw(st.lists(ENTRIES, min_size=n * dim, max_size=n * dim))).reshape(n, dim)


@st.composite
def ball_rows(draw, n, dim):
    """(n, dim) projected ball points: raw rows scaled to a peak entry of
    at most 10, then clamped into the ball as every caller does."""
    rows = draw(raw_rows(n, dim))
    peak = np.abs(rows).max(axis=1, keepdims=True)
    scale = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))[:, None]
    return project_to_ball(np.divide(rows, peak, out=np.zeros_like(rows), where=peak > 0) * scale)


def shape(data):
    return data.draw(st.integers(1, 3)), data.draw(st.sampled_from([1, 2, 5]))


def norms(rows):
    """Row norms without overflow: math.hypot scales before squaring."""
    return np.array([math.hypot(*row) for row in rows])


def finite_or_raises(kernel, *args):
    """kernel(*args), or None where it raises NumericalError."""
    with np.errstate(all="ignore"):
        try:
            return kernel(*args)
        except NumericalError:
            return None


def distance_vjp_of_ones(x, y):
    """distance_vjp of (n, d) rows as n pairs of one point each, and its
    VJP of a cotangent of ones."""
    d, vjp = distance_vjp(x[:, None], y[:, None])
    return d, *vjp(np.ones_like(d))


def exp_origin_distance_vjp_of_ones(v, y):
    """exp_origin_distance_vjp of (n, d) rows and its VJP of a cotangent of
    ones."""
    d, vjp = exp_origin_distance_vjp(v, y)
    return d, vjp(np.ones_like(d))


def assert_in_ball(points):
    assert np.isfinite(points).all()
    assert (norms(points) < 1.0).all()


# A tangent norm at least this far past float64's squared range (about
# 1.3e154) must move a step's start point or raise.
HUGE_STEP = 1e160


class TestExtremeMagnitudes:
    """Each kernel, at magnitudes up to 1e300 and d of 1, 2 and 5, returns
    finite values (points inside the ball) or raises NumericalError. Raw
    tangent vectors go to the kernels that take them; the others get
    projected ball points, the only input their callers pass."""

    @settings(deadline=None)
    @given(data=st.data())
    def test_tangent_vector_kernels(self, data):
        n, dim = shape(data)
        x, y = data.draw(ball_rows(n, dim)), data.draw(ball_rows(n, dim))
        v = data.draw(raw_rows(n, dim))
        huge = norms(v) >= HUGE_STEP
        out = finite_or_raises(exp_map, x, v)
        if out is not None:
            assert_in_ball(out)
            assert not np.all(out[huge] == x[huge], axis=1).any(), "exp_map"
        out = finite_or_raises(exp_map_origin, v)
        if out is not None:
            assert_in_ball(out)
            assert np.any(out[huge] != 0.0, axis=1).all(), "exp_map_origin"
        out = finite_or_raises(exp_origin_distance_vjp_of_ones, v, y)
        if out is not None:
            assert all(np.isfinite(part).all() for part in out), "exp_origin_distance_vjp"
        out = finite_or_raises(log_map_origin, v)
        if out is not None:
            assert np.isfinite(out).all(), "log_map_origin"
        out = finite_or_raises(project_to_ball, v)
        if out is not None:
            assert_in_ball(out)

    @settings(deadline=None)
    @given(data=st.data())
    def test_ball_point_kernels(self, data):
        n, dim = shape(data)
        x, y = data.draw(ball_rows(n, dim)), data.draw(ball_rows(n, dim))
        g = data.draw(raw_rows(n, dim))
        out = finite_or_raises(mobius_add, x, y)
        if out is not None:
            assert_in_ball(out)
        out = finite_or_raises(distance_and_grad, x, y)
        if out is not None:
            assert all(np.isfinite(part).all() for part in out), "distance_and_grad"
        out = finite_or_raises(distance_vjp_of_ones, x, y)
        if out is not None:
            assert all(np.isfinite(part).all() for part in out), "distance_vjp"
        out = finite_or_raises(riemannian_grad, x, g)
        if out is not None:
            assert np.isfinite(out).all(), "riemannian_grad"
