"""Poincare ball geometry: algebraic identities, exp/log round trips,
metric axioms, closed forms, and analytic gradients vs finite differences."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import numeric_grad, rel_err
from hyperclass.ball import (
    EPS_BALL,
    MAX_NORM,
    conformal_factor,
    distance,
    distance_from_origin,
    distance_grad,
    exp_map,
    exp_map_origin,
    exp_map_origin_vjp,
    log_map,
    log_map_origin,
    mobius_add,
    project_to_ball,
    random_ball_point,
)

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
        batch = mixed_rows(dim, seed=100 + dim)
        out = log_map_origin(batch)
        for row, got in zip(batch, out):
            expected = log_map(np.zeros(dim), row)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(log_map_origin(row), expected, rtol=1e-12, atol=1e-12)

    def test_log_origin_inverts_exp_origin(self):
        rng = np.random.default_rng(110)
        v = rng.standard_normal((50, 3)) * rng.uniform(0, 3, size=(50, 1))
        np.testing.assert_allclose(log_map_origin(exp_map_origin(v)), v, rtol=0, atol=1e-9)
