"""Riemannian SGD/Adam on ball parameters and Euclidean Adam."""

import numpy as np
import pytest

from helpers import rel_err
from hyperclass.ball import MAX_NORM, distance, distance_grad, random_ball_point
from hyperclass.optim import Adam, AdamState, radam_step, riemannian_grad, rsgd_step


def dist_sq_grad(theta, target):
    d = distance(theta, target)
    gx, _ = distance_grad(theta, target)
    return d * d, 2.0 * d * gx


class TestRiemannianGrad:
    def test_origin_factor(self):
        g = np.array([1.0, -2.0])
        np.testing.assert_allclose(riemannian_grad(np.zeros(2), g), g / 4.0, atol=1e-15)

    def test_half_radius_factor(self):
        g = np.array([2.0, 4.0])
        out = riemannian_grad(np.array([0.5, 0.0]), g)
        np.testing.assert_allclose(out, 0.140625 * g, atol=1e-15)

    def test_vanishes_at_boundary(self):
        theta = np.array([1.0 - 1e-5, 0.0])
        g = np.array([1.0, 1.0])
        assert np.linalg.norm(riemannian_grad(theta, g)) < 1e-9 * np.linalg.norm(g)


class TestRsgd:
    def test_zero_gradient_fixed_point(self):
        theta = np.array([0.2, -0.3])
        np.testing.assert_array_equal(rsgd_step(theta, np.zeros(2), 0.1), theta)

    def test_origin_worked_example(self):
        out = rsgd_step(np.zeros(2), np.array([1.0, 0.0]), lr=0.1)
        np.testing.assert_allclose(out, [-np.tanh(0.025), 0.0], atol=1e-12)

    def test_descent_on_distance_squared(self):
        # One lr=0.01 step on d(theta, target)^2 should not increase the
        # objective in at least 99 of 100 random instances.
        rng = np.random.default_rng(0)
        ok = 0
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            theta = random_ball_point(rng, dim, 0.9)
            target = random_ball_point(rng, dim, 0.9)
            f0, g = dist_sq_grad(theta, target)
            f1, _ = dist_sq_grad(rsgd_step(theta, g, lr=0.01), target)
            ok += f1 <= f0 + 1e-12
        assert ok >= 99

    def test_stays_in_ball(self):
        rng = np.random.default_rng(1)
        theta = random_ball_point(rng, 3, 0.99)
        for _ in range(50):
            theta = rsgd_step(theta, rng.standard_normal(3) * 100.0, lr=1.0)
            assert np.linalg.norm(theta) <= MAX_NORM * (1.0 + 1e-15)


class TestRadam:
    def test_zero_gradient_never_moves(self):
        state = AdamState(lr=0.05)
        theta = np.array([0.1, 0.4])
        for _ in range(20):
            theta2 = radam_step(state, theta, np.zeros(2))
            np.testing.assert_array_equal(theta2, theta)
            theta = theta2
        assert state.step_count == 20

    def test_first_step_magnitude(self):
        # At t=1 bias correction makes m_hat the rescaled grad and v_hat its
        # square, so the tangent step is -lr * sign(g) up to eps.
        state = AdamState(lr=0.01)
        g = np.array([3.0, -0.5])
        out = radam_step(state, np.zeros(2), g)
        expected_dir = -0.01 * np.sign(g) / (1.0 + 0.0)
        # exp map at origin: tanh(||step||) * unit(step)
        r = np.linalg.norm(expected_dir)
        np.testing.assert_allclose(out, np.tanh(r) * expected_dir / r, rtol=1e-6)

    def test_convergence_to_target(self):
        # 500 steps of lr=0.01 on d(theta, target)^2 reach d < 1e-3.
        rng = np.random.default_rng(2)
        for trial in range(10):
            dim = int(rng.integers(2, 8))
            theta = random_ball_point(rng, dim, 0.8)
            target = random_ball_point(rng, dim, 0.8)
            state = AdamState(lr=0.01)
            for _ in range(500):
                _, g = dist_sq_grad(theta, target)
                theta = radam_step(state, theta, g)
            assert distance(theta, target) < 1e-3

    def test_deterministic(self):
        g = np.array([0.3, 0.7, -0.2])
        outs = []
        for _ in range(2):
            state = AdamState(lr=0.02)
            theta = np.array([0.1, -0.2, 0.05])
            for _ in range(10):
                theta = radam_step(state, theta, g * state.step_count)
            outs.append(theta)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_lr_override_used_for_single_step(self):
        state_a = AdamState(lr=0.01)
        state_b = AdamState(lr=1e9)  # ignored when lr= is passed
        theta = np.array([0.2, 0.1])
        g = np.array([1.0, -1.0])
        a = radam_step(state_a, theta, g)
        b = radam_step(state_b, theta, g, lr=0.01)
        np.testing.assert_array_equal(a, b)

    def test_stays_in_ball_under_huge_gradients(self):
        rng = np.random.default_rng(3)
        state = AdamState(lr=0.5)
        theta = np.zeros(4)
        for _ in range(100):
            theta = radam_step(state, theta, rng.standard_normal(4) * 1e3)
            assert np.linalg.norm(theta) <= MAX_NORM * (1.0 + 1e-15)

    def test_moment_shapes_and_step_count(self):
        state = AdamState(lr=0.01)
        theta = np.zeros(7)
        radam_step(state, theta, np.ones(7))
        assert state.m.shape == (7,) and state.v.shape == (7,)
        assert state.step_count == 1


class TestEuclideanAdam:
    def test_minimizes_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        params = {"x": np.zeros(3)}
        opt = Adam(params, lr=0.05)
        for _ in range(500):
            opt.step({"x": 2.0 * (params["x"] - target)})
        assert rel_err(params["x"], target) < 1e-4

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            params = {"b": np.ones(2), "a": np.full(2, -1.0)}
            opt = Adam(params, lr=0.01)
            for t in range(20):
                opt.step({"a": params["a"] * 0.1 + t, "b": params["b"] * 0.2 - t})
            results.append((params["a"].copy(), params["b"].copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_weight_decay_is_decoupled(self):
        # Zero gradient: decay shrinks the parameter toward 0 regardless of
        # moment state.
        params = {"x": np.array([1.0])}
        opt = Adam(params, lr=0.1, weight_decay=0.5)
        opt.step({"x": np.zeros(1)})
        np.testing.assert_allclose(params["x"], [1.0 - 0.1 * 0.5 * 1.0], atol=1e-15)

    def test_updates_in_place(self):
        params = {"x": np.zeros(2)}
        view = params["x"]
        opt = Adam(params, lr=0.1)
        opt.step({"x": np.ones(2)})
        assert view is params["x"] and view[0] != 0.0

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_update_is_bitwise_textbook_adam(self, weight_decay):
        # Reference: the out-of-place expressions, one temporary per term.
        rng = np.random.default_rng(4)
        shapes = {"emb": (40, 6), "w": (6, 3), "b": (3,)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = {k: v.copy() for k, v in start.items()}
        ref = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=weight_decay)
        for t in range(1, 60):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-5, 2) for k, s in shapes.items()}
            grads["emb"][rng.random(40) < 0.7] = 0.0  # mostly untouched rows
            opt.step(grads)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                if weight_decay:
                    ref[k] -= lr * weight_decay * ref[k]
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in shapes:
            np.testing.assert_array_equal(params[k], ref[k])
            np.testing.assert_array_equal(opt.m[k], m[k])
            np.testing.assert_array_equal(opt.v[k], v[k])
