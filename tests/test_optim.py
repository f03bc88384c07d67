"""Riemannian SGD, and Adam on ball parameters (through the exponential
map) and Euclidean ones."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import PARAM_ATOL, distance_grad, rel_err
from hyperclass.ball import MAX_NORM, distance, exp_map, random_ball_point, riemannian_grad
from hyperclass import optim
from hyperclass.optim import BETA1, BETA2, RESCALE_STEPS, Adam, FlatParams


def dist_sq_grad(theta, target):
    d = distance(theta, target)
    gx, _ = distance_grad(theta, target)
    return d * d, 2.0 * d * gx


def riemannian_sgd(theta, euclid_grad, lr):
    """One Riemannian SGD step, exp_theta(-lr * riemannian_grad), from the ball kernels."""
    return exp_map(theta, -lr * riemannian_grad(theta, euclid_grad))


def ball_adam(points, lr):
    """An Adam over the rows of a copy of the (n, d) `points` that retracts
    through the exponential map, as stage one builds it, and the view of
    its points."""
    params = FlatParams({"x": np.array(points, dtype=float, ndmin=2)})
    x = params["x"]

    def exp_step(flat, a):
        x[...] = exp_map(x, -a.reshape(x.shape))

    return Adam(params, lr, retract=exp_step), x


def radam_step(opt, rows, euclid_grad):
    """One step of `opt` (from ball_adam) on the distinct `rows`, with their
    Euclidean gradients rescaled by the inverse metric, as stage one does."""
    x = opt.params["x"]
    opt.step({"x": riemannian_grad(x[rows], euclid_grad)}, rows)


def textbook_radam(start, steps):
    """Reference: textbook dense Riemannian Adam over the rows of `start`,
    from (rows, euclidean grads, lr) steps. Every row takes every step,
    with a zero gradient where the step names no gradient, and bias
    correction counts the steps of the whole run. Returns (points, m, v)."""
    theta = np.array(start, dtype=float)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t, (rows, grads, lr) in enumerate(steps, start=1):
        g = np.zeros_like(theta)
        for row, grad in zip(rows, grads):
            g[row] = grad * (1.0 - theta[row] @ theta[row]) ** 2 / 4.0
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        for row in range(len(theta)):
            theta[row] = exp_map(theta[row], -lr * m_hat[row] / (np.sqrt(v_hat[row]) + eps))
    return theta, m, v


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
        np.testing.assert_array_equal(riemannian_sgd(theta, np.zeros(2), 0.1), theta)

    def test_origin_worked_example(self):
        out = riemannian_sgd(np.zeros(2), np.array([1.0, 0.0]), lr=0.1)
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
            f1, _ = dist_sq_grad(riemannian_sgd(theta, g, lr=0.01), target)
            ok += f1 <= f0 + 1e-12
        assert ok >= 99

    def test_stays_in_ball(self):
        rng = np.random.default_rng(1)
        theta = random_ball_point(rng, 3, 0.99)
        for _ in range(50):
            theta = riemannian_sgd(theta, rng.standard_normal(3) * 100.0, lr=1.0)
            assert np.linalg.norm(theta) <= MAX_NORM * (1.0 + 1e-15)


ROW0 = np.array([0])


class TestRadam:
    """Adam through the exponential map on the rows of a matrix of ball
    points: stage one's Riemannian Adam."""

    def test_zero_gradient_never_moves(self):
        opt, x = ball_adam([[0.1, 0.4]], lr=0.05)
        start = x.copy()
        for _ in range(20):
            radam_step(opt, ROW0, np.zeros((1, 2)))
            np.testing.assert_array_equal(x, start)
        assert opt.t == 20

    def test_first_step_magnitude(self):
        # At t=1 bias correction makes m_hat the rescaled grad and v_hat its
        # square, so the tangent step is -lr * sign(g) up to eps.
        opt, x = ball_adam(np.zeros((1, 2)), lr=0.01)
        g = np.array([3.0, -0.5])
        radam_step(opt, ROW0, g[None, :])
        expected_dir = -0.01 * np.sign(g) / (1.0 + 0.0)
        # exp map at origin: tanh(||step||) * unit(step)
        r = np.linalg.norm(expected_dir)
        np.testing.assert_allclose(x[0], np.tanh(r) * expected_dir / r, rtol=1e-6)

    def test_convergence_to_target(self):
        # 500 steps of lr=0.01 on d(theta, target)^2 reach d < 1e-3.
        rng = np.random.default_rng(2)
        for trial in range(10):
            dim = int(rng.integers(2, 8))
            opt, x = ball_adam([random_ball_point(rng, dim, 0.8)], lr=0.01)
            target = random_ball_point(rng, dim, 0.8)
            for _ in range(500):
                _, g = dist_sq_grad(x[0], target)
                radam_step(opt, ROW0, g[None, :])
            assert distance(x[0], target) < 1e-3

    def test_deterministic(self):
        g = np.array([0.3, 0.7, -0.2])
        outs = []
        for _ in range(2):
            opt, x = ball_adam([[0.1, -0.2, 0.05]], lr=0.02)
            for _ in range(10):
                radam_step(opt, ROW0, (g * opt.t)[None, :])
            outs.append(x[0].copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_lr_override_used_for_single_step(self):
        # The learning rate may be set between steps, as stage one's burn-in
        # does: at equal moments a step of twice the lr moves twice as far.
        start = [[0.2, 0.1]]
        opt_a, x_a = ball_adam(start, lr=0.01)
        opt_b, x_b = ball_adam(start, lr=0.01)
        opt_b.lr = 0.02
        g = np.array([[1.0, -1.0]])
        radam_step(opt_a, ROW0, g)
        radam_step(opt_b, ROW0, g)
        np.testing.assert_array_equal(opt_a.m["x"], opt_b.m["x"])
        moved_a, moved_b = distance(start[0], x_a[0]), distance(start[0], x_b[0])
        assert moved_b == pytest.approx(2 * moved_a, rel=1e-9)

    def test_stays_in_ball_under_huge_gradients(self):
        rng = np.random.default_rng(3)
        opt, x = ball_adam(np.zeros((3, 4)), lr=0.5)
        for _ in range(100):
            rows = np.flatnonzero(rng.random(3) < 0.7)
            radam_step(opt, rows, rng.standard_normal((len(rows), 4)) * 1e3)
            assert np.linalg.norm(x, axis=1).max() <= MAX_NORM * (1.0 + 1e-15)

    def test_moment_shapes_and_step_count(self):
        # One step count for the whole table; a touched row keeps moving on
        # its momentum at steps that do not touch it, and a row no step has
        # touched stays where it started.
        opt, x = ball_adam(np.zeros((5, 7)), lr=0.01)
        radam_step(opt, np.array([1, 3]), np.ones((2, 7)))
        assert opt.m["x"].shape == (5, 7) and opt.v["x"].shape == (5, 7)
        assert opt.t == 1
        after_one = x.copy()
        radam_step(opt, np.array([1]), np.ones((1, 7)))
        assert opt.t == 2
        assert (x[3] != after_one[3]).all()
        assert not x[[0, 2, 4]].any()

    def test_updates_points_in_place(self):
        opt, x = ball_adam(np.zeros((3, 2)), lr=0.1)
        radam_step(opt, np.array([2]), np.ones((1, 2)))
        assert x is opt.params["x"] and np.shares_memory(x, opt.params.flat)
        assert x[2].any() and not x[:2].any()

    @staticmethod
    def assert_textbook(opt, x, steps, start):
        ref, m, v = textbook_radam(start, steps)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(opt.m["x"] * BETA1**opt.s, m, rtol=1e-12)
        np.testing.assert_allclose(opt.v["x"] * BETA2**opt.s, v, rtol=1e-12)

    def test_rows_match_textbook_per_point_adam(self):
        # Random row subsets, a learning rate lowered for the first steps as
        # in the burn-in, and gradients over seven decades; row 0 is never
        # touched and keeps its start value bitwise.
        rng = np.random.default_rng(4)
        n, dim, lr = 9, 4, 0.05
        start = np.stack([random_ball_point(rng, dim, 0.9) for _ in range(n)])
        opt, x = ball_adam(start, lr)
        steps = []
        for step in range(80):
            rows = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False))
            grads = rng.standard_normal((len(rows), dim)) * 10.0 ** rng.uniform(-5, 2)
            opt.lr = lr * 0.1 if step < 10 else lr
            radam_step(opt, rows, grads)
            steps.append((rows, grads, opt.lr))
        assert opt.t == 80
        self.assert_textbook(opt, x, steps, start)
        np.testing.assert_array_equal(x[0], start[0])

    def test_rows_match_textbook_adam_across_rescales(self, monkeypatch):
        # Every 7 steps the scaled moments are multiplied back; steps 22-24
        # touch no row at all.
        monkeypatch.setattr(optim, "RESCALE_STEPS", 7)
        rng = np.random.default_rng(7)
        n, dim = 6, 3
        start = np.stack([random_ball_point(rng, dim, 0.5) for _ in range(n)])
        opt, x = ball_adam(start, lr=0.03)
        steps = []
        for step in range(40):
            rows = np.flatnonzero(rng.random(n) < (0.0 if 22 <= step < 25 else 0.5))
            grads = rng.standard_normal((len(rows), dim))
            radam_step(opt, rows, grads)
            steps.append((rows, grads, opt.lr))
        assert opt.s == 40 - 5 * 7
        self.assert_textbook(opt, x, steps, start)


class TestEuclideanAdam:
    def test_minimizes_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        params = FlatParams({"x": np.zeros(3)})
        opt = Adam(params, lr=0.05)
        for _ in range(500):
            opt.step({"x": 2.0 * (params["x"] - target)})
        assert rel_err(params["x"], target) < 1e-4

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            params = FlatParams({"b": np.ones(2), "a": np.full(2, -1.0)})
            opt = Adam(params, lr=0.01)
            for t in range(20):
                opt.step({"a": params["a"] * 0.1 + t, "b": params["b"] * 0.2 - t})
            results.append((params["a"].copy(), params["b"].copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_updates_in_place(self):
        params = FlatParams({"x": np.zeros(2)})
        view = params["x"]
        opt = Adam(params, lr=0.1)
        opt.step({"x": np.ones(2)})
        assert view is params["x"] and view[0] != 0.0

    def assert_textbook(self, params, opt, ref, m, v):
        # The parameters within the bound, and M and V multiplied back by
        # BETA1**s and BETA2**s against the textbook moments.
        for k in ref:
            np.testing.assert_allclose(params[k], ref[k], rtol=0, atol=PARAM_ATOL, err_msg=k)
            np.testing.assert_allclose(opt.m[k] * BETA1**opt.s, m[k], rtol=1e-12, err_msg=k)
            np.testing.assert_allclose(opt.v[k] * BETA2**opt.s, v[k], rtol=1e-12, err_msg=k)

    def test_in_place_update_matches_textbook_adam(self):
        # Reference: the out-of-place expressions, one temporary per term,
        # past step 356 (from which 1 - 0.9**t is exactly 1.0) and past a
        # rescale of the scaled moments.
        rng = np.random.default_rng(4)
        shapes = {"emb": (40, 6), "w": (6, 3), "b": (3,)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = FlatParams(start)
        ref = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, RESCALE_STEPS + 60):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-5, 2) for k, s in shapes.items()}
            grads["emb"][rng.random(40) < 0.7] = 0.0  # mostly untouched rows
            opt.step(grads)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert 1.0 - b1**355 < 1.0 == 1.0 - b1**356
        assert opt.s == 59
        self.assert_textbook(params, opt, ref, m, v)

    def test_past_unit_bias_correction_and_rescale_match_textbook_adam(self):
        # As above, with "emb", the last key, taking its gradient as rows.
        rng = np.random.default_rng(6)
        shapes = {"a": (4,), "w": (5, 3), "z": (3,), "emb": (30, 5)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = FlatParams(start)
        ref = {k: x.copy() for k, x in start.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, RESCALE_STEPS + 101):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-5, 2) for k, s in shapes.items()}
            rows = np.flatnonzero(rng.random(30) < 0.3)
            grads["emb"][np.setdiff1d(np.arange(30), rows)] = 0.0
            opt.step({**grads, "emb": grads["emb"][rows]}, rows)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert opt.s == 100
        self.assert_textbook(params, opt, ref, m, v)

    @staticmethod
    def assert_same_bits(params_a, opt_a, params_b, opt_b):
        for k in params_a:
            np.testing.assert_array_equal(params_a[k], params_b[k], err_msg=k)
            np.testing.assert_array_equal(opt_a.m[k], opt_b.m[k], err_msg=k)
            np.testing.assert_array_equal(opt_a.v[k], opt_b.v[k], err_msg=k)

    def test_row_gradients_are_bitwise_the_zero_filled_dense_step(self):
        # One optimizer takes the embedding gradient as rows, the other the
        # same gradient as a zero-filled table. Row 0 is touched twice, 450
        # steps apart; rows 40-49 never; some steps touch no row at all.
        rng = np.random.default_rng(5)
        shapes = {"w": (6, 3), "b": (3,), "emb": (50, 6)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        sparse = FlatParams(start)
        dense = FlatParams(start)
        opt_sparse = Adam(sparse, lr=0.02)
        opt_dense = Adam(dense, lr=0.02)
        for step in range(600):
            touched = (rng.random(50) < 0.2) & (np.arange(50) < 40)
            touched[0] = step in (0, 450)
            if step % 97 == 3:
                touched[:] = False
            rows = np.flatnonzero(touched)
            scale = 10.0 ** rng.uniform(-5, 2, size=(len(rows), 1))
            row_grads = rng.standard_normal((len(rows), 6)) * scale
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-5, 2) for k, s in shapes.items() if k != "emb"}
            table = np.zeros(shapes["emb"])
            table[rows] = row_grads
            opt_sparse.step({**grads, "emb": row_grads}, rows)
            opt_dense.step({**grads, "emb": table})
        self.assert_same_bits(sparse, opt_sparse, dense, opt_dense)
        assert not opt_sparse.m["emb"][40:].any() and (sparse["emb"][40:] == start["emb"][40:]).all()
        assert (sparse["emb"][0] != start["emb"][0]).all()

    def test_missing_gradient_raises(self):
        # A parameter without a gradient is an error, not a parameter left
        # out of the step, and the failed step leaves the optimizer as it
        # was: the moments of keys read before the missing one included.
        # The row key, if any, is the last key of the layout.
        for row_key in (None, "b", "w"):
            shapes = {"w": (2, 1), "b": (1,)}
            order = ("b", "w") if row_key == "w" else ("w", "b")
            params = FlatParams({k: np.ones(shapes[k]) for k in order})
            opt = Adam(params, lr=0.1)
            rows = None if row_key is None else np.array([0])
            opt.step({"w": np.ones((1 if row_key == "w" else 2, 1)), "b": np.ones(1)}, rows)
            before = [params.flat.copy(), *(x.copy() for x in [*opt.m.values(), *opt.v.values()])]
            with pytest.raises(KeyError, match="w"):
                opt.step({"b": np.ones(1)}, rows)
            assert opt.t == 1
            for got, want in zip([params.flat, *opt.m.values(), *opt.v.values()], before):
                np.testing.assert_array_equal(got, want)
            assert opt.m["b"] * BETA1**opt.s == pytest.approx([1.0 - 0.9], rel=1e-15)
            assert opt.v["b"] * BETA2**opt.s == pytest.approx([1.0 - 0.999], rel=1e-15)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 60),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    )
    @example(seed=1, steps=RESCALE_STEPS + 40, density=0.05)
    def test_row_steps_match_textbook_adam_on_the_zero_filled_table(self, seed, steps, density):
        # Reference: an Adam given every embedding gradient as a zero-filled
        # table; the other takes a random mix of row steps and zero-filled
        # steps. The draws cover random row subsets, steps that touch no
        # row, and (the example) a run past the rescale of the scaled
        # moments. The textbook tests above bound the reference.
        rng = np.random.default_rng(seed)
        n_rows, dim = 12, 3
        shapes = {"w": (3, 2), "emb": (n_rows, dim)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        mixed, dense = FlatParams(start), FlatParams(start)
        opt_mixed, opt_dense = Adam(mixed, lr=0.02), Adam(dense, lr=0.02)
        never = rng.random(n_rows) < 0.25
        for _ in range(steps):
            rows = np.flatnonzero((rng.random(n_rows) < density) & ~never)
            scale = 10.0 ** rng.uniform(-5, 2, size=(len(rows), 1))
            row_grads = rng.standard_normal((len(rows), dim)) * scale
            table = np.zeros((n_rows, dim))
            table[rows] = row_grads
            g_w = rng.standard_normal(shapes["w"])
            if rng.random() < 0.5:
                opt_mixed.step({"w": g_w, "emb": row_grads}, rows)
            else:
                opt_mixed.step({"w": g_w, "emb": table})
            opt_dense.step({"w": g_w, "emb": table})
        assert opt_mixed.s == (steps - 1) % RESCALE_STEPS + 1
        self.assert_same_bits(mixed, opt_mixed, dense, opt_dense)
        np.testing.assert_array_equal(mixed["emb"][never], start["emb"][never])

    def test_flat_params_are_views_of_one_buffer(self):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])}
        params = FlatParams(arrays)
        assert params.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0]
        assert all(np.shares_memory(params[k], params.flat) for k in arrays)
        assert params["w"].shape == (2, 3) and not np.shares_memory(params["w"], arrays["w"])
        opt = Adam(params, lr=0.1)
        opt.step({"w": np.ones((2, 3)), "b": -np.ones(2)})
        assert params.flat[6:].tolist() == params["b"].tolist() and (params["b"] > [7.0, 8.0]).all()
