"""Riemannian SGD/Adam on ball parameters and Euclidean Adam."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import PARAM_ATOL, distance_grad, rel_err
from hyperclass.ball import MAX_NORM, distance, exp_map, random_ball_point, riemannian_grad
from hyperclass.optim import BETA1, BETA2, RESCALE_STEPS, Adam, FlatParams, RiemannianAdam


def dist_sq_grad(theta, target):
    d = distance(theta, target)
    gx, _ = distance_grad(theta, target)
    return d * d, 2.0 * d * gx


def riemannian_sgd(theta, euclid_grad, lr):
    """One Riemannian SGD step, exp_theta(-lr * riemannian_grad), from the ball kernels."""
    return exp_map(theta, -lr * riemannian_grad(theta, euclid_grad))


def radam_point(theta):
    """A RiemannianAdam over one point, and that point's row of its matrix."""
    opt = RiemannianAdam(np.array([theta], dtype=float))
    return opt, opt.points[0]


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
    def test_zero_gradient_never_moves(self):
        opt, theta = radam_point([0.1, 0.4])
        start = theta.copy()
        for _ in range(20):
            opt.step(ROW0, np.zeros((1, 2)), lr=0.05)
            np.testing.assert_array_equal(opt.points[0], start)
        assert opt.t[0] == 20

    def test_first_step_magnitude(self):
        # At t=1 bias correction makes m_hat the rescaled grad and v_hat its
        # square, so the tangent step is -lr * sign(g) up to eps.
        opt, _ = radam_point(np.zeros(2))
        g = np.array([3.0, -0.5])
        opt.step(ROW0, g[None, :], lr=0.01)
        expected_dir = -0.01 * np.sign(g) / (1.0 + 0.0)
        # exp map at origin: tanh(||step||) * unit(step)
        r = np.linalg.norm(expected_dir)
        np.testing.assert_allclose(opt.points[0], np.tanh(r) * expected_dir / r, rtol=1e-6)

    def test_convergence_to_target(self):
        # 500 steps of lr=0.01 on d(theta, target)^2 reach d < 1e-3.
        rng = np.random.default_rng(2)
        for trial in range(10):
            dim = int(rng.integers(2, 8))
            opt, _ = radam_point(random_ball_point(rng, dim, 0.8))
            target = random_ball_point(rng, dim, 0.8)
            for _ in range(500):
                _, g = dist_sq_grad(opt.points[0], target)
                opt.step(ROW0, g[None, :], lr=0.01)
            assert distance(opt.points[0], target) < 1e-3

    def test_deterministic(self):
        g = np.array([0.3, 0.7, -0.2])
        outs = []
        for _ in range(2):
            opt, _ = radam_point([0.1, -0.2, 0.05])
            for _ in range(10):
                opt.step(ROW0, (g * opt.t[0])[None, :], lr=0.02)
            outs.append(opt.points[0].copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_lr_override_used_for_single_step(self):
        # The optimizer keeps no learning rate: each step takes its own, and
        # at equal moments a step of twice the lr moves twice as far.
        start = np.array([0.2, 0.1])
        opt_a, _ = radam_point(start)
        opt_b, _ = radam_point(start)
        g = np.array([[1.0, -1.0]])
        opt_a.step(ROW0, g, lr=0.01)
        opt_b.step(ROW0, g, lr=0.02)
        np.testing.assert_array_equal(opt_a.m, opt_b.m)
        moved_a, moved_b = distance(start, opt_a.points[0]), distance(start, opt_b.points[0])
        assert moved_b == pytest.approx(2 * moved_a, rel=1e-9)
        assert not hasattr(opt_b, "lr")
        with pytest.raises(TypeError, match="lr"):
            opt_b.step(ROW0, g)

    def test_stays_in_ball_under_huge_gradients(self):
        rng = np.random.default_rng(3)
        opt, _ = radam_point(np.zeros(4))
        for _ in range(100):
            opt.step(ROW0, rng.standard_normal((1, 4)) * 1e3, lr=0.5)
            assert np.linalg.norm(opt.points[0]) <= MAX_NORM * (1.0 + 1e-15)

    def test_moment_shapes_and_step_count(self):
        opt = RiemannianAdam(np.zeros((5, 7)))
        opt.step(np.array([1, 3]), np.ones((2, 7)), lr=0.01)
        assert opt.m.shape == (5, 7) and opt.v.shape == (5, 7)
        assert opt.t.tolist() == [0, 1, 0, 1, 0]

    def test_updates_points_in_place(self):
        points = np.zeros((3, 2))
        opt = RiemannianAdam(points)
        opt.step(np.array([2]), np.ones((1, 2)), lr=0.1)
        assert opt.points is points and points[2].any() and not points[:2].any()

    def test_rows_match_textbook_per_point_adam(self):
        # Reference: the per-point expressions, each point with its own step
        # count; random row subsets give rows different counts.
        rng = np.random.default_rng(4)
        n, dim, lr, b1, b2, eps = 9, 4, 0.05, 0.9, 0.999, 1e-8
        start = np.stack([random_ball_point(rng, dim, 0.9) for _ in range(n)])
        opt = RiemannianAdam(start.copy())
        ref = [
            {"theta": start[i].copy(), "m": np.zeros(dim), "v": np.zeros(dim), "t": 0}
            for i in range(n)
        ]
        for step in range(80):
            rows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            grads = rng.standard_normal((len(rows), dim)) * 10.0 ** rng.uniform(-3, 2)
            step_lr = lr * 0.1 if step < 10 else lr
            opt.step(rows, grads, lr=step_lr)
            for row, grad in zip(rows, grads):
                s = ref[row]
                g = grad * (1.0 - s["theta"] @ s["theta"]) ** 2 / 4.0
                s["t"] += 1
                s["m"] = b1 * s["m"] + (1.0 - b1) * g
                s["v"] = b2 * s["v"] + (1.0 - b2) * g * g
                m_hat = s["m"] / (1.0 - b1 ** s["t"])
                v_hat = s["v"] / (1.0 - b2 ** s["t"])
                direction = -step_lr * m_hat / (np.sqrt(v_hat) + eps)
                s["theta"] = exp_map(s["theta"], direction)
        assert len(set(opt.t.tolist())) > 1
        assert opt.t.tolist() == [s["t"] for s in ref]
        for row, s in enumerate(ref):
            np.testing.assert_allclose(opt.points[row], s["theta"], rtol=0, atol=1e-12)
            np.testing.assert_allclose(opt.m[row], s["m"], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(opt.v[row], s["v"], rtol=1e-12, atol=1e-15)


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

    def test_in_place_update_is_bitwise_textbook_adam(self):
        # Reference: the out-of-place expressions, one temporary per term.
        rng = np.random.default_rng(4)
        shapes = {"emb": (40, 6), "w": (6, 3), "b": (3,)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = FlatParams(start)
        ref = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, 60):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-5, 2) for k, s in shapes.items()}
            grads["emb"][rng.random(40) < 0.7] = 0.0  # mostly untouched rows
            opt.step(grads)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in shapes:
            np.testing.assert_array_equal(params[k], ref[k])
            np.testing.assert_array_equal(opt.m[k], m[k])
            np.testing.assert_array_equal(opt.v[k], v[k])

    def test_past_unit_bias_correction_is_bitwise_textbook_adam(self):
        # 400 steps: from step 356 on, 1 - 0.9**t is exactly 1.0 and the
        # step skips m / bc1. "emb" takes row gradients as the tail of the
        # flat buffer; the dense keys "a", "w", "z" before it stay bitwise.
        rng = np.random.default_rng(6)
        shapes = {"a": (4,), "w": (5, 3), "z": (3,), "emb": (30, 5)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        params = FlatParams(start)
        ref = {k: x.copy() for k, x in start.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, 401):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.uniform(-5, 2) for k, s in shapes.items()}
            rows = np.flatnonzero(rng.random(30) < 0.3)
            grads["emb"][np.setdiff1d(np.arange(30), rows)] = 0.0
            opt.step({**grads, "emb": grads["emb"][rows]}, rows={"emb": rows})
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert 1.0 - b1**355 < 1.0 == 1.0 - b1**356
        for k in ("a", "w", "z"):
            np.testing.assert_array_equal(params[k], ref[k], err_msg=k)
            np.testing.assert_array_equal(opt.m[k], m[k], err_msg=k)
            np.testing.assert_array_equal(opt.v[k], v[k], err_msg=k)
        np.testing.assert_allclose(params["emb"], ref["emb"], rtol=0, atol=PARAM_ATOL)
        np.testing.assert_allclose(opt.m["emb"] * BETA1**opt.s, m["emb"], rtol=1e-12)
        np.testing.assert_allclose(opt.v["emb"] * BETA2**opt.s, v["emb"], rtol=1e-12)

    def test_row_gradients_are_bitwise_the_zero_filled_dense_step(self):
        # One optimizer takes the embedding gradient as rows, the other the
        # same gradient as a zero-filled table. Row 0 is touched twice, 450
        # steps apart; rows 40-49 never; some steps touch no row at all.
        # The dense keys are bitwise; the embedding within the bound.
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
            opt_sparse.step({**grads, "emb": row_grads}, rows={"emb": rows})
            opt_dense.step({**grads, "emb": table})
        for k in ("w", "b"):
            np.testing.assert_array_equal(sparse[k], dense[k])
            np.testing.assert_array_equal(opt_sparse.m[k], opt_dense.m[k])
            np.testing.assert_array_equal(opt_sparse.v[k], opt_dense.v[k])
        np.testing.assert_allclose(sparse["emb"], dense["emb"], rtol=0, atol=PARAM_ATOL)
        np.testing.assert_allclose(opt_sparse.m["emb"] * BETA1**opt_sparse.s, opt_dense.m["emb"], rtol=1e-12)
        np.testing.assert_allclose(opt_sparse.v["emb"] * BETA2**opt_sparse.s, opt_dense.v["emb"], rtol=1e-12)
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
            rows = None if row_key is None else {row_key: np.array([0])}
            opt.step({"w": np.ones((1 if row_key == "w" else 2, 1)), "b": np.ones(1)}, rows=rows)
            before = [params.flat.copy(), *(x.copy() for x in [*opt.m.values(), *opt.v.values()])]
            with pytest.raises(KeyError, match="w"):
                opt.step({"b": np.ones(1)}, rows=rows)
            assert opt.t == 1
            for got, want in zip([params.flat, *opt.m.values(), *opt.v.values()], before):
                np.testing.assert_array_equal(got, want)
            scale = (BETA1**opt.s, BETA2**opt.s) if row_key == "b" else (1.0, 1.0)
            assert opt.m["b"] * scale[0] == pytest.approx([1.0 - 0.9], rel=1e-15)
            assert opt.v["b"] * scale[1] == pytest.approx([1.0 - 0.999], rel=1e-15)

    def test_row_keys_must_be_the_fixed_tail(self):
        # The row keys are the last keys of the layout, and the first step
        # fixes them; a step that breaks either rule raises ValueError
        # before it changes any state.
        def fresh():
            params = FlatParams({"w": np.ones((2, 1)), "emb": np.ones((3, 2))})
            return params, Adam(params, lr=0.1)

        grads = {"w": np.ones((2, 1)), "emb": np.ones((3, 2))}
        rows = {"emb": np.array([1])}
        row_grads = {"w": grads["w"], "emb": np.ones((1, 2))}
        params, opt = fresh()
        with pytest.raises(ValueError, match="not the last keys"):
            opt.step({"w": np.ones((1, 1)), "emb": grads["emb"]}, rows={"w": np.array([0])})
        assert opt.t == 0 and not opt.m["w"].any() and (params.flat == 1.0).all()
        for first, then in (((grads, None), (row_grads, rows)), ((row_grads, rows), (grads, None))):
            params, opt = fresh()
            opt.step(*first)
            before = [params.flat.copy(), *(x.copy() for x in [*opt.m.values(), *opt.v.values()])]
            with pytest.raises(ValueError, match="changed"):
                opt.step(*then)
            assert (opt.t, opt.s) == (1, 0 if first[1] is None else 1)
            for got, want in zip([params.flat, *opt.m.values(), *opt.v.values()], before):
                np.testing.assert_array_equal(got, want)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 60),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    )
    @example(seed=1, steps=RESCALE_STEPS + 40, density=0.05)
    def test_row_steps_match_textbook_adam_on_the_zero_filled_table(self, seed, steps, density):
        # Reference: a dense-only Adam, bitwise textbook Adam (see above),
        # given the row gradients as a zero-filled table. The draws cover
        # random row subsets, steps that touch no row, and (the example) a
        # run past the rescale of the scaled moments.
        rng = np.random.default_rng(seed)
        n_rows, dim = 12, 3
        shapes = {"w": (3, 2), "emb": (n_rows, dim)}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        rowed, dense = FlatParams(start), FlatParams(start)
        opt_rows, opt_dense = Adam(rowed, lr=0.02), Adam(dense, lr=0.02)
        never = rng.random(n_rows) < 0.25
        for _ in range(steps):
            rows = np.flatnonzero((rng.random(n_rows) < density) & ~never)
            scale = 10.0 ** rng.uniform(-5, 2, size=(len(rows), 1))
            row_grads = rng.standard_normal((len(rows), dim)) * scale
            table = np.zeros((n_rows, dim))
            table[rows] = row_grads
            g_w = rng.standard_normal(shapes["w"])
            opt_rows.step({"w": g_w, "emb": row_grads}, rows={"emb": rows})
            opt_dense.step({"w": g_w, "emb": table})
        assert opt_rows.s == (steps - 1) % RESCALE_STEPS + 1
        np.testing.assert_array_equal(rowed["w"], dense["w"])
        np.testing.assert_allclose(rowed["emb"], dense["emb"], rtol=0, atol=PARAM_ATOL)
        np.testing.assert_array_equal(rowed["emb"][never], start["emb"][never])

    def test_flat_params_are_views_of_one_buffer(self):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])}
        params = FlatParams(arrays)
        assert params.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0]
        assert all(np.shares_memory(params[k], params.flat) for k in arrays)
        assert params["w"].shape == (2, 3) and not np.shares_memory(params["w"], arrays["w"])
        opt = Adam(params, lr=0.1)
        opt.step({"w": np.ones((2, 3)), "b": -np.ones(2)})
        assert params.flat[6:].tolist() == params["b"].tolist() and (params["b"] > [7.0, 8.0]).all()
