"""Classification head, hyperbolic weights, and weighted cross-entropy."""

import numpy as np
import pytest

from helpers import (
    composed_origin_distance_and_grad,
    cross_entropy,
    distance_from_origin,
    hyper_weight,
    numeric_grad,
    rel_err,
)
from hyperclass.ball import exp_map_origin, random_ball_point
from hyperclass.encoder import INIT_SCALE
from hyperclass.errors import ConfigError
from hyperclass.hierarchy import LabelEmbeddings
from hyperclass.loss import (
    ClassifierHead,
    ce_batch,
    class_embedding_matrix,
    logits,
    predict,
    project_representation,
    weighted_ce_batch,
)


def make_head(d_e=4, m=3, h_d=2, seed=0):
    return ClassifierHead.init(d_e, m, h_d, np.random.default_rng(seed))


def zero_head(d_e=4, m=3, h_d=2):
    return ClassifierHead(
        w_c=np.zeros((d_e, m)),
        b_c=np.zeros(m),
        w_p=np.zeros((d_e, h_d)),
        b_p=np.zeros(h_d),
    )


def test_init_draws_every_parameter_from_the_symmetric_interval():
    # w_c, b_c, w_p and b_p are each U(-INIT_SCALE, INIT_SCALE): inside it,
    # and reaching toward both ends.
    head = ClassifierHead.init(16, 12, 10, np.random.default_rng(3))
    for key, value in head.params().items():
        assert np.abs(value).max() <= INIT_SCALE, key
        assert value.min() < -INIT_SCALE / 2 and value.max() > INIT_SCALE / 2, key


class TestLogitsPredict:
    def test_zero_h_gives_bias(self):
        head = make_head()
        np.testing.assert_allclose(logits(head, np.zeros(4)), head.b_c, atol=1e-15)

    def test_one_hot_rows(self):
        head = zero_head()
        head.w_c = np.arange(12, dtype=float).reshape(4, 3)
        h = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(logits(head, h), head.w_c[0])

    def test_predict_argmax(self):
        head = zero_head()
        head.b_c = np.array([0.0, 0.0, 1.0])
        assert predict(head, np.zeros(4)) == 2

    def test_predict_ties_take_lowest_index(self):
        head = zero_head(m=2)
        head.b_c = np.array([5.0, 5.0])
        assert predict(head, np.zeros(4)) == 0

    def test_predict_shift_invariant(self):
        head = make_head()
        h = np.array([0.2, -0.4, 0.1, 0.7])
        shifted = ClassifierHead(head.w_c, head.b_c + 123.0, head.w_p, head.b_p)
        assert predict(head, h) == predict(shifted, h)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert abs(cross_entropy(np.zeros(4), 2) - np.log(4.0)) < 1e-12

    def test_confident_correct(self):
        c = np.array([10.0, 0.0])
        assert abs(cross_entropy(c, 0) - np.log1p(np.exp(-10.0))) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(5)
        assert abs(cross_entropy(c, 3) - cross_entropy(c + 1234.5, 3)) < 1e-9

    def test_large_logits_no_overflow(self):
        c = np.array([1e4, 0.0, -1e4])
        assert np.isfinite(cross_entropy(c, 1))


class TestHyperWeight:
    def test_projection_matches_exp_map(self):
        head = make_head()
        h = np.array([0.1, -0.2, 0.3, 0.05])
        v = h @ head.w_p + head.b_p
        np.testing.assert_allclose(project_representation(head, h), exp_map_origin(v), atol=1e-15)

    def test_coincident_label_gives_zero(self):
        head = make_head()
        h = np.zeros(4)
        e_y = exp_map_origin(head.b_p)  # exactly where h=0 projects
        assert hyper_weight(head, h, e_y) == 0.0

    def test_zero_projection_closed_form(self):
        head = zero_head()
        e_y = np.array([0.4, 0.0])
        # projected point is the origin, so w = d(0, e_y) = 2 artanh(0.4)
        assert abs(hyper_weight(head, np.zeros(4), e_y) - 2.0 * np.arctanh(0.4)) < 1e-12
        assert abs(hyper_weight(head, np.zeros(4), e_y) - distance_from_origin(0.4)) < 1e-15

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        head = make_head(seed=3)
        h = rng.standard_normal(4) * 0.5
        e_y = random_ball_point(rng, 2, 0.8)
        w, dv = composed_origin_distance_and_grad(h @ head.w_p + head.b_p, e_y)
        dh = dv @ head.w_p.T
        assert abs(w - hyper_weight(head, h, e_y)) < 1e-12
        num_h = numeric_grad(lambda: hyper_weight(head, h, e_y), h)
        assert rel_err(dh, num_h) < 1e-4
        num_bp = numeric_grad(lambda: hyper_weight(head, h, e_y), head.b_p)
        assert rel_err(dv, num_bp) < 1e-4  # dw/db_p is the tangent grad


class TestClassEmbeddingMatrix:
    def test_rows_follow_class_order_and_copy(self):
        emb = LabelEmbeddings(
            nodes=["a", "b", "c"],
            vectors=np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]),
        )
        mat = class_embedding_matrix(emb, ["c", "a"])
        np.testing.assert_array_equal(mat, [[0.3, 0.0], [0.1, 0.0]])
        mat[0, 0] = 99.0
        assert emb.vectors[2, 0] == 0.3

    def test_missing_leaves_listed(self):
        emb = LabelEmbeddings(nodes=["a"], vectors=np.zeros((1, 2)))
        with pytest.raises(ConfigError, match="ghost1, ghost2"):
            class_embedding_matrix(emb, ["a", "ghost1", "ghost2"])


def batch_inputs(n=6, d_e=4, m=3, seed=1):
    rng = np.random.default_rng(seed)
    hs = rng.standard_normal((n, d_e)) * 0.5
    ys = rng.integers(0, m, size=n)
    return hs, ys


class TestCeBatch:
    def test_total_is_mean_and_weights_one(self):
        head = make_head()
        hs, ys = batch_inputs()
        total, _ = ce_batch(head, hs, ys)
        ces = [cross_entropy(logits(head, hs[i]), int(ys[i])) for i in range(len(ys))]
        # Every weight is 1: the total is the plain mean.
        assert abs(total - np.mean(ces)) < 1e-12

    def test_gradients_match_finite_differences(self):
        head = make_head()
        hs, ys = batch_inputs()
        _, grads = ce_batch(head, hs, ys)

        def f():
            return ce_batch(head, hs, ys)[0]

        for key in ("w_c", "b_c"):
            num = numeric_grad(f, head.params()[key])
            assert rel_err(grads[key], num) < 1e-4, key
        num_h = numeric_grad(f, hs)
        assert rel_err(grads["h"], num_h) < 1e-4

    def test_large_logits_stay_finite(self):
        # The log-sum-exp subtracts each row's largest logit, so logits of
        # 1e4 neither overflow exp nor lose the loss of the losing class.
        head = zero_head(m=3)
        head.b_c = np.array([1e4, 0.0, -1e4])
        total, grads = ce_batch(head, np.zeros((2, 4)), np.array([0, 1]))
        assert total == pytest.approx((cross_entropy(head.b_c, 0) + cross_entropy(head.b_c, 1)) / 2, rel=1e-12)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_projection_layer_untouched(self):
        head = make_head()
        hs, ys = batch_inputs()
        _, grads = ce_batch(head, hs, ys)
        np.testing.assert_array_equal(grads["w_p"], 0.0)
        np.testing.assert_array_equal(grads["b_p"], 0.0)


class TestWeightedCeBatch:
    @staticmethod
    def label_matrix(m=3, h_d=2, seed=2):
        rng = np.random.default_rng(seed)
        return np.stack([random_ball_point(rng, h_d, 0.9) for _ in range(m)])

    def test_report_consistency(self):
        head = make_head()
        hs, ys = batch_inputs()
        mat = self.label_matrix()
        total, _ = weighted_ce_batch(head, hs, ys, mat)
        ces = [cross_entropy(logits(head, hs[i]), int(ys[i])) for i in range(len(ys))]
        ws = [hyper_weight(head, hs[i], mat[int(ys[i])]) for i in range(len(ys))]
        assert abs(total - np.mean(np.multiply(ces, ws))) < 1e-12

    def test_gradients_match_finite_differences(self):
        head = make_head()
        hs, ys = batch_inputs()
        mat = self.label_matrix()
        _, grads = weighted_ce_batch(head, hs, ys, mat)

        def f():
            return weighted_ce_batch(head, hs, ys, mat)[0]

        for key in ("w_c", "b_c", "w_p", "b_p"):
            num = numeric_grad(f, head.params()[key])
            assert rel_err(grads[key], num) < 1e-3, key
        num_h = numeric_grad(f, hs)
        assert rel_err(grads["h"], num_h) < 1e-3

    def test_label_matrix_receives_no_gradient(self):
        head = make_head()
        hs, ys = batch_inputs()
        mat = self.label_matrix()
        before = mat.copy()
        _, grads = weighted_ce_batch(head, hs, ys, mat)
        np.testing.assert_array_equal(mat, before)
        assert set(grads) == {"w_c", "b_c", "w_p", "b_p", "h"}

    def test_zero_weight_sample_contributes_no_ce_gradient(self):
        # place the label exactly at the projected point: w=0, so the
        # logit-layer gradient from that sample vanishes
        head = make_head(m=2)
        h = np.zeros((1, 4))
        mat = np.stack([exp_map_origin(head.b_p), np.array([0.5, 0.0])])
        total, grads = weighted_ce_batch(head, h, np.array([0]), mat)
        assert hyper_weight(head, h[0], mat[0]) == 0.0
        assert total == 0.0
        np.testing.assert_array_equal(grads["w_c"], 0.0)
        np.testing.assert_array_equal(grads["b_c"], 0.0)

    def test_uniform_unit_weights_reduce_to_ce(self):
        # if every raw weight is 1, totals and logit grads equal the plain
        # CE baseline; engineered by zeroing w_p/b_p and placing every label
        # at distance 1 from the origin
        head = make_head()
        head.w_p[:] = 0.0
        head.b_p[:] = 0.0
        r = np.tanh(0.5)  # d(0, (r,0)) = 2 artanh(r) = 1.0
        mat = np.stack([[r, 0.0], [0.0, r], [-r, 0.0]])
        hs, ys = batch_inputs()
        w_total, w_grads = weighted_ce_batch(head, hs, ys, mat)
        c_total, c_grads = ce_batch(head, hs, ys)
        assert abs(w_total - c_total) < 1e-12
        np.testing.assert_allclose(w_grads["w_c"], c_grads["w_c"], atol=1e-12)
        np.testing.assert_allclose(w_grads["b_c"], c_grads["b_c"], atol=1e-12)


def loop_reference(head, hs, ys, label_matrix=None):
    """Per-sample reference for ce_batch (label_matrix None) and
    weighted_ce_batch: one row at a time through the one-row functions."""
    n = len(ys)
    ces, raw_w, dlogits, chains = [], [], [], []
    for h, y in zip(hs, ys):
        c = logits(head, h)
        ces.append(cross_entropy(c, int(y)))
        e = np.exp(c - c.max())
        dlogit = e / e.sum()
        dlogit[int(y)] -= 1.0
        dlogits.append(dlogit)
        if label_matrix is None:
            raw_w.append(1.0)
            chains.append((np.zeros(head.b_p.shape), np.zeros(h.shape)))
        else:
            w, dv = composed_origin_distance_and_grad(h @ head.w_p + head.b_p, label_matrix[int(y)])
            raw_w.append(w)
            chains.append((dv, dv @ head.w_p.T))
    ces, raw_w = np.array(ces), np.array(raw_w)
    total = float(np.mean(raw_w * ces))
    dtotal_dw = ces / n if label_matrix is not None else np.zeros(n)
    grads = {k: np.zeros_like(v) for k, v in head.params().items()}
    grads["h"] = np.zeros_like(hs)
    for i in range(n):
        dlogit = (raw_w[i] / n) * dlogits[i]
        dv, dh = chains[i]
        grads["w_c"] += np.outer(hs[i], dlogit)
        grads["b_c"] += dlogit
        grads["w_p"] += dtotal_dw[i] * np.outer(hs[i], dv)
        grads["b_p"] += dtotal_dw[i] * dv
        grads["h"][i] = head.w_c @ dlogit + dtotal_dw[i] * dh
    return total, grads


class TestBatchedAgainstLoop:
    def test_ce_batch(self):
        head = make_head(d_e=5, m=4, seed=7)
        hs, ys = batch_inputs(n=17, d_e=5, m=4, seed=8)
        got, grads = ce_batch(head, hs, ys)
        total, expected = loop_reference(head, hs, ys)
        assert abs(got - total) < 1e-12
        for key, arr in expected.items():
            np.testing.assert_allclose(grads[key], arr, rtol=0, atol=1e-12, err_msg=key)

    def test_weighted_ce_batch(self):
        head = make_head(d_e=5, m=4, h_d=3, seed=9)
        hs, ys = batch_inputs(n=17, d_e=5, m=4, seed=10)
        mat = TestWeightedCeBatch.label_matrix(m=4, h_d=3, seed=11)
        got, grads = weighted_ce_batch(head, hs, ys, mat)
        total, expected = loop_reference(head, hs, ys, mat)
        assert abs(got - total) < 1e-12
        for key, arr in expected.items():
            np.testing.assert_allclose(grads[key], arr, rtol=0, atol=1e-12, err_msg=key)

    def test_single_row_batch(self):
        head = make_head()
        hs, ys = batch_inputs(n=1)
        mat = TestWeightedCeBatch.label_matrix()
        total, _ = weighted_ce_batch(head, hs, ys, mat)
        expected = hyper_weight(head, hs[0], mat[ys[0]]) * cross_entropy(logits(head, hs[0]), int(ys[0]))
        assert abs(total - expected) < 1e-12

    def test_predict_rows_match_single_calls(self):
        head = make_head(m=5, seed=12)
        hs, _ = batch_inputs(n=30, m=5, seed=13)
        preds = predict(head, hs)
        assert preds.tolist() == [predict(head, h) for h in hs]
        assert isinstance(predict(head, hs[0]), int)
