"""Stage-two training loop: selection, determinism, batched evaluation."""

import numpy as np
import pytest

from helpers import LOSS_ATOL, PARAM_ATOL, dense_table_train_classifier
from hyperclass.config import ClassifierConfig, SynthSpec
from hyperclass.data import LabeledDataset, default_synthetic_tree, generate_synthetic
from hyperclass.encoder import (
    CHUNK_ROWS,
    INIT_SCALE,
    EncoderModel,
    Vocabulary,
    encode,
    tokenize,
    tokenize_batch,
)
from hyperclass.errors import ConfigError, DatasetError, NumericalError
from hyperclass.hierarchy import LabelEmbeddings
from hyperclass.loss import ClassifierHead, predict
from hyperclass.training import evaluate_model, train_classifier

SMALL = dict(d_tok=8, d_e=16, epochs=2)


@pytest.fixture(scope="module")
def tiny_data():
    tree, class_map = default_synthetic_tree()
    train, dev, _ = generate_synthetic(tree, SynthSpec(samples_per_class=20))
    return tree, class_map, train, dev


@pytest.fixture(scope="module")
def tiny_labels(tiny_data):
    tree, _, _, _ = tiny_data
    rng = np.random.default_rng(0)
    vecs = rng.uniform(-0.5, 0.5, size=(len(tree.nodes), 3))
    return LabelEmbeddings(nodes=list(tree.nodes), vectors=vecs)


class TestConfigErrors:
    def test_wce_requires_labels(self, tiny_data):
        _, _, train, dev = tiny_data
        with pytest.raises(ConfigError, match="requires label embeddings"):
            train_classifier(train, dev, ClassifierConfig(loss="wce", **SMALL))

    def test_class_map_order_must_match_dataset(self, tiny_data, tiny_labels):
        _, class_map, train, dev = tiny_data
        reordered = list(reversed(class_map))
        with pytest.raises(ConfigError, match="do not match the class map"):
            train_classifier(
                train, dev, ClassifierConfig(loss="wce", **SMALL),
                labels=tiny_labels, class_map=reordered,
            )

    def test_unknown_loss(self, tiny_data):
        _, _, train, dev = tiny_data
        with pytest.raises(ConfigError, match="unknown loss"):
            train_classifier(train, dev, ClassifierConfig(loss="focal", **SMALL))


class TestEmptySplits:
    @pytest.mark.parametrize("empty", ["training", "dev"])
    def test_named_before_training(self, tiny_data, empty):
        _, _, train, dev = tiny_data
        if empty == "training":
            train = LabeledDataset([], train.label_names, "train")
        else:
            dev = LabeledDataset([], dev.label_names, "dev")
        with pytest.raises(DatasetError, match=f"the {empty} split is empty"):
            train_classifier(train, dev, ClassifierConfig(loss="ce", **SMALL))


class TestNumericalErrors:
    def test_nan_gradient_named_at_next_batch(self, tiny_data, monkeypatch):
        # Only each batch's scalar loss is checked, so a NaN gradient in
        # batch 0 surfaces as the non-finite loss of batch 1.
        import hyperclass.training as training

        real = training.ce_batch

        def poisoned(head, hs, ys):
            total, grads = real(head, hs, ys)
            grads["w_c"][0, 0] = np.nan
            return total, grads

        monkeypatch.setattr(training, "ce_batch", poisoned)
        _, _, train, dev = tiny_data
        with pytest.raises(NumericalError, match="stage two, epoch 0, batch 1: non-finite loss"):
            train_classifier(train, dev, ClassifierConfig(loss="ce", **SMALL))

    def test_nan_from_last_step_named_before_dev_eval(self, tiny_data, monkeypatch):
        # A NaN gradient in an epoch's last batch has no next batch whose
        # loss would show it.
        import hyperclass.training as training

        real = training.ce_batch
        _, _, train, dev = tiny_data
        cfg = ClassifierConfig(loss="ce", **SMALL)
        # The batch size does not divide the training set, so the last
        # batch of an epoch is the only one of its size.
        last_batch_size = len(train.samples) % cfg.batch_size
        assert last_batch_size

        def poisoned(head, hs, ys):
            total, grads = real(head, hs, ys)
            if len(ys) == last_batch_size:
                grads["b_c"][0] = np.nan
            return total, grads

        monkeypatch.setattr(training, "ce_batch", poisoned)
        # The check must come before the parameters are scored.
        monkeypatch.setattr(training, "evaluate_model", None)
        with pytest.raises(NumericalError, match=r"^stage two, epoch 0: non-finite parameter b_c$"):
            train_classifier(train, dev, cfg)

    @pytest.mark.parametrize(
        "loss,lr,error,match",
        [
            pytest.param("ce", float("inf"), ConfigError, "positive and finite", id="ce"),
            pytest.param("ce", float("nan"), ConfigError, "positive and finite", id="ce-nan"),
            # Finite, so it passes validation, but the first steps overflow.
            pytest.param("wce", 1e300, NumericalError, r"stage two, epoch 0, batch \d+: ", id="wce"),
        ],
    )
    def test_infinite_lr_is_named(self, tiny_data, tiny_labels, loss, lr, error, match):
        _, class_map, train, dev = tiny_data
        cfg = ClassifierConfig(loss=loss, lr=lr, **SMALL)
        with np.errstate(all="ignore"), pytest.raises(error, match=match):
            train_classifier(train, dev, cfg, labels=tiny_labels, class_map=class_map)


class TestSelectionAndHistory:
    def test_history_and_best_epoch(self, tiny_data, tiny_labels):
        _, class_map, train, dev = tiny_data
        seen = []
        cfg = ClassifierConfig(loss="wce", epochs=3, d_tok=8, d_e=16, seed=1)
        result = train_classifier(
            train, dev, cfg, labels=tiny_labels, class_map=class_map,
            progress=seen.append,
        )
        assert seen == result.history
        assert [r["epoch"] for r in result.history] == [0, 1, 2]
        wf1s = [r["dev_wf1"] for r in result.history]
        assert result.best_dev_wf1 == max(wf1s)
        assert result.best_epoch == wf1s.index(max(wf1s))  # first max wins

    def test_returned_params_are_best_epoch(self, tiny_data, tiny_labels):
        # with dev wF1 recomputed from the returned parameters, the score
        # must equal the recorded best, not the final epoch's
        _, class_map, train, dev = tiny_data
        cfg = ClassifierConfig(loss="wce", epochs=3, d_tok=8, d_e=16, seed=1)
        result = train_classifier(
            train, dev, cfg, labels=tiny_labels, class_map=class_map
        )
        dev_eval, _ = evaluate_model(result.model, result.head, dev)
        assert dev_eval.weighted_f1 == result.best_dev_wf1


class TestDeterminismAndThreads:
    @staticmethod
    def run(tiny_data, tiny_labels):
        _, class_map, train, dev = tiny_data
        cfg = ClassifierConfig(loss="wce", seed=4, **SMALL)
        return train_classifier(train, dev, cfg, labels=tiny_labels, class_map=class_map)

    def test_single_thread_bitwise(self, tiny_data, tiny_labels):
        a = self.run(tiny_data, tiny_labels)
        b = self.run(tiny_data, tiny_labels)
        for key in a.model.params():
            np.testing.assert_array_equal(a.model.params()[key], b.model.params()[key])
        for key in a.head.params():
            np.testing.assert_array_equal(a.head.params()[key], b.head.params()[key])
        assert a.history == b.history


def assert_matches_reference(result, history, best_epoch, best_wf1, params):
    """Every dev score, the best epoch and its score are bitwise the dense
    reference's; each epoch's train_loss and every parameter are within the
    rounding bounds of row-step Adam."""
    exact = ("epoch", "dev_acc", "dev_wf1")
    assert len(result.history) == len(history)
    for got, want in zip(result.history, history):
        assert got.keys() == want.keys()
        assert [got[k] for k in exact] == [want[k] for k in exact]
        assert abs(got["train_loss"] - want["train_loss"]) <= LOSS_ATOL
    assert (result.best_epoch, result.best_dev_wf1) == (best_epoch, best_wf1)
    trained = {f"enc.{k}": v for k, v in result.model.params().items()}
    trained.update({f"head.{k}": v for k, v in result.head.params().items()})
    assert trained.keys() == params.keys()
    for key, value in params.items():
        np.testing.assert_allclose(trained[key], value, rtol=0, atol=PARAM_ATOL, err_msg=key)


class TestFrozenReference:
    # "bitwise": the dev scores and the best epoch; the loss and the
    # parameters are held to the row-step Adam bounds.
    @pytest.mark.parametrize("loss,norm", [("ce", "none"), ("wce", "none"), ("wce", "batch-mean")])
    def test_matches_dense_table_training_bitwise(self, tiny_data, tiny_labels, loss, norm):
        _, class_map, train, dev = tiny_data
        # At this lr every run learns, and the best epoch is not the last,
        # so the restore of the best parameters is compared too.
        cfg = ClassifierConfig(loss=loss, weight_norm=norm, epochs=6, lr=0.03, d_tok=8, d_e=16, seed=3)
        assert len(train.samples) % cfg.batch_size
        result = train_classifier(train, dev, cfg, labels=tiny_labels, class_map=class_map)
        assert result.best_epoch < cfg.epochs - 1
        history, best_epoch, best_wf1, params = dense_table_train_classifier(
            train, dev, cfg, labels=tiny_labels, class_map=class_map
        )
        assert_matches_reference(result, history, best_epoch, best_wf1, params)


    @pytest.mark.parametrize("loss", ["ce", "wce"])
    def test_matches_dense_table_training_bitwise_past_step_356(self, tiny_data, tiny_labels, loss):
        # 17 batches an epoch for 22 epochs: 374 Adam steps, so the steps
        # from 356 on run with Adam's first bias correction exactly 1.0.
        _, class_map, train, dev = tiny_data
        cfg = ClassifierConfig(loss=loss, epochs=22, batch_size=5, lr=0.01, d_tok=4, d_e=6, seed=5)
        assert -(-len(train.samples) // cfg.batch_size) * cfg.epochs > 356
        result = train_classifier(train, dev, cfg, labels=tiny_labels, class_map=class_map)
        history, best_epoch, best_wf1, params = dense_table_train_classifier(
            train, dev, cfg, labels=tiny_labels, class_map=class_map
        )
        assert_matches_reference(result, history, best_epoch, best_wf1, params)

class TestEvaluateModel:
    def test_preds_align_with_samples(self, tiny_data, tiny_labels):
        _, class_map, train, dev = tiny_data
        cfg = ClassifierConfig(loss="wce", seed=4, **SMALL)
        result = train_classifier(train, dev, cfg, labels=tiny_labels, class_map=class_map)
        ev, preds = evaluate_model(result.model, result.head, dev)
        assert len(preds) == len(dev.samples)
        assert all(0 <= p < len(dev.label_names) for p in preds)
        assert ev.confusion.sum() == len(dev.samples)

    def test_longer_than_one_chunk_matches_per_sample_predict(self):
        # More rows than encoder.CHUNK_ROWS, so evaluation spans two chunks.
        tree, _ = default_synthetic_tree()
        _, _, test = generate_synthetic(tree, SynthSpec(samples_per_class=300, seed=3))
        assert len(test) > CHUNK_ROWS
        vocab = Vocabulary.build([text for text, _ in test.samples])
        rng = np.random.default_rng(5)
        model = EncoderModel.init(vocab, 8, 16, rng)
        head = ClassifierHead.init(16, len(test.label_names), 2, rng)
        # Parameters scaled to [-1, 1), so the predictions spread over classes.
        for arr in [*model.params().values(), *head.params().values()]:
            arr /= INIT_SCALE
        ev, preds = evaluate_model(model, head, test)
        expected = [predict(head, encode(model, tokenize(vocab, text))) for text, _ in test.samples]
        assert preds == expected
        assert len(set(preds)) > 1
        packed = tokenize_batch(vocab, [text for text, _ in test.samples])
        assert evaluate_model(model, head, test, packed)[1] == preds
        assert ev.accuracy == np.mean([p == y for p, (_, y) in zip(preds, test.samples)])
