"""Stage-two training loop: selection, determinism, warm starts, batched evaluation."""

import numpy as np
import pytest

from hyperclass.config import ClassifierConfig, SynthSpec
from hyperclass.data import default_synthetic_tree, generate_synthetic
from hyperclass.encoder import CHUNK_ROWS, EncoderModel, Vocabulary, encode, tokenize, tokenize_batch
from hyperclass.errors import ConfigError
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

    def test_hyper_dim_must_match_labels(self, tiny_data, tiny_labels):
        _, class_map, train, dev = tiny_data
        cfg = ClassifierConfig(loss="wce", hyper_dim=5, **SMALL)
        with pytest.raises(ConfigError, match="does not match label dim"):
            train_classifier(train, dev, cfg, labels=tiny_labels, class_map=class_map)

    def test_unknown_loss(self, tiny_data):
        _, _, train, dev = tiny_data
        with pytest.raises(ConfigError, match="unknown loss"):
            train_classifier(train, dev, ClassifierConfig(loss="focal", **SMALL))


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


class TestWarmStart:
    def test_init_params_copied_not_shared(self, tiny_data, tiny_labels):
        _, class_map, train, dev = tiny_data
        cfg = ClassifierConfig(loss="wce", seed=4, **SMALL)
        first = train_classifier(train, dev, cfg, labels=tiny_labels, class_map=class_map)
        snapshot = {k: v.copy() for k, v in first.model.params().items()}
        second = train_classifier(
            train, dev, cfg, labels=tiny_labels, class_map=class_map,
            init_params=(first.model, first.head),
        )
        # source untouched, result retrained from the warm start
        for key, arr in first.model.params().items():
            np.testing.assert_array_equal(arr, snapshot[key])
        assert second.model.vocab is first.model.vocab
        assert any(
            not np.array_equal(second.model.params()[k], first.model.params()[k])
            for k in snapshot
        )


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
        model = EncoderModel.init(vocab, 8, 16, rng, scale=1.0)
        head = ClassifierHead.init(16, len(test.label_names), 2, rng, scale=1.0)
        ev, preds = evaluate_model(model, head, test)
        expected = [predict(head, encode(model, tokenize(vocab, text))) for text, _ in test.samples]
        assert preds == expected
        assert len(set(preds)) > 1
        packed = tokenize_batch(vocab, [text for text, _ in test.samples])
        assert evaluate_model(model, head, test, packed)[1] == preds
        assert ev.accuracy == np.mean([p == y for p, (_, y) in zip(preds, test.samples)])
