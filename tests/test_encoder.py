"""Tokenizer, vocabulary construction, token packing, and encoder forward/backward."""

import numpy as np
import pytest

from helpers import numeric_grad, rel_err
from hyperclass import encoder
from hyperclass.encoder import (
    PAD,
    UNK,
    EncoderModel,
    TokenBatch,
    Vocabulary,
    encode,
    encode_backward,
    encode_batch,
    encode_batch_backward,
    encode_chunks,
    tokenize,
    tokenize_batch,
)


def small_vocab():
    texts = ["the cat sat", "the cat ran", "a dog ran", "a dog sat"]
    return Vocabulary.build(texts, min_freq=2)


class TestVocabulary:
    def test_reserved_indices(self):
        vocab = small_vocab()
        assert vocab.token_to_index["<unk>"] == UNK == 0
        assert vocab.token_to_index["<pad>"] == PAD == 1

    def test_min_freq_filters_and_indices_dense(self):
        texts = ["apple apple banana", "cherry"]
        vocab = Vocabulary.build(texts, min_freq=2)
        assert "apple" in vocab.token_to_index
        assert "banana" not in vocab.token_to_index
        assert "cherry" not in vocab.token_to_index
        assert sorted(vocab.token_to_index.values()) == list(range(len(vocab)))

    def test_build_is_order_independent(self):
        a = Vocabulary.build(["x y", "y z", "z x"], min_freq=2)
        b = Vocabulary.build(["z x", "x y", "y z"], min_freq=2)
        assert a.token_to_index == b.token_to_index

    def test_lookup_oov_is_unk(self):
        assert small_vocab().lookup("zebra") == UNK


class TestTokenize:
    def test_lowercase_and_edge_punctuation(self):
        vocab = Vocabulary.build(["i am furious", "i am furious"], min_freq=2)
        ids = tokenize(vocab, "I am FURIOUS!")
        assert ids == [vocab.lookup("i"), vocab.lookup("am"), vocab.lookup("furious")]
        assert UNK not in ids

    def test_empty_text_yields_pad(self):
        assert tokenize(small_vocab(), "") == [PAD]
        assert tokenize(small_vocab(), "   ") == [PAD]

    def test_pure_punctuation_dropped(self):
        # "!!!" strips to nothing; the rest survive
        vocab = small_vocab()
        assert tokenize(vocab, "!!! ... --") == [PAD]
        assert tokenize(vocab, "cat !!!") == [vocab.lookup("cat")]

    def test_interior_punctuation_kept(self):
        vocab = Vocabulary.build(["don't don't"], min_freq=2)
        assert tokenize(vocab, "Don't") == [vocab.lookup("don't")]

    def test_oov_maps_to_unk(self):
        vocab = small_vocab()
        assert tokenize(vocab, "the unicorn sat") == [
            vocab.lookup("the"),
            UNK,
            vocab.lookup("sat"),
        ]


class TestEncoderModel:
    def test_init_bounds_and_shapes(self):
        vocab = small_vocab()
        model = EncoderModel.init(vocab, d_tok=8, d_e=5, rng=np.random.default_rng(0))
        assert model.embedding.shape == (len(vocab), 8)
        assert model.w1.shape == (8, 5)
        assert model.b1.shape == (5,)
        assert model.d_e == 5
        for arr in model.params().values():
            assert np.all(np.abs(arr) <= 0.05)

    def test_init_deterministic(self):
        vocab = small_vocab()
        a = EncoderModel.init(vocab, 4, 3, np.random.default_rng(9))
        b = EncoderModel.init(vocab, 4, 3, np.random.default_rng(9))
        for key in a.params():
            np.testing.assert_array_equal(a.params()[key], b.params()[key])


class TestEncode:
    def test_zero_params_give_zero(self):
        vocab = small_vocab()
        model = EncoderModel(
            vocab=vocab,
            embedding=np.zeros((len(vocab), 4)),
            w1=np.zeros((4, 3)),
            b1=np.zeros(3),
        )
        np.testing.assert_array_equal(encode(model, [2, 3]), np.zeros(3))

    def test_single_token_formula(self):
        vocab = small_vocab()
        rng = np.random.default_rng(1)
        model = EncoderModel.init(vocab, 4, 3, rng)
        h = encode(model, [2])
        expected = np.tanh(model.embedding[2] @ model.w1 + model.b1)
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_token_order_invariant(self):
        # mean pooling ignores order
        model = EncoderModel.init(small_vocab(), 4, 3, np.random.default_rng(2))
        np.testing.assert_array_equal(encode(model, [2, 3, 4]), encode(model, [4, 2, 3]))

    def test_output_bounded_by_tanh(self):
        model = EncoderModel.init(small_vocab(), 4, 3, np.random.default_rng(3))
        h = encode(model, [2, 3])
        assert np.all(np.abs(h) < 1.0)


class TestEncodeBackward:
    @pytest.mark.parametrize("tokens", [[2], [2, 3, 4], [2, 2, 3]])
    def test_matches_finite_differences(self, tokens):
        vocab = small_vocab()
        rng = np.random.default_rng(5)
        model = EncoderModel.init(vocab, d_tok=4, d_e=3, rng=rng)
        upstream = rng.standard_normal(3)
        grads = encode_backward(model, tokens, upstream)
        for key, arr in model.params().items():
            num = numeric_grad(lambda: float(upstream @ encode(model, tokens)), arr)
            assert rel_err(grads[key], num) < 1e-4, key

    def test_zero_upstream_gives_zero_grads(self):
        model = EncoderModel.init(small_vocab(), 4, 3, np.random.default_rng(6))
        grads = encode_backward(model, [2, 3], np.zeros(3))
        for arr in grads.values():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_duplicate_tokens_accumulate(self):
        # the embedding-row gradient for a token appearing twice is double
        # the per-occurrence contribution
        model = EncoderModel.init(small_vocab(), 4, 3, np.random.default_rng(7))
        upstream = np.ones(3)
        g = encode_backward(model, [2, 2], upstream)
        single_rowsum = encode_backward(model, [2], upstream)["embedding"][2]
        np.testing.assert_allclose(g["embedding"][2], single_rowsum, atol=1e-12)
        untouched = [i for i in range(len(model.embedding)) if i != 2]
        np.testing.assert_array_equal(g["embedding"][untouched], 0.0)


SAMPLES = [[2, 3, 4], [2], [5, 5, 2, 3], [PAD], [4, 3, 2, 2, 6]]


class TestTokenBatch:
    def test_pack_layout(self):
        batch = TokenBatch.pack(SAMPLES)
        assert len(batch) == len(SAMPLES)
        for i, tokens in enumerate(SAMPLES):
            start, length = batch.offsets[i], batch.lengths[i]
            assert batch.ids[start : start + length].tolist() == tokens

    def test_take_reorders_and_slices(self):
        batch = TokenBatch.pack(SAMPLES)
        for rows in ([4, 0, 2], [1], slice(1, 4), np.array([3, 3, 0])):
            taken = batch.take(rows)
            expected = [SAMPLES[i] for i in np.arange(len(SAMPLES))[rows]]
            assert taken.ids.tolist() == [t for tokens in expected for t in tokens]
            assert taken.lengths.tolist() == [len(t) for t in expected]

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            TokenBatch.pack([[2], []])

    def test_tokenize_batch_matches_tokenize(self):
        vocab = small_vocab()
        texts = ["the cat sat", "", "A dog ran!", "zebra"]
        batch = tokenize_batch(vocab, texts)
        assert batch.ids.tolist() == [t for text in texts for t in tokenize(vocab, text)]


class TestBatchedEncoder:
    def model(self, seed=11):
        vocab = Vocabulary.build(["a b c d e f g", "a b c d e f g"], min_freq=1)
        return EncoderModel.init(vocab, d_tok=4, d_e=3, rng=np.random.default_rng(seed))

    def test_encode_batch_matches_per_sample(self):
        model = self.model()
        hs = encode_batch(model, TokenBatch.pack(SAMPLES))
        assert hs.shape == (len(SAMPLES), model.d_e)
        for tokens, h in zip(SAMPLES, hs):
            np.testing.assert_allclose(h, encode(model, tokens), rtol=0, atol=1e-12)

    def test_backward_matches_sum_of_per_sample(self):
        model = self.model()
        batch = TokenBatch.pack(SAMPLES)
        upstream = np.random.default_rng(12).standard_normal((len(SAMPLES), model.d_e))
        grads = encode_batch_backward(model, batch, encode_batch(model, batch), upstream)
        expected = {k: np.zeros_like(v) for k, v in model.params().items()}
        for tokens, g in zip(SAMPLES, upstream):
            for key, arr in encode_backward(model, tokens, g).items():
                expected[key] += arr
        for key in expected:
            np.testing.assert_allclose(grads[key], expected[key], rtol=0, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        model = self.model(seed=13)
        batch = TokenBatch.pack(SAMPLES)
        upstream = np.random.default_rng(14).standard_normal((len(SAMPLES), model.d_e))
        grads = encode_batch_backward(model, batch, encode_batch(model, batch), upstream)
        for key, arr in model.params().items():
            num = numeric_grad(lambda: float(np.sum(upstream * encode_batch(model, batch))), arr)
            assert rel_err(grads[key], num) < 1e-4, key

    def test_chunks_cover_every_row_in_order(self, monkeypatch):
        model = self.model()
        samples = [SAMPLES[i % len(SAMPLES)] for i in range(23)]
        batch = TokenBatch.pack(samples)
        monkeypatch.setattr(encoder, "CHUNK_ROWS", 5)
        chunks = list(encode_chunks(model, batch))
        assert [len(c) for c in chunks] == [5, 5, 5, 5, 3]
        np.testing.assert_array_equal(np.concatenate(chunks), encode_batch(model, batch))
