"""Desk-scale trainable text encoder: whitespace tokenizer, trainable
token-embedding table, mean pooling, and a tanh MLP layer.

The downstream loss only needs a differentiable text -> fixed-dim map;
this is the minimal trainable one. A batch of samples is packed into one
flat token array with per-sample offsets and lengths (`TokenBatch`), so
the forward and backward passes are a few array operations per batch;
`encode` and `encode_backward` are one-sample calls into the same kernels.
"""

from __future__ import annotations

import string
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

UNK = 0
PAD = 1


@dataclass
class Vocabulary:
    """Token -> dense index map with UNK (0) and PAD (1) reserved."""

    token_to_index: dict[str, int]

    @classmethod
    def build(cls, texts: list[str], min_freq: int = 2) -> "Vocabulary":
        counts: dict[str, int] = {}
        for text in texts:
            for token in _split(text):
                counts[token] = counts.get(token, 0) + 1
        mapping = {"<unk>": UNK, "<pad>": PAD}
        for token in sorted(counts):
            if counts[token] >= min_freq and token not in mapping:
                mapping[token] = len(mapping)
        return cls(mapping)

    def __len__(self) -> int:
        return len(self.token_to_index)

    def lookup(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)


def _split(text: str) -> list[str]:
    out = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            out.append(token)
    return out


def tokenize(vocab: Vocabulary, text: str) -> list[int]:
    """Lowercase, split on whitespace, strip edge punctuation, map OOV to UNK.

    Empty input yields a single PAD token so every sample has at least one
    index to pool over.
    """
    index = vocab.token_to_index
    tokens = [index.get(t, UNK) for t in _split(text)]
    return tokens if tokens else [PAD]


@dataclass(frozen=True)
class TokenBatch:
    """Token ids of n samples in one flat array: sample i is
    ids[offsets[i] : offsets[i] + lengths[i]], and every length is >= 1."""

    ids: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @classmethod
    def pack(cls, samples: list[list[int]]) -> "TokenBatch":
        lengths = np.array([len(tokens) for tokens in samples], dtype=np.intp)
        if lengths.size and lengths.min() < 1:
            raise ValueError("every sample needs at least one token")
        ids = np.fromiter(
            (t for tokens in samples for t in tokens), dtype=np.intp, count=int(lengths.sum())
        )
        return cls(ids, _starts(lengths), lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, rows) -> "TokenBatch":
        """The samples at `rows` (an index array or a slice), in that order."""
        lengths = self.lengths[rows]
        offsets = _starts(lengths)
        source = np.repeat(self.offsets[rows] - offsets, lengths)
        return TokenBatch(self.ids[source + np.arange(len(source))], offsets, lengths)


def _starts(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros_like(lengths)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets


def tokenize_batch(vocab: Vocabulary, texts: list[str]) -> TokenBatch:
    return TokenBatch.pack([tokenize(vocab, text) for text in texts])


@dataclass
class EncoderModel:
    """Mean-pooled token embeddings followed by one tanh layer.

    embedding: (|V|, d_tok), w1: (d_tok, d_e), b1: (d_e,).
    """

    vocab: Vocabulary
    embedding: np.ndarray
    w1: np.ndarray
    b1: np.ndarray

    @classmethod
    def init(
        cls,
        vocab: Vocabulary,
        d_tok: int,
        d_e: int,
        rng: np.random.Generator,
        scale: float = 0.05,
    ) -> "EncoderModel":
        return cls(
            vocab=vocab,
            embedding=rng.uniform(-scale, scale, size=(len(vocab), d_tok)),
            w1=rng.uniform(-scale, scale, size=(d_tok, d_e)),
            b1=rng.uniform(-scale, scale, size=d_e),
        )

    @property
    def d_e(self) -> int:
        return self.w1.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "w1": self.w1, "b1": self.b1}


# Rows per call when encoding a whole dataset. The gathered token
# embeddings of a chunk are rows * tokens * d_tok floats (about 0.4 MB at
# 12 tokens and d_tok 64), which stay in cache; 64-row chunks evaluated an
# 11.8k-row set as fast as 256-row chunks with a lower peak memory.
CHUNK_ROWS = 64


def _pool(model: EncoderModel, batch: TokenBatch) -> np.ndarray:
    sums = np.add.reduceat(model.embedding[batch.ids], batch.offsets, axis=0)
    return sums / batch.lengths[:, None]


def encode_batch(model: EncoderModel, batch: TokenBatch) -> np.ndarray:
    """h = tanh(meanpool(embedding[tokens]) @ w1 + b1), one row per sample."""
    return np.tanh(_pool(model, batch) @ model.w1 + model.b1)


def encode_batch_backward(
    model: EncoderModel, batch: TokenBatch, h: np.ndarray, upstream_grad: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum_i upstream_grad[i] . h[i] w.r.t. the encoder
    parameters, where h = encode_batch(model, batch).

    Returns dense arrays shaped like the parameters; embedding rows see the
    1/length factor of mean pooling, and repeated tokens accumulate.
    """
    dpre = upstream_grad * (1.0 - h * h)
    dpooled = (dpre @ model.w1.T) / batch.lengths[:, None]
    # Token-by-sample occurrence counts over the batch's distinct tokens:
    # row t of the embedding gradient is sum_i counts[t, i] * dpooled[i].
    tokens, inverse = np.unique(batch.ids, return_inverse=True)
    samples = np.repeat(np.arange(len(batch)), batch.lengths)
    counts = np.bincount(inverse * len(batch) + samples, minlength=len(tokens) * len(batch))
    embedding = np.zeros_like(model.embedding)
    embedding[tokens] = counts.reshape(len(tokens), len(batch)).astype(float) @ dpooled
    return {
        "w1": _pool(model, batch).T @ dpre,
        "b1": dpre.sum(axis=0),
        "embedding": embedding,
    }


def encode_chunks(model: EncoderModel, batch: TokenBatch) -> Iterator[np.ndarray]:
    """encode_batch over consecutive chunks of CHUNK_ROWS samples."""
    for start in range(0, len(batch), CHUNK_ROWS):
        yield encode_batch(model, batch.take(slice(start, start + CHUNK_ROWS)))


def encode(model: EncoderModel, tokens: list[int]) -> np.ndarray:
    """h for one sample."""
    return encode_batch(model, TokenBatch.pack([tokens]))[0]


def encode_backward(
    model: EncoderModel, tokens: list[int], upstream_grad: np.ndarray
) -> dict[str, np.ndarray]:
    """encode_batch_backward for one sample."""
    batch = TokenBatch.pack([tokens])
    h = encode_batch(model, batch)
    return encode_batch_backward(model, batch, h, np.asarray(upstream_grad)[None, :])
