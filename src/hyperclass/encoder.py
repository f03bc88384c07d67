"""Desk-scale trainable text encoder: whitespace tokenizer, trainable
token-embedding table, mean pooling, and a tanh MLP layer.

The downstream loss only needs a differentiable text -> fixed-dim map;
this is the minimal trainable one. A batch of samples is packed into one
flat token array with per-sample offsets and lengths (`TokenBatch`), so
the forward and backward passes are a few array operations per batch.
The backward pass returns the embedding gradient as rows: the batch's
distinct tokens and one gradient row each, never a (vocab, d_tok) table.
`encode` and `encode_backward` are one-sample calls into the same
kernels; `encode_backward` returns a dense table.

Tokenizing has one rule and one implementation, `tokenize_batch`:
lowercase the text, split it on whitespace and strip edge punctuation
from each piece. Texts are taken CHUNK_ROWS at a time with no call per
text: one comprehension splits the chunk, one `np.fromiter` counts each
text's pieces and one maps every piece to its id through a memo shared
by the whole list, which normalizes and looks up each distinct piece
once, so the per-token work is a dict lookup in C. Only when a piece
strips to nothing or a text is empty does one mask drop those pieces,
recount the lengths and put PAD into each empty text. `tokenize` is
`tokenize_batch` of one text.
"""

from __future__ import annotations

import string
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .optim import _distinct_rows

UNK = 0
PAD = 1


@dataclass
class Vocabulary:
    """Token -> dense index map with UNK (0) and PAD (1) reserved."""

    token_to_index: dict[str, int]

    @classmethod
    def build(cls, texts: list[str], min_freq: int = 2) -> "Vocabulary":
        pieces = Counter(piece for text in texts for piece in text.lower().split())
        counts: dict[str, int] = {}
        for piece, n in pieces.items():
            token = _normalize(piece)
            if token:
                counts[token] = counts.get(token, 0) + n
        mapping = {"<unk>": UNK, "<pad>": PAD}
        for token in sorted(counts):
            if counts[token] >= min_freq and token not in mapping:
                mapping[token] = len(mapping)
        return cls(mapping)

    def __len__(self) -> int:
        return len(self.token_to_index)


def _normalize(piece: str) -> str:
    """The token of one lowercased whitespace-split piece; empty if the
    piece is all punctuation."""
    return piece.strip(string.punctuation)


# Memo value of a piece that normalizes to nothing; never a vocabulary id.
_SKIP = -1


class _PieceIds(dict):
    """Raw piece -> vocabulary id (UNK when out of vocabulary), or _SKIP
    for a piece that normalizes to nothing. A missing piece is normalized
    and looked up once, then served from the dict."""

    def __init__(self, vocab: Vocabulary):
        super().__init__()
        self.index = vocab.token_to_index

    def __missing__(self, piece: str) -> int:
        token = _normalize(piece)
        value = self[piece] = self.index.get(token, UNK) if token else _SKIP
        return value


def tokenize(vocab: Vocabulary, text: str) -> list[int]:
    """Lowercase, split on whitespace, strip edge punctuation, map OOV to UNK.

    Empty input yields a single PAD token so every sample has at least one
    index to pool over.
    """
    return tokenize_batch(vocab, [text]).ids.tolist()


@dataclass(frozen=True)
class TokenBatch:
    """Token ids of n samples in one flat array: sample i is
    ids[offsets[i] : offsets[i] + lengths[i]], the samples lie back to
    back in order, and every length is >= 1."""

    ids: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @classmethod
    def pack(cls, samples: list[list[int]]) -> "TokenBatch":
        lengths = np.array([len(tokens) for tokens in samples], dtype=np.intp)
        if lengths.size and lengths.min() < 1:
            raise ValueError("every sample needs at least one token")
        ids = np.fromiter(chain.from_iterable(samples), dtype=np.intp, count=int(lengths.sum()))
        return cls(ids, _starts(lengths), lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, rows) -> "TokenBatch":
        """The samples at `rows` (an index array or a slice), in that order."""
        lengths = self.lengths[rows]
        offsets = _starts(lengths)
        source = np.repeat(self.offsets[rows] - offsets, lengths)
        return TokenBatch(self.ids[source + np.arange(len(source))], offsets, lengths)

    def span(self, start: int, stop: int) -> "TokenBatch":
        """Samples start..stop-1 (stop clipped to the batch, start < len(self)),
        as views: their ids are one contiguous run, so nothing is gathered."""
        lengths = self.lengths[start:stop]
        first = self.offsets[start]
        ids = self.ids[first : first + int(lengths.sum())]
        return TokenBatch(ids, self.offsets[start:stop] - first, lengths)


def _starts(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros_like(lengths)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets


# Rows per call when tokenizing or encoding a whole dataset. The gathered
# token embeddings of a chunk are rows * tokens * d_tok floats (about
# 0.4 MB at 12 tokens and d_tok 64), which stay in cache; 64-row chunks
# evaluated an 11.8k-row set as fast as 256-row chunks with a lower peak
# memory. Splitting that set's texts all at once held 11.9 MiB of piece
# strings; 64-text chunks peaked at 2.5 MiB and tokenized as fast.
CHUNK_ROWS = 64


def tokenize_batch(vocab: Vocabulary, texts: list[str]) -> TokenBatch:
    """`tokenize` of every text, packed; each distinct piece is normalized
    once. Texts are split CHUNK_ROWS at a time, so only one chunk's piece
    strings are alive at once."""
    memo = _PieceIds(vocab)
    # Seeded with empty parts so that an empty list packs to an empty batch.
    ids_parts, count_parts = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for start in range(0, len(texts), CHUNK_ROWS):
        pieces = [text.lower().split() for text in texts[start : start + CHUNK_ROWS]]
        counts = np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))
        ids_parts.append(
            np.fromiter(
                map(memo.__getitem__, chain.from_iterable(pieces)),
                dtype=np.intp,
                count=int(counts.sum()),
            )
        )
        count_parts.append(counts)
    ids, lengths = np.concatenate(ids_parts), np.concatenate(count_parts)
    if ids.min(initial=0) == _SKIP or not lengths.all():
        keep = ids != _SKIP
        owner = np.repeat(np.arange(len(lengths)), lengths)
        lengths = np.bincount(owner[keep], minlength=len(lengths))
        empty = np.flatnonzero(lengths == 0)
        ids = np.insert(ids[keep], _starts(lengths)[empty], PAD)
        lengths[empty] = 1
    return TokenBatch(ids, _starts(lengths), lengths)


# Half-width of the uniform draw of every encoder and head parameter:
# small enough that tanh starts in its linear range and every logit near 0.
INIT_SCALE = 0.05


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
        cls, vocab: Vocabulary, d_tok: int, d_e: int, rng: np.random.Generator
    ) -> "EncoderModel":
        return cls(
            vocab=vocab,
            embedding=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(len(vocab), d_tok)),
            w1=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(d_tok, d_e)),
            b1=rng.uniform(-INIT_SCALE, INIT_SCALE, size=d_e),
        )

    def params(self) -> dict[str, np.ndarray]:
        # The embedding last: Adam steps it by rows, as the tail of the layout.
        return {"b1": self.b1, "w1": self.w1, "embedding": self.embedding}


def encode_batch(model: EncoderModel, batch: TokenBatch) -> np.ndarray:
    """h = tanh(meanpool(embedding[tokens]) @ w1 + b1), one row per sample."""
    return encode_batch_pooled(model, batch)[0]


def encode_batch_pooled(model: EncoderModel, batch: TokenBatch) -> tuple[np.ndarray, np.ndarray]:
    """(h, pooled): encode_batch and the mean-pooled token embeddings it
    was computed from, which encode_batch_backward reuses."""
    sums = np.add.reduceat(model.embedding.take(batch.ids, axis=0), batch.offsets, axis=0)
    pooled = sums / batch.lengths[:, None]
    return np.tanh(pooled @ model.w1 + model.b1), pooled


def encode_batch_backward(
    model: EncoderModel,
    batch: TokenBatch,
    h: np.ndarray,
    upstream_grad: np.ndarray,
    pooled: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(rows, grads): gradients of sum_i upstream_grad[i] . h[i] w.r.t. the
    encoder parameters, where h, pooled = encode_batch_pooled(model, batch).

    `rows` holds the batch's distinct token ids, sorted, and
    grads["embedding"] their (len(rows), d_tok) gradient rows; every other
    row's gradient is zero. This is the row-step form of
    `hierarchy.label_loss`. "w1" and "b1" are dense. Rows see the 1/length
    factor of mean pooling, and repeated tokens accumulate.
    """
    dpre = upstream_grad * (1.0 - h * h)
    dpooled = (dpre @ model.w1.T) / batch.lengths[:, None]
    # Token-by-sample occurrence counts over the batch's distinct tokens:
    # row t of the embedding gradient is sum_i counts[t, i] * dpooled[i].
    rows, inverse = _distinct_rows(batch.ids, len(model.embedding))
    samples = np.repeat(np.arange(len(batch)), batch.lengths)
    counts = np.bincount(inverse * len(batch) + samples, minlength=len(rows) * len(batch))
    return rows, {
        "w1": pooled.T @ dpre,
        "b1": dpre.sum(axis=0),
        "embedding": counts.reshape(len(rows), len(batch)).astype(float) @ dpooled,
    }


def encode_chunks(model: EncoderModel, batch: TokenBatch) -> Iterator[np.ndarray]:
    """encode_batch over consecutive chunks of CHUNK_ROWS samples."""
    for start in range(0, len(batch), CHUNK_ROWS):
        yield encode_batch(model, batch.span(start, start + CHUNK_ROWS))


def encode(model: EncoderModel, tokens: list[int]) -> np.ndarray:
    """h for one sample."""
    return encode_batch(model, TokenBatch.pack([tokens]))[0]


def encode_backward(
    model: EncoderModel, tokens: list[int], upstream_grad: np.ndarray
) -> dict[str, np.ndarray]:
    """encode_batch_backward for one sample, with the embedding gradient
    as a dense table shaped like model.embedding."""
    batch = TokenBatch.pack([tokens])
    h, pooled = encode_batch_pooled(model, batch)
    rows, grads = encode_batch_backward(model, batch, h, np.asarray(upstream_grad)[None, :], pooled)
    table = np.zeros_like(model.embedding)
    table[rows] = grads["embedding"]
    return grads | {"embedding": table}
