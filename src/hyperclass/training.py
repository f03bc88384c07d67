"""Classifier training loop: encoder + head under plain or
distance-weighted cross-entropy, with per-epoch dev evaluation and
best-dev-weighted-F1 parameter selection.

Every run starts from fresh parameters drawn from the config seed: the
vocabulary keeps the training tokens seen at least twice, and the
head's ball projection has the label embedding dim.

Every parameter lives in one flat buffer (`optim.FlatParams`) under its
field name (`w_c`, `b_c`, `w_p`, `b_p`, `b1`, `w1`, then `embedding`
last; the `enc.`/`head.` section names are the checkpoint's alone), so
the per-epoch finiteness check, the best-parameter copy and its restore
are one call each. The batch loss is picked once per run. The training
and dev sets are tokenized and packed once per run; each epoch gathers
its permuted training samples once, and each minibatch is a contiguous
span of them: one encoder forward pass that also returns its VJP, one
batched loss with its backward pass, that VJP of the loss's gradient of
h (the embedding gradient as the batch's token rows) and one Adam step,
which adds into every parameter's scaled moments (the embedding's on its
touched rows only) and updates the whole flat buffer. Runs are bitwise reproducible for a
fixed seed; against textbook dense Adam, every parameter's rounding
differs. A batch whose loss is not finite (the only per-batch check)
raises NumericalError naming the epoch and the batch; after each
epoch's last batch, a parameter that is not finite raises
NumericalError naming the epoch and the first such parameter in sorted
key order, before dev evaluation and the best-parameter copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .config import ClassifierConfig
from .data import LabeledDataset
from .encoder import (
    EncoderModel,
    TokenBatch,
    Vocabulary,
    encode_batch_vjp,
    encode_chunks,
    tokenize_batch,
)
# Unused here, but kept importable as training.encode: the tracer test in
# perfbench/test_perfbench.py checks that this import site is rebound.
from .encoder import encode  # noqa: F401
from .errors import ConfigError, DatasetError, NumericalError
from .hierarchy import LabelEmbeddings
from .loss import ClassifierHead, ce_batch, class_embedding_matrix, predict, weighted_ce_batch
from .metrics import EvalResult, evaluate
from .optim import Adam, FlatParams


@dataclass
class TrainResult:
    model: EncoderModel
    head: ClassifierHead
    history: list[dict]
    best_epoch: int
    best_dev_wf1: float


def _texts(ds: LabeledDataset) -> list[str]:
    return [text for text, _ in ds.samples]


def evaluate_model(
    model: EncoderModel,
    head: ClassifierHead,
    ds: LabeledDataset,
    tokens: TokenBatch | None = None,
) -> tuple[EvalResult, list[int]]:
    """Score the model on ds, encoding CHUNK_ROWS samples per call.

    `tokens` is ds already tokenized with model.vocab; it is computed
    here when not given."""
    if tokens is None:
        tokens = tokenize_batch(model.vocab, _texts(ds))
    preds = np.concatenate([predict(head, h) for h in encode_chunks(model, tokens)])
    golds = np.fromiter((y for _, y in ds.samples), dtype=np.int64, count=len(ds.samples))
    return evaluate(preds, golds, len(ds.label_names)), preds.tolist()


def train_classifier(
    train_ds: LabeledDataset,
    dev_ds: LabeledDataset,
    config: ClassifierConfig,
    labels: LabelEmbeddings | None = None,
    class_map: list[tuple[str, str]] | None = None,
    progress: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Stage-two trainer. For loss="wce", `labels` and `class_map` supply
    the frozen ball embedding for each class; for loss="ce" both may be
    None. Dataset class order must match the class map order. An empty
    training or dev split is a DatasetError, raised before any training."""
    config.validate()
    for role, ds in (("training", train_ds), ("dev", dev_ds)):
        if not ds.samples:
            raise DatasetError(f"the {role} split is empty")
    batch_loss = ce_batch
    label_matrix = None
    if config.loss == "wce":
        if labels is None or class_map is None:
            raise ConfigError("wce loss requires label embeddings and a class map")
        map_labels = [lab for lab, _ in class_map]
        if map_labels != train_ds.label_names:
            raise ConfigError(
                "dataset classes do not match the class map: "
                f"{train_ds.label_names} vs {map_labels}"
            )
        label_matrix = class_embedding_matrix(labels, [node for _, node in class_map])
        batch_loss = partial(weighted_ce_batch, label_matrix=label_matrix)

    rng = np.random.default_rng(config.seed)
    vocab = Vocabulary.build(_texts(train_ds))
    model = EncoderModel.init(vocab, config.d_tok, config.d_e, rng)
    # ce never uses w_p/b_p, but still draws them, at dim 2: another size
    # would shift every later draw of rng and so change ce results.
    hyper_dim = 2 if label_matrix is None else label_matrix.shape[1]
    head = ClassifierHead.init(config.d_e, len(train_ds.label_names), hyper_dim, rng)

    params = FlatParams(head.params() | model.params())
    model = replace(model, **{k: params[k] for k in model.params()})
    head = replace(head, **{k: params[k] for k in head.params()})
    opt = Adam(params, lr=config.lr)

    train_tokens = tokenize_batch(vocab, _texts(train_ds))
    dev_tokens = tokenize_batch(vocab, _texts(dev_ds))
    train_ys = np.array([y for _, y in train_ds.samples], dtype=np.int64)
    n = len(train_tokens)

    history: list[dict] = []
    # Epoch 0's weighted F1 is at least 0, so it always sets best_flat.
    best_epoch = -1
    best_wf1 = -1.0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_tokens = train_tokens.take(order)
        epoch_ys = train_ys[order]
        epoch_loss = 0.0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            tokens = epoch_tokens.span(start, start + config.batch_size)
            ys = epoch_ys[start : start + config.batch_size]
            hs, encoder_vjp = encode_batch_vjp(model, tokens)
            try:
                total, grads = batch_loss(head, hs, ys)
                if not math.isfinite(total):
                    raise NumericalError("non-finite loss")
            except NumericalError as exc:
                raise NumericalError(f"stage two, epoch {epoch}, batch {batch_idx}: {exc}") from None
            epoch_loss += total * len(ys)
            rows, enc_grads = encoder_vjp(grads.pop("h"))
            opt.step(enc_grads | grads, rows)
        # A batch's loss only shows a bad step at the next batch, so check
        # the parameters the epoch's last step wrote before they are scored
        # or kept.
        if not np.isfinite(params.flat).all():
            key = next(k for k in sorted(params) if not np.isfinite(params[k]).all())
            raise NumericalError(f"stage two, epoch {epoch}: non-finite parameter {key}")
        dev_result, _ = evaluate_model(model, head, dev_ds, dev_tokens)
        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / n,
            "dev_acc": dev_result.accuracy,
            "dev_wf1": dev_result.weighted_f1,
        }
        history.append(record)
        if progress is not None:
            progress(record)
        if dev_result.weighted_f1 > best_wf1:
            best_wf1 = dev_result.weighted_f1
            best_epoch = epoch
            best_flat = params.flat.copy()
    np.copyto(params.flat, best_flat)
    return TrainResult(model, head, history, best_epoch, best_wf1)
