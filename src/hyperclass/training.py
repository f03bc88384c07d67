"""Classifier training loop: encoder + head under plain or
distance-weighted cross-entropy, with per-epoch dev evaluation and
best-dev-weighted-F1 parameter selection.

Each minibatch is one packed `TokenBatch`: one encoder forward pass, one
batched loss with its backward pass, one encoder backward pass and one
Adam step. The training and dev sets are tokenized and packed once per
run. Runs are bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ClassifierConfig
from .data import LabeledDataset
from .encoder import (
    EncoderModel,
    TokenBatch,
    Vocabulary,
    encode_batch,
    encode_batch_backward,
    encode_chunks,
    tokenize_batch,
)
# Unused here, but kept importable as training.encode: the tracer test in
# perfbench/test_perfbench.py checks that this import site is rebound.
from .encoder import encode  # noqa: F401
from .errors import ConfigError
from .hierarchy import LabelEmbeddings
from .loss import ClassifierHead, ce_batch, class_embedding_matrix, predict, weighted_ce_batch
from .metrics import EvalResult, evaluate
from .optim import Adam


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
    preds = np.concatenate([predict(head, h) for h in encode_chunks(model, tokens)]).tolist()
    golds = [y for _, y in ds.samples]
    return evaluate(preds, golds, len(ds.label_names)), preds


def train_classifier(
    train_ds: LabeledDataset,
    dev_ds: LabeledDataset,
    config: ClassifierConfig,
    labels: LabelEmbeddings | None = None,
    class_map: list[tuple[str, str]] | None = None,
    progress: Callable[[dict], None] | None = None,
    init_params: tuple[EncoderModel, ClassifierHead] | None = None,
) -> TrainResult:
    """Stage-two trainer. For loss="wce", `labels` and `class_map` supply
    the frozen ball embedding for each class; for loss="ce" both may be
    None. Dataset class order must match the class map order.

    `init_params` warm-starts from an existing (model, head) pair, copied
    so the originals stay untouched; the vocabulary comes from that model
    and fresh optimizer state is used."""
    config.validate()
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

    rng = np.random.default_rng(config.seed)
    if init_params is not None:
        src_model, src_head = init_params
        model = EncoderModel(
            vocab=src_model.vocab,
            embedding=src_model.embedding.copy(),
            w1=src_model.w1.copy(),
            b1=src_model.b1.copy(),
        )
        head = ClassifierHead(
            w_c=src_head.w_c.copy(),
            b_c=src_head.b_c.copy(),
            w_p=src_head.w_p.copy(),
            b_p=src_head.b_p.copy(),
        )
        vocab = model.vocab
    else:
        vocab = Vocabulary.build(_texts(train_ds), min_freq=config.min_freq)
        model = EncoderModel.init(vocab, config.d_tok, config.d_e, rng)
        if config.hyper_dim is not None:
            hyper_dim = config.hyper_dim
        elif label_matrix is not None:
            hyper_dim = label_matrix.shape[1]
        else:
            hyper_dim = 2
        head = ClassifierHead.init(config.d_e, len(train_ds.label_names), hyper_dim, rng)
    if label_matrix is not None and head.w_p.shape[1] != label_matrix.shape[1]:
        raise ConfigError(
            f"projection dim {head.w_p.shape[1]} does not match label dim {label_matrix.shape[1]}"
        )

    params = {f"enc.{k}": v for k, v in model.params().items()}
    params.update({f"head.{k}": v for k, v in head.params().items()})
    opt = Adam(params, lr=config.lr, weight_decay=config.weight_decay)

    train_tokens = tokenize_batch(vocab, _texts(train_ds))
    dev_tokens = tokenize_batch(vocab, _texts(dev_ds))
    train_ys = np.array([y for _, y in train_ds.samples], dtype=np.int64)
    n = len(train_tokens)

    history: list[dict] = []
    best_epoch = -1
    best_wf1 = -1.0
    best_params: dict[str, np.ndarray] = {}
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            tokens = train_tokens.take(batch)
            ys = train_ys[batch]
            hs = encode_batch(model, tokens)
            if config.loss == "wce":
                report, grads = weighted_ce_batch(head, hs, ys, label_matrix, config.weight_norm)
            else:
                report, grads = ce_batch(head, hs, ys)
            epoch_loss += report.total * len(batch)
            enc_grads = encode_batch_backward(model, tokens, hs, grads["h"])
            step_grads = {f"enc.{k}": v for k, v in enc_grads.items()}
            step_grads.update({f"head.{k}": grads[k] for k in ("w_c", "b_c", "w_p", "b_p")})
            opt.step(step_grads)
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
            best_params = {k: v.copy() for k, v in params.items()}
    for key, value in best_params.items():
        np.copyto(params[key], value)
    return TrainResult(model, head, history, best_epoch, best_wf1)
