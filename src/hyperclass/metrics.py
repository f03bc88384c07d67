"""Accuracy, class-size-weighted F1, per-class breakdowns, confusion matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EvalResult:
    """per_class rows are (n_c, precision, recall, f1); confusion is
    (m, m) with rows = gold class, columns = predicted class."""

    accuracy: float
    weighted_f1: float
    per_class: list[tuple[int, float, float, float]]
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "weighted_f1": self.weighted_f1,
            "per_class": [[n, p, r, f] for n, p, r, f in self.per_class],
            "confusion": self.confusion.tolist(),
        }


def evaluate(
    preds: list[int] | np.ndarray, golds: list[int] | np.ndarray, num_classes: int
) -> EvalResult:
    """Weighted F1 = sum_c (n_c / N) * 2 P_c R_c / (P_c + R_c).

    Zero-denominator precision, recall, or F1 is defined as 0; classes
    absent from both preds and golds contribute 0 with n_c = 0.
    """
    if len(preds) != len(golds):
        raise ValueError(f"preds length {len(preds)} != golds length {len(golds)}")
    if len(golds) == 0:
        raise ValueError("cannot evaluate zero samples")
    p = np.asarray(preds, dtype=np.int64)
    g = np.asarray(golds, dtype=np.int64)
    bad = (p < 0) | (p >= num_classes) | (g < 0) | (g >= num_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"class index out of range: pred={preds[i]} gold={golds[i]} m={num_classes}"
        )
    cells = np.bincount(g * num_classes + p, minlength=num_classes * num_classes)
    confusion = cells.reshape(num_classes, num_classes)
    n = len(golds)
    tp = np.diag(confusion)
    n_c = confusion.sum(axis=1)
    pred_c = confusion.sum(axis=0)
    precision = np.divide(tp, pred_c, out=np.zeros(num_classes), where=pred_c > 0)
    recall = np.divide(tp, n_c, out=np.zeros(num_classes), where=n_c > 0)
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros(num_classes), where=both > 0)
    per_class = list(zip(n_c.tolist(), precision.tolist(), recall.tolist(), f1.tolist()))
    weighted_f1 = float(np.sum(n_c / n * f1))
    accuracy = float(np.trace(confusion)) / n
    return EvalResult(accuracy, weighted_f1, per_class, confusion)
