"""Classification head: logits, hyperbolic distance weights, and the
distance-weighted cross-entropy with full analytic backward pass.

The head owns two linear maps on top of the encoder output h: a logit
layer (d_e -> m) and a projection layer (d_e -> h_d) whose output is
mapped into the Poincare ball via the exponential map at the origin.
The per-sample weight w_i is the ball distance between that projected
point and the frozen embedding of the true label; the batch loss is
mean(w_i * ce_i) with gradients through both factors.

`logits`, `predict`, `project_representation` and the hyper-weight
functions take h as one (d_e,) row or an (n, d_e) batch; the batch losses
compute every term and vector-Jacobian product on (n, .) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import distance, distance_grad, exp_map_origin, exp_map_origin_vjp, project_to_ball
from .config import WEIGHT_NORMS
from .errors import ConfigError
from .hierarchy import LabelEmbeddings


@dataclass
class ClassifierHead:
    """Logit layer w_c (d_e, m), b_c (m,); projection layer w_p (d_e, h_d), b_p (h_d,)."""

    w_c: np.ndarray
    b_c: np.ndarray
    w_p: np.ndarray
    b_p: np.ndarray

    @classmethod
    def init(
        cls,
        d_e: int,
        num_classes: int,
        hyper_dim: int,
        rng: np.random.Generator,
        scale: float = 0.05,
    ) -> "ClassifierHead":
        return cls(
            w_c=rng.uniform(-scale, scale, size=(d_e, num_classes)),
            b_c=rng.uniform(-scale, scale, size=num_classes),
            w_p=rng.uniform(-scale, scale, size=(d_e, hyper_dim)),
            b_p=rng.uniform(-scale, scale, size=hyper_dim),
        )

    @property
    def num_classes(self) -> int:
        return self.w_c.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"w_c": self.w_c, "b_c": self.b_c, "w_p": self.w_p, "b_p": self.b_p}


@dataclass
class LossReport:
    """total = mean over the batch of (effective weight_i) * ce_i."""

    total: float
    per_sample: list[tuple[float, float]]
    n: int


def logits(head: ClassifierHead, h: np.ndarray) -> np.ndarray:
    return h @ head.w_c + head.b_c


def predict(head: ClassifierHead, h: np.ndarray) -> int | np.ndarray:
    """Argmax class of each row (an int for one row); ties go to the lowest index."""
    pred = np.argmax(logits(head, h), axis=-1)
    return int(pred) if pred.ndim == 0 else pred


def _ce_and_dlogits(c: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(c)[y] via log-sum-exp, and its gradient
    softmax(c) - onehot(y) with respect to the logits."""
    rows = np.arange(len(ys))
    shifted = c - c.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    ces = np.log(total[:, 0]) - shifted[rows, ys]
    dlogits = e / total
    dlogits[rows, ys] -= 1.0
    return ces, dlogits


def cross_entropy(c: np.ndarray, y: int) -> float:
    """-log softmax(c)[y] for one logit row."""
    return float(_ce_and_dlogits(np.asarray(c)[None, :], np.array([y]))[0][0])


def project_representation(head: ClassifierHead, h: np.ndarray) -> np.ndarray:
    """Ball point exp_0(w_p^T h + b_p), clamped inside the ball."""
    return project_to_ball(exp_map_origin(h @ head.w_p + head.b_p))


def hyper_weight(head: ClassifierHead, h: np.ndarray, e_y: np.ndarray) -> float | np.ndarray:
    """w = d(exp_0(w_p^T h + b_p), e_y)."""
    return distance(project_representation(head, h), e_y)


def hyper_weight_backward(
    head: ClassifierHead, h: np.ndarray, e_y: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Returns (w, dw/d(tangent vector), dw/dh) per row; the label point is frozen."""
    v = h @ head.w_p + head.b_p
    z = project_to_ball(exp_map_origin(v))
    w = distance(z, e_y)
    dz, _ = distance_grad(z, e_y)
    dv = exp_map_origin_vjp(v, dz)
    return w, dv, dv @ head.w_p.T


def class_embedding_matrix(labels: LabelEmbeddings, class_leaves: list[str]) -> np.ndarray:
    """Stack frozen label vectors in class-index order; copy, so later
    mutation of the matrix cannot touch the source embeddings."""
    missing = [node for node in class_leaves if node not in labels]
    if missing:
        raise ConfigError(f"no label embedding for class leaves: {', '.join(missing)}")
    return np.stack([labels.vector(node) for node in class_leaves]).astype(float)


def ce_batch(
    head: ClassifierHead, hs: np.ndarray, ys: np.ndarray
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Plain mean cross-entropy baseline; weights reported as 1."""
    n = hs.shape[0]
    ces, dlogits = _ce_and_dlogits(logits(head, hs), ys)
    dlogits /= n
    grads = {
        "w_c": hs.T @ dlogits,
        "b_c": dlogits.sum(axis=0),
        "w_p": np.zeros_like(head.w_p),
        "b_p": np.zeros_like(head.b_p),
        "h": dlogits @ head.w_c.T,
    }
    return LossReport(float(ces.mean()), [(ce, 1.0) for ce in ces.tolist()], n), grads


def weighted_ce_batch(
    head: ClassifierHead,
    hs: np.ndarray,
    ys: np.ndarray,
    label_matrix: np.ndarray,
    weight_norm: str = "none",
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """total = (1/N) sum_i w_i * ce_i, with gradients through both factors.

    With weight_norm="batch-mean" the raw distances are divided by their
    batch mean (differentiated through); the report stores the effective
    weights. Label embeddings receive no gradient.
    """
    if weight_norm not in WEIGHT_NORMS:
        raise ConfigError(f"unknown weight norm {weight_norm!r}")
    n = hs.shape[0]
    ces, dlogits = _ce_and_dlogits(logits(head, hs), ys)
    raw_w, dv, dh_w = hyper_weight_backward(head, hs, label_matrix[ys])

    if weight_norm == "batch-mean":
        mean_w = raw_w.mean()
        eff_w = raw_w / mean_w
        total = float(np.mean(eff_w * ces))
        # d total / d raw_w_k for total = (1/N) sum_i (w_i / mu) ce_i, mu = mean(w)
        dtotal_dw = (ces / mean_w - total / mean_w) / n
    else:
        eff_w = raw_w
        total = float(np.mean(eff_w * ces))
        dtotal_dw = ces / n

    dlogits *= (eff_w / n)[:, None]
    dv *= dtotal_dw[:, None]
    grads = {
        "w_c": hs.T @ dlogits,
        "b_c": dlogits.sum(axis=0),
        "w_p": hs.T @ dv,
        "b_p": dv.sum(axis=0),
        "h": dlogits @ head.w_c.T + dtotal_dw[:, None] * dh_w,
    }
    report = LossReport(total, list(zip(ces.tolist(), eff_w.tolist())), n)
    return report, grads
