"""Classification head: logits, hyperbolic distance weights, and the
distance-weighted cross-entropy with full analytic backward pass.

The head owns two linear maps on top of the encoder output h: a logit
layer (d_e -> m) and a projection layer (d_e -> h_d) whose output is
mapped into the Poincare ball via the exponential map at the origin.
The per-sample weight w_i is the ball distance between that projected
point and the frozen embedding of the true label; the batch loss is
mean(w_i * ce_i) with gradients through both factors.

`logits`, `predict` and `project_representation` take h as one (d_e,)
row or an (n, d_e) batch; the batch losses compute every term and
vector-Jacobian product on (n, .) arrays and return (total, grads): the
float batch loss and its gradients. Both take their batch means as a
sum over n, the bits of numpy's `mean` without its Python-level wrapper.
The weight comes from the ball kernel `exp_origin_distance_vjp`, which
takes stage one's distance terms on the (n, h_d) rows, one pair per
row, and chains the gradient of the projected point through exp_0; the
loss passes it d total / d w as the cotangent. Both batch losses take
the logit layer's gradients (w_c, b_c and its term of h) from one
helper, and only the weighted loss adds the projection layer's (w_p,
b_p and dv @ w_p^T into h). The frozen label points reach the batch
losses as one (m, h_d) matrix, row y for class y, which
`class_embedding_matrix` gathers once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import exp_map_origin, exp_origin_distance_vjp
from .encoder import INIT_SCALE
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
        cls, d_e: int, num_classes: int, hyper_dim: int, rng: np.random.Generator
    ) -> "ClassifierHead":
        return cls(
            w_c=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(d_e, num_classes)),
            b_c=rng.uniform(-INIT_SCALE, INIT_SCALE, size=num_classes),
            w_p=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(d_e, hyper_dim)),
            b_p=rng.uniform(-INIT_SCALE, INIT_SCALE, size=hyper_dim),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {"w_c": self.w_c, "b_c": self.b_c, "w_p": self.w_p, "b_p": self.b_p}


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


def project_representation(head: ClassifierHead, h: np.ndarray) -> np.ndarray:
    """Ball point exp_0(w_p^T h + b_p), clamped inside the ball."""
    return exp_map_origin(h @ head.w_p + head.b_p)


def class_embedding_matrix(labels: LabelEmbeddings, class_leaves: list[str]) -> np.ndarray:
    """The frozen label vectors of class_leaves, in class-index order, as
    one gather of their rows; a copy, so later mutation of the matrix
    cannot touch the source embeddings."""
    row = {node: i for i, node in enumerate(labels.nodes)}
    missing = [node for node in class_leaves if node not in row]
    if missing:
        raise ConfigError(f"no label embedding for class leaves: {', '.join(missing)}")
    return np.asarray(labels.vectors, dtype=float)[[row[node] for node in class_leaves]]


def _logit_grads(head: ClassifierHead, hs: np.ndarray, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """The logit layer's gradients, w_c and b_c, and its term of h's,
    given the gradient of the batch loss w.r.t. the logits."""
    return {"w_c": hs.T @ dlogits, "b_c": dlogits.sum(axis=0), "h": dlogits @ head.w_c.T}


def ce_batch(
    head: ClassifierHead, hs: np.ndarray, ys: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """total = (1/N) sum_i ce_i: the plain cross-entropy baseline, every weight 1."""
    n = hs.shape[0]
    ces, dlogits = _ce_and_dlogits(logits(head, hs), ys)
    dlogits /= n
    grads = _logit_grads(head, hs, dlogits)
    grads["w_p"] = np.zeros_like(head.w_p)
    grads["b_p"] = np.zeros_like(head.b_p)
    return float(ces.sum() / n), grads


def weighted_ce_batch(
    head: ClassifierHead,
    hs: np.ndarray,
    ys: np.ndarray,
    label_matrix: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """total = (1/N) sum_i w_i * ce_i, with gradients through both factors.

    w_i is the raw distance d(exp_0(w_p^T h_i + b_p), label_matrix[y_i]).
    Label embeddings receive no gradient.
    """
    n = hs.shape[0]
    ces, dlogits = _ce_and_dlogits(logits(head, hs), ys)
    w, vjp = exp_origin_distance_vjp(hs @ head.w_p + head.b_p, label_matrix[ys])
    total = float((w * ces).sum() / n)
    dtotal_dw = ces / n
    dlogits *= (w / n)[:, None]
    dv = vjp(dtotal_dw)
    grads = _logit_grads(head, hs, dlogits)
    grads["w_p"] = hs.T @ dv
    grads["b_p"] = dv.sum(axis=0)
    grads["h"] += dv @ head.w_p.T
    return total, grads
