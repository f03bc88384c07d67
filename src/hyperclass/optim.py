"""First-order optimizers.

RiemannianAdam updates rows of a (n, d) matrix of Poincare-ball points
in one batched step: gradients are rescaled by the inverse metric, the
Adam direction goes through the exponential map, and moments are (n, d)
coordinate matrices without parallel transport between steps.

Adam (Euclidean, for the encoder and classifier head, without weight
decay) lives here too so both training stages share one home.
"""

from __future__ import annotations

import numpy as np

from .ball import exp_map, riemannian_grad


class RiemannianAdam:
    """Riemannian Adam (Becigneul & Ganea 2019) over the rows of `points`,
    a (n, d) matrix of ball points updated in place.

    Each row keeps its own step count, so a row's bias correction counts
    only the steps that touched it, exactly as if every row had its own
    optimizer.
    """

    def __init__(
        self,
        points: np.ndarray,
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.points = points
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(points)
        self.v = np.zeros_like(points)
        self.t = np.zeros(len(points), dtype=np.int64)

    def step(self, rows: np.ndarray, euclid_grad: np.ndarray, lr: float | None = None) -> None:
        """One step on the distinct `rows`, with (len(rows), d) Euclidean
        gradients. `lr` overrides self.lr for this step only (the burn-in
        phase of stage one)."""
        theta = self.points[rows]
        g = riemannian_grad(theta, euclid_grad)
        t = self.t[rows] + 1
        self.t[rows] = t
        m = self.beta1 * self.m[rows] + (1.0 - self.beta1) * g
        v = self.beta2 * self.v[rows] + (1.0 - self.beta2) * g * g
        self.m[rows] = m
        self.v[rows] = v
        m_hat = m / (1.0 - self.beta1**t)[:, None]
        v_hat = v / (1.0 - self.beta2**t)[:, None]
        step_lr = self.lr if lr is None else lr
        self.points[rows] = exp_map(theta, -step_lr * m_hat / (np.sqrt(v_hat) + self.eps))


class Adam:
    """Plain Euclidean Adam over a dict of named parameter arrays.

    Updates happen in sorted key order so repeated runs touch memory
    identically. Moments and parameters are updated in place through two
    scratch buffers per parameter, with the same floating-point operations
    in the same order as the textbook expressions, so results are bitwise
    those of the out-of-place form.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self._scratch = {k: (np.empty_like(p), np.empty_like(p)) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key in sorted(self.params):
            g = grads[key]
            m, v, p = self.m[key], self.v[key], self.params[key]
            a, b = self._scratch[key]
            # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            # v = beta2 * v + (1 - beta2) * g * g
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
