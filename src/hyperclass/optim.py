"""First-order optimizers.

RiemannianAdam / rsgd_step update parameters living on the Poincare ball:
the Euclidean gradient is rescaled by the inverse metric
(1 - ||theta||^2)^2 / 4, the step is taken through the exponential map,
and the result is projected back into the ball. Adam moments are kept as
flat coordinate vectors without parallel transport between steps.

Adam (Euclidean, for the encoder and classifier head) lives here too so
both training stages share one home.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ball import exp_map, project_to_ball


def riemannian_grad(theta: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Rescale a Euclidean gradient by the inverse ball metric at theta.

    g_theta = lambda_theta^2 I, so g^-1 grad = grad * (1 - ||theta||^2)^2 / 4.
    """
    sq = float(np.dot(theta, theta))
    factor = (1.0 - sq) ** 2 / 4.0
    return euclid_grad * factor


def rsgd_step(theta: np.ndarray, euclid_grad: np.ndarray, lr: float) -> np.ndarray:
    """One Riemannian SGD step: exp_theta(-lr * riemannian_grad)."""
    step = -lr * riemannian_grad(theta, euclid_grad)
    return project_to_ball(exp_map(theta, step))


@dataclass
class AdamState:
    """Per-parameter Riemannian Adam state (moments stored as flat vectors)."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(default=None)  # type: ignore[assignment]
    v: np.ndarray = field(default=None)  # type: ignore[assignment]
    step_count: int = 0

    def ensure_shape(self, dim: int) -> None:
        if self.m is None:
            self.m = np.zeros(dim)
            self.v = np.zeros(dim)


def radam_step(
    state: AdamState,
    theta: np.ndarray,
    euclid_grad: np.ndarray,
    lr: float | None = None,
) -> np.ndarray:
    """One Riemannian Adam step on a single ball parameter.

    The gradient is rescaled to the Riemannian gradient, moments are updated
    with the usual exponential averages and bias correction, and the update
    direction -lr * m_hat / (sqrt(v_hat) + eps) is taken through the
    exponential map at theta. `lr` overrides state.lr for this step only
    (used by the burn-in phase). Mutates `state` and returns the new theta.
    """
    state.ensure_shape(theta.shape[0])
    g = riemannian_grad(theta, euclid_grad)
    state.step_count += 1
    t = state.step_count
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1**t)
    v_hat = state.v / (1.0 - state.beta2**t)
    step_lr = state.lr if lr is None else lr
    direction = -step_lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return project_to_ball(exp_map(theta, direction))


class Adam:
    """Plain Euclidean Adam over a dict of named parameter arrays.

    Optional decoupled weight decay; updates happen in sorted key order so
    repeated runs touch memory identically. Moments and parameters are
    updated in place through two scratch buffers per parameter, with the
    same floating-point operations in the same order as the textbook
    expressions, so results are bitwise those of the out-of-place form.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
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
            if self.weight_decay:
                np.multiply(p, self.lr * self.weight_decay, out=a)
                p -= a
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
