"""Adam (Kingma & Ba 2015), the one optimizer of both training stages.

Adam steps a `FlatParams`, and its moments and scratch are one flat
buffer laid out the same way. Every parameter keeps scaled moments with
a cached square root, updated on the rows a step touches (see `Adam`);
the last parameter of the layout may take its gradient as rows. A step
reads every gradient before it changes any state, and ends with a
retraction that moves the parameters by the Adam step: `x -= a` unless
the caller gives another.

Stage two (the encoder and classifier head, without weight decay) keeps
`x -= a`, with the embedding, whose batch touches few rows, as the row
parameter. Stage one is Riemannian Adam (Becigneul & Ganea 2019) over
the rows of a (n, d) matrix of Poincare-ball points: it passes its
whole (n, d) gradient table, with no rows, rescaled by the inverse
metric (`ball.riemannian_grad`), and the exponential map as the
retraction, and its moments are coordinate matrices without parallel
transport between steps.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# The Adam constants of Kingma & Ba (2015), which Becigneul & Ganea (2019)
# keep for Riemannian Adam.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Steps between two rescales of Adam's scaled moments: BETA1**s is then
# about 2**-400, far above underflow, and m / BETA1**s stays finite for any
# gradient below about 1e188.
RESCALE_STEPS = 2630


class FlatParams(dict):
    """Named parameter arrays that are views of one 1-D float64 buffer,
    `flat`, laid out in the insertion order of `arrays`; built from copies
    of `arrays`.

    An operation over every parameter (a finiteness check, a copy, a
    restore, Adam's update) is one call on `flat`. Update the views in
    place; a key rebound to another array leaves the buffer. Adam takes
    row gradients only for the last key, so stage two puts the embedding
    last.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        super().__init__()
        self.flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        self.update(_views(self.flat, arrays))


def _views(flat: np.ndarray, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A view of `flat` shaped like each of `arrays`, back to back in key order."""
    views, offset = {}, 0
    for key, array in arrays.items():
        size = np.size(array)
        views[key] = flat[offset : offset + size].reshape(np.shape(array))
        offset += size
    return views


def _subtract(x: np.ndarray, a: np.ndarray) -> None:
    """The Euclidean retraction: x -= a in place."""
    x -= a


class Adam:
    """Adam over a FlatParams, with one update rule for every parameter.

    Each parameter keeps scaled moments M = m / BETA1**s and
    V = v / BETA2**s, s (`self.s`) counting the steps since the last
    rescale, and their root R = sqrt(V). A step adds its gradient into M
    and V and recomputes R on the rows it touches, and no pass decays the
    others; the update lr * (m / bc1) / (sqrt(v / bc2) + eps) is then
    k * M / (R + eps / q), with scalars q = sqrt(BETA2**s / bc2) and
    k = lr * BETA1**s / (bc1 * q), in four passes over the buffer. Every RESCALE_STEPS steps M and V are
    multiplied back by BETA1**s and BETA2**s. This is textbook Adam up to
    rounding. A row no step touches keeps its start value bitwise (its
    step is zero, which the exponential map also leaves in place), and a
    row step is bitwise the step on the same gradient as a zero-filled
    table.

    M, V, R and a scratch row are one (4, len(params.flat)) buffer laid
    out like `params.flat`; `m` and `v` map each key to its view of M and V.

    `retract(x, a)` moves `params.flat` (x) by the step a, in place; the
    default subtracts. The learning rate `lr` may be set between steps.
    """

    def __init__(
        self,
        params: FlatParams,
        lr: float,
        retract: Callable[[np.ndarray, np.ndarray], None] = _subtract,
    ):
        self.params = params
        self._keys = list(params)
        self.lr = lr
        self.retract = retract
        self.t = 0
        self.s = 0
        self._flat = np.zeros((4, len(params.flat)))
        self.m, self.v, self._r, self._a = (_views(row, params) for row in self._flat)

    def step(self, grads: dict[str, np.ndarray], rows: np.ndarray | None = None) -> None:
        """One step; `grads` needs every key of params. With `rows`, the
        distinct indices along the first axis of the last parameter of the
        layout, that parameter's gradient holds only those rows and every
        other row's gradient is zero: stage two passes the `(rows, grads)`
        that `encode_batch_vjp`'s VJP returns for the embedding. Stage one
        passes its whole gradient table, with no `rows`.

        Every gradient is read before any state changes, so a KeyError for
        a missing one leaves t, s, m, v and the parameters as they were.
        """
        keys, n = self._keys, len(self.params.flat)
        if rows is not None:
            keys, row_key = keys[:-1], keys[-1]
            row_grads = grads[row_key]
            n -= self.params[row_key].size
        # The dense gradients are copied into a[:n], laid out like the
        # parameters, so each moment update is one pass over the span.
        for key in keys:
            np.copyto(self._a[key], grads[key])
        self.t += 1
        m, v, r, a = self._flat
        if self.s == RESCALE_STEPS:
            m *= BETA1**self.s
            v *= BETA2**self.s
            np.sqrt(v, out=r)
            self.s = 0
        self.s += 1
        scale1, scale2 = BETA1**self.s, BETA2**self.s
        gain1, gain2 = (1.0 - BETA1) / scale1, (1.0 - BETA2) / scale2
        # M += gain1 * g, V += gain2 * g * g and R = sqrt(V) over the dense
        # span, its R the scratch until the root overwrites it.
        dm, dv, dr, g = self._flat[:, :n]
        np.multiply(g, gain1, out=dr)
        dm += dr
        np.multiply(g, gain2, out=dr)
        dr *= g
        dv += dr
        np.sqrt(dv, out=dr)
        if rows is not None:
            # The same expressions on the touched rows of the last parameter.
            self.m[row_key][rows] += row_grads * gain1
            gg = row_grads * gain2
            gg *= row_grads
            v_key = self.v[row_key]
            vr = v_key.take(rows, axis=0)
            vr += gg
            v_key[rows] = vr
            self._r[row_key][rows] = np.sqrt(vr)
        bc1 = 1.0 - BETA1**self.t
        q = (scale2 / (1.0 - BETA2**self.t)) ** 0.5
        np.add(r, EPS / q, out=a)
        np.divide(m, a, out=a)
        a *= self.lr * scale1 / (bc1 * q)
        self.retract(self.params.flat, a)
