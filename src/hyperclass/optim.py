"""First-order optimizers.

RiemannianAdam updates rows of a (n, d) matrix of Poincare-ball points
in one batched step: gradients are rescaled by the inverse metric, the
Adam direction goes through the exponential map, and moments are (n, d)
coordinate matrices without parallel transport between steps. A step
gathers and scatters both moments at once, so it costs a fixed few dozen
array operations whatever the number of rows. It keeps no learning
rate: each step takes its own, as stage one lowers it during burn-in.
Both optimizers use the Adam constants BETA1, BETA2 and EPS.

`_distinct_rows` finds the sorted distinct rows of a row step, and where
each given id falls among them, for both stages: the tree-node rows of a
stage-one batch and the token ids of a stage-two batch.

Adam (Euclidean, for the encoder and classifier head, without weight
decay) lives here too so both training stages share one home. It steps a
`FlatParams`, and its moments and scratch are one flat buffer laid out
the same way. The parameters that take their gradient as rows (the
embedding rows a text batch touched) are the tail of the layout: the
dense span before them follows the textbook expressions bitwise, and the
tail keeps scaled moments with a cached square root, touched on the given
rows only (see `Adam`). A step reads every gradient before it changes any
state.
"""

from __future__ import annotations

import numpy as np

from .ball import exp_map, riemannian_grad


# The Adam constants of Kingma & Ba (2015), which Becigneul & Ganea (2019)
# keep for Riemannian Adam; both optimizers use them.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Steps between two rescales of Adam's scaled row moments: BETA1**s is then
# about 2**-400, far above underflow, and m / BETA1**s stays finite for any
# gradient below about 1e188.
RESCALE_STEPS = 2630


def _distinct_rows(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) for ids in [0, n), without the
    sort: a mark per id gives the sorted distinct ids, and their running
    count gives each id's index among them."""
    mark = np.zeros(n, dtype=bool)
    mark[ids] = True
    rows = mark.nonzero()[0]
    index = np.empty(n, dtype=np.intp)
    index[rows] = np.arange(len(rows))
    return rows, index[ids]


class RiemannianAdam:
    """Riemannian Adam (Becigneul & Ganea 2019) over the rows of `points`,
    a (n, d) matrix of ball points updated in place.

    Each row keeps its own step count, so a row's bias correction counts
    only the steps that touched it, exactly as if every row had its own
    optimizer. The moments are the two (n, d) views `m` and `v` of one
    (n, 2, d) buffer, so a step reads and writes both in one gather and
    one scatter.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self._mv = np.zeros((len(points), 2, points.shape[1]))
        self.m, self.v = self._mv[:, 0], self._mv[:, 1]
        self.t = np.zeros(len(points), dtype=np.int64)
        # BETA1 and BETA2, and 1 - each, as columns against a row's (2, d) moments.
        self._decay = np.array([[BETA1], [BETA2]])
        self._gain = 1.0 - self._decay

    def step(self, rows: np.ndarray, euclid_grad: np.ndarray, lr: float) -> None:
        """One step of learning rate `lr` on the distinct `rows`, with
        (len(rows), d) Euclidean gradients."""
        theta = self.points.take(rows, axis=0)
        g = riemannian_grad(theta, euclid_grad)
        t = self.t[rows] + 1
        self.t[rows] = t
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g * g
        mv = self._decay * self._mv.take(rows, axis=0)
        gain = self._gain * g[:, None, :]
        gain[:, 1] *= g
        mv += gain
        self._mv[rows] = mv
        # m_hat and v_hat: each moment over its bias correction 1 - beta**t.
        mv /= (1.0 - self._decay**t).T[:, :, None]
        direction = -lr * mv[:, 0] / (np.sqrt(mv[:, 1]) + EPS)
        self.points[rows] = exp_map(theta, direction)


class FlatParams(dict):
    """Named parameter arrays that are views of one 1-D float64 buffer,
    `flat`, laid out in the insertion order of `arrays`; built from copies
    of `arrays`.

    An operation over every parameter (a finiteness check, a copy, a
    restore, Adam's update) is one call on `flat`. Update the views in
    place; a key rebound to another array leaves the buffer. Adam takes
    row gradients only for the last keys, so stage two puts the embedding
    last and its dense parameters are the one span before it.
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


class Adam:
    """Plain Euclidean Adam over a FlatParams.

    m, v and two scratch rows a, b are one (4, len(params.flat)) buffer
    laid out like `params.flat`; `m` and `v` map each key to its view.
    The keys that take row gradients (see `step`) are the tail of the
    layout, after the dense span [:n].

    The dense span runs the textbook expressions in place, operation for
    operation, so it is bitwise the out-of-place form. The tail stores
    scaled moments M = m / BETA1**s and V = v / BETA2**s, s (`self.s`)
    counting the steps since the last rescale, and their root R = sqrt(V)
    in b: a step adds to M, V and R on the touched rows only, and the
    update lr * (m / bc1) / (sqrt(v / bc2) + eps) is k * M / (R + eps / q)
    with scalars q = sqrt(BETA2**s / bc2) and k = lr * BETA1**s / (bc1 * q).
    Every RESCALE_STEPS steps M and V are multiplied back by BETA1**s and
    BETA2**s. The tail is textbook Adam up to rounding, and a row no step
    touches keeps its start value bitwise.
    """

    def __init__(self, params: FlatParams, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.s = 0
        self._flat = np.zeros((4, len(params.flat)))
        self.m, self.v, _, self._b = (_views(row, params) for row in self._flat)
        # Fixed by the first step (see _fix_row_keys).
        self._row_keys: frozenset | None = None

    def _fix_row_keys(self, row_keys: frozenset) -> None:
        keys = list(self.params)
        dense = keys[: len(keys) - len(row_keys)]
        if set(keys[len(dense) :]) != row_keys:
            raise ValueError(f"row-gradient keys {sorted(row_keys)} are not the last keys of {keys}")
        self._row_keys = row_keys
        n = sum(self.params[k].size for k in dense)
        # The dense gradients are copied into b[:n], laid out like the
        # parameters, so each moment update is one pass over the span.
        self._dense_grads = [(key, self._b[key]) for key in dense]
        self._dense = tuple(row[:n] for row in self._flat)
        self._tail = tuple(row[n:] for row in self._flat)

    def step(self, grads: dict[str, np.ndarray], rows: dict[str, np.ndarray] | None = None) -> None:
        """One step; `grads` needs every key of params. `rows` maps the key
        of a parameter whose gradient comes as rows to their distinct
        indices along its first axis; grads[key] then holds only those rows,
        and every other row's gradient is zero: stage two passes the
        `(rows, grads)` of `encode_batch_backward` as rows={"embedding": rows}.
        The row keys must be the last keys of params, and the same at every
        step (none at all for a dense-only optimizer).

        Every check runs and every gradient is read before any state
        changes, so a ValueError for the row keys or a KeyError for a
        missing gradient leaves t, s, m, v and the parameters as they were.
        """
        rows = rows or {}
        row_keys = frozenset(rows)
        if self._row_keys is None:
            self._fix_row_keys(row_keys)
        elif row_keys != self._row_keys:
            raise ValueError(f"row-gradient keys changed from {sorted(self._row_keys)} to {sorted(row_keys)}")
        row_steps = [(rows[k], grads[k], self.m[k], self.v[k], self._b[k]) for k in rows]
        for key, g in self._dense_grads:
            np.copyto(g, grads[key])
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        m, v, a, b = self._dense
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g * g
        m *= BETA1
        np.multiply(b, 1.0 - BETA1, out=a)
        m += a
        v *= BETA2
        np.multiply(b, 1.0 - BETA2, out=a)
        a *= b
        v += a
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps). Once beta1**t <= 2**-54
        # (from step 356 for beta1 = 0.9), bc1 is exactly 1.0 and m / bc1 is m.
        if bc1 == 1.0:
            np.multiply(m, self.lr, out=a)
        else:
            np.divide(m, bc1, out=a)
            a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        if row_steps:
            self._row_step(row_steps, bc1, bc2)
        self.params.flat -= self._flat[2]

    def _row_step(self, row_steps: list[tuple[np.ndarray, ...]], bc1: float, bc2: float) -> None:
        """Add the row gradients into M, V and R, and write k * M / (R + eps / q) to the tail of a."""
        m, v, a, b = self._tail
        if self.s == RESCALE_STEPS:
            m *= BETA1**self.s
            v *= BETA2**self.s
            np.sqrt(v, out=b)
            self.s = 0
        self.s += 1
        scale1, scale2 = BETA1**self.s, BETA2**self.s
        for r, g, m_key, v_key, root in row_steps:
            # M[r] += (1 - beta1) / beta1**s * g and V[r] += (1 - beta2) / beta2**s * g * g
            m_key[r] += g * ((1.0 - BETA1) / scale1)
            gg = g * ((1.0 - BETA2) / scale2)
            gg *= g
            vr = v_key.take(r, axis=0)
            vr += gg
            v_key[r] = vr
            root[r] = np.sqrt(vr)
        q = (scale2 / bc2) ** 0.5
        np.add(b, EPS / q, out=a)
        np.divide(m, a, out=a)
        a *= self.lr * scale1 / (bc1 * q)
