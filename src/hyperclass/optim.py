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
the same way, so the moment decay, the update pass and the final
subtraction are one array operation each over every parameter. A
parameter may take its gradient as rows (the embedding rows a text batch
touched): the decay and update still cover every element, and only the
adding of exact zeros to the other rows' moments is skipped, so every
parameter stays bitwise the textbook update. The dense gradients are
copied into one scratch row laid out like the parameters, so their moment
updates run once per span of consecutive dense keys, not once per key;
and once the first bias correction 1 - beta1**t rounds to exactly 1.0
(step 356 for beta1 = 0.9), the update skips dividing by it. A step reads
every gradient before it changes any state.
"""

from __future__ import annotations

import numpy as np

from .ball import exp_map, riemannian_grad


# The Adam constants of Kingma & Ba (2015), which Becigneul & Ganea (2019)
# keep for Riemannian Adam; both optimizers use them.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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
    `flat`, laid out in sorted key order; built from copies of `arrays`.

    An operation over every parameter (a finiteness check, a copy, a
    restore, Adam's update) is one call on `flat`. Update the views in
    place; a key rebound to another array leaves the buffer.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        super().__init__()
        self.flat = np.concatenate([np.ravel(arrays[k]) for k in sorted(arrays)], dtype=np.float64)
        self.update(_views(self.flat, arrays))


def _views(flat: np.ndarray, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A view of `flat` shaped like each of `arrays`, back to back in sorted key order."""
    views, offset = {}, 0
    for key in sorted(arrays):
        size = np.size(arrays[key])
        views[key] = flat[offset : offset + size].reshape(np.shape(arrays[key]))
        offset += size
    return views


class Adam:
    """Plain Euclidean Adam over a FlatParams.

    Moments and parameters are updated in place through two scratch
    buffers, with the same floating-point operations in the same order as
    the textbook expressions, so results are bitwise those of the
    out-of-place form. m, v and the scratch are rows of one flat buffer
    laid out like `params.flat`; `m` and `v` map each key to its view.
    """

    def __init__(self, params: FlatParams, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._flat = np.zeros((4, len(params.flat)))
        self.m, self.v, _, self._g = (_views(row, params) for row in self._flat)
        # Per set of row-gradient keys: (g, scratch, m, v) views of each span
        # of consecutive dense-gradient keys in the flat layout.
        self._spans: dict[frozenset, list[tuple[np.ndarray, ...]]] = {}

    def _dense_spans(self, row_keys: frozenset) -> list[tuple[np.ndarray, ...]]:
        spans = self._spans.get(row_keys)
        if spans is None:
            bounds, stop = [], 0
            for key, view in self.m.items():
                start, stop = stop, stop + view.size
                if key in row_keys:
                    continue
                if bounds and bounds[-1][1] == start:
                    bounds[-1][1] = stop
                else:
                    bounds.append([start, stop])
            m, v, a, b = self._flat
            spans = [(b[i:j], a[i:j], m[i:j], v[i:j]) for i, j in bounds]
            self._spans[row_keys] = spans
        return spans

    def step(self, grads: dict[str, np.ndarray], rows: dict[str, np.ndarray] | None = None) -> None:
        """One step; `grads` needs every key of params. `rows` maps the key
        of a parameter whose gradient comes as rows to their distinct
        indices along its first axis; grads[key] then holds only those rows,
        and every other row's gradient is zero: stage two passes the
        `(rows, grads)` of `encode_batch_backward` as rows={"embedding": rows}.

        Every gradient is read before any state changes, so a missing one
        raises KeyError and leaves t, m, v and the parameters as they were.
        """
        rows = rows or {}
        # The dense gradients are copied into the last scratch row, laid out
        # like the parameters, so their moment updates run once per span of
        # consecutive keys rather than once per key.
        row_grads = {}
        for key, g in self._g.items():
            if key in rows:
                row_grads[key] = grads[key]
            else:
                np.copyto(g, grads[key])
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        m, v, a, b = self._flat
        m *= BETA1
        v *= BETA2
        for g, s, m_span, v_span in self._dense_spans(frozenset(rows)):
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(g, 1.0 - BETA1, out=s)
            m_span += s
            # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(g, 1.0 - BETA2, out=s)
            s *= g
            v_span += s
        for key, g in row_grads.items():
            # m[r] = beta1 * m[r] + (1 - beta1) * g, and likewise v, on the
            # given rows only: the other rows would add exact zeros.
            r = rows[key]
            self.m[key][r] += g * (1.0 - BETA1)
            gg = g * (1.0 - BETA2)
            gg *= g
            self.v[key][r] += gg
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
        self.params.flat -= a
