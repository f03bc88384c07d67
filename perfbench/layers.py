"""Per-layer metrics of a traced iteration.

Layers are the `hyperclass` modules. Every layer reports `M.calls` and
`M.self_s`; a few layers add counters that an optimisation of that layer
is expected to move. The counters are taken by hooks at the call
boundary, from arguments and results only.
"""

from __future__ import annotations

import math

import numpy as np

from tracing import HOOK_NAME, Tracer, layer_of, self_times

LAYERS = (
    "ball",
    "optim",
    "encoder",
    "loss",
    "hierarchy",
    "training",
    "metrics",
    "checkpoint",
    "data",
    "cli",
    "experiments",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    *((f"{layer}.{kind}", unit, "lower") for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("ball.rows", "count", "higher"),
    ("ball.rows_per_call", "count", "higher"),
    ("encoder.backward.grad_row_density", "ratio", "higher"),
    ("optim.adam.grad_row_density", "ratio", "higher"),
    ("optim.adam.bytes", "bytes", "lower"),
    ("training.step_ms.p50", "ms", "lower"),
    ("training.step_ms.p99", "ms", "lower"),
    ("training.step_ms.count", "count", "higher"),
    ("training.dev_eval_s", "s", "lower"),
    ("hierarchy.pairs", "count", "higher"),
    ("hierarchy.stage_one.calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.untraced_share", "ratio", "lower"),
]

ADAM_STEP = "optim.Adam.step"
TRAIN_CLASSIFIER = "training.train_classifier"
EVALUATE_MODEL = "training.evaluate_model"
LABEL_LOSS = "hierarchy.label_loss"
STAGE_ONE = "hierarchy.train_label_embeddings"


class Counters:
    """Hooks for the traced run, keyed by span name, and their totals."""

    def __init__(self):
        self.ball_rows = 0
        self.ball_calls = 0
        self.enc_rows = 0
        self.enc_nonzero = 0
        self.adam_rows = 0
        self.adam_nonzero = 0
        self.adam_bytes = 0
        self.adam_steps = 0

    def hooks(self) -> dict:
        ball = _Hook(after=self._ball_rows)
        return {
            "ball.distance": ball,
            "ball.distance_grad": ball,
            "encoder.encode_backward": _Hook(after=self._encoder_density),
            ADAM_STEP: _Hook(before=self._adam_before, after=self._adam_after),
        }

    def _ball_rows(self, state, args, kwargs, result) -> None:
        points = [np.shape(a) for a in (list(args) + list(kwargs.values()))[:2]]
        lead = max((s[:-1] for s in points), key=len, default=())
        self.ball_rows += math.prod(lead)
        self.ball_calls += 1

    def _encoder_density(self, state, args, kwargs, result) -> None:
        table = result.get("embedding") if isinstance(result, dict) else None
        if table is not None and np.ndim(table) == 2:
            self.enc_rows += table.shape[0]
            self.enc_nonzero += int(np.count_nonzero(np.any(table != 0, axis=1)))

    def _adam_before(self, args, kwargs):
        params = getattr(args[0], "params", None)
        if not isinstance(params, dict):
            return None
        return {k: np.array(v, copy=True) for k, v in params.items()}

    def _adam_after(self, before, args, kwargs, result) -> None:
        if before is None:
            return
        params = args[0].params
        grads = args[1] if len(args) > 1 else next(iter(kwargs.values()), {})
        self.adam_steps += 1
        for key, old in before.items():
            new = params[key]
            # Parameter, first moment and second moment of every changed row.
            changed = np.any((new != old).reshape(len(old), -1), axis=1) if old.ndim else new != old
            row_bytes = old.itemsize * (old.size // max(len(old), 1)) if old.ndim else old.itemsize
            self.adam_bytes += 3 * int(np.count_nonzero(changed)) * row_bytes
            grad = grads.get(key) if isinstance(grads, dict) else None
            if "embedding" in key and grad is not None and np.ndim(grad) == 2:
                self.adam_rows += grad.shape[0]
                self.adam_nonzero += int(np.count_nonzero(np.any(grad != 0, axis=1)))


class _Hook:
    def __init__(self, before=None, after=None):
        self.before = before
        self.after = after


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def step_intervals_ms(names: list[str], spans: dict[str, np.ndarray]) -> np.ndarray:
    """Stage-two step times: the gap between consecutive `Adam.step` ends
    inside one `train_classifier`, less any dev evaluation in that gap."""
    name_ids = {n: i for i, n in enumerate(names)}
    if ADAM_STEP not in name_ids or TRAIN_CLASSIFIER not in name_ids:
        return np.empty(0)
    name, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
    out = []
    trainers = np.flatnonzero(name == name_ids[TRAIN_CLASSIFIER])
    for trainer in trainers:
        steps = np.flatnonzero((name == name_ids[ADAM_STEP]) & (parent == trainer))
        evals = np.flatnonzero((name == name_ids.get(EVALUATE_MODEL, -1)) & (parent == trainer))
        ends = end[steps]
        for a, b in zip(ends[:-1], ends[1:]):
            inside = evals[(start[evals] >= a) & (end[evals] <= b)]
            out.append((b - a - int((end[inside] - start[inside]).sum())) / 1e6)
    return np.array(out)


def per_layer_metrics(
    tracer: Tracer, counters: Counters, traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Every metric of PER_LAYER from one traced iteration."""
    spans = tracer.spans()
    names = tracer.names
    own = self_times(spans["parent"], spans["start"], spans["end"]) / 1e9
    calls_by_name = np.bincount(spans["name"], minlength=len(names))
    self_by_name = np.bincount(spans["name"], weights=own, minlength=len(names))
    out: dict[str, float] = {}
    for layer in LAYERS:
        ids = [i for i, n in enumerate(names) if layer_of(n) == layer and n != HOOK_NAME]
        out[f"{layer}.calls"] = int(calls_by_name[ids].sum())
        out[f"{layer}.self_s"] = float(self_by_name[ids].sum())

    def calls_of(span_name: str) -> int:
        return int(sum(calls_by_name[i] for i, n in enumerate(names) if n == span_name))

    steps = step_intervals_ms(names, spans)
    traced_layers = sum(
        float(self_by_name[i]) for i, n in enumerate(names) if n != HOOK_NAME
    )
    out.update(
        {
            "ball.rows": counters.ball_rows,
            "ball.rows_per_call": _ratio(counters.ball_rows, counters.ball_calls),
            "encoder.backward.grad_row_density": _ratio(counters.enc_nonzero, counters.enc_rows),
            "optim.adam.grad_row_density": _ratio(counters.adam_nonzero, counters.adam_rows),
            "optim.adam.bytes": _ratio(counters.adam_bytes, counters.adam_steps),
            "training.step_ms.p50": float(np.percentile(steps, 50)) if steps.size else 0.0,
            "training.step_ms.p99": float(np.percentile(steps, 99)) if steps.size else 0.0,
            "training.step_ms.count": int(steps.size),
            "training.dev_eval_s": _dev_eval_s(names, spans),
            "hierarchy.pairs": calls_of(LABEL_LOSS),
            "hierarchy.stage_one.calls": calls_of(STAGE_ONE),
            "trace.overhead_ratio": traced_s / untraced_s - 1.0,
            "trace.untraced_share": max(0.0, 1.0 - traced_layers / traced_s),
        }
    )
    return out


def _dev_eval_s(names: list[str], spans: dict[str, np.ndarray]) -> float:
    """Seconds in `evaluate_model` calls made by `train_classifier`."""
    ids = {n: i for i, n in enumerate(names)}
    if EVALUATE_MODEL not in ids or TRAIN_CLASSIFIER not in ids:
        return 0.0
    name, parent = spans["name"], spans["parent"]
    evals = np.flatnonzero(name == ids[EVALUATE_MODEL])
    evals = evals[parent[evals] >= 0]
    evals = evals[name[parent[evals]] == ids[TRAIN_CLASSIFIER]]
    return float((spans["end"][evals] - spans["start"][evals]).sum()) / 1e9
