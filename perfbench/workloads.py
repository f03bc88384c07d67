"""The four benchmark workloads.

Each workload generates its inputs from the seed in `setup`, then runs
one closed-loop iteration per `execute` call: one client, one process,
the next iteration starting only after the previous one returned. Only
public hyperclass functions are called; `execute` times those calls and
nothing else, and `check` verifies every output afterwards, outside the
timed (and traced) region.

An operation is one pipeline run, one stage-one run or one CLI command.
It fails on an exception, a non-zero exit, a non-finite loss or
parameter, or a failed output check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from hyperclass import checkpoint, cli, data, encoder, experiments, hierarchy, loss, training
from hyperclass.config import ClassifierConfig, LabelEmbedConfig, SynthSpec
from hyperclass.errors import HyperclassError

# Stage-one epochs of the Parrott workload: 40 of the default 300 keep one
# iteration near 5 s (about 0.13 s/epoch) so a run holds several, and the
# 10 burn-in epochs plus 30 full-rate epochs already reach a stable MAP.
PARROTT_EPOCHS = 40
# The served model of infer-cli is trained briefly, because set-up is
# repeated: at lr 0.03, eight stage-two epochs reach a test weighted F1 of
# 0.75-0.85, where the default lr needs far more epochs to leave chance.
INFER_LABEL_EPOCHS = 50
INFER_CLF = ClassifierConfig(epochs=8, lr=0.03)
# 2000 draws per class with 1% train and 1% dev leave 11,760 test rows.
INFER_SPEC = SynthSpec(samples_per_class=2000, train_fraction=0.01, dev_fraction=0.01)
# Export rows are compared with in-process projections after exp_0.
BALL_TOLERANCE = 1e-9


@dataclass
class Iteration:
    """One closed-loop iteration: the timed region, timed sub-intervals,
    operations, failures and quality guards.

    `intervals` maps a phase (`stage_two`, one tuple per epoch;
    `stage_one`; `evaluate`; `export`) to (start, end, items, epochs)
    tuples of perf_counter times.
    """

    operations: int
    run: tuple[float, float] = (0.0, 0.0)
    intervals: dict[str, list[tuple[float, float, int, int]]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return self.run[1] - self.run[0]

    def fail(self, operation: str, message: str) -> None:
        self.failures.setdefault(operation, message)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _check_floor(it: Iteration, operation: str, key: str, value: float, floor: float) -> None:
    it.quality[key] = value
    if not (math.isfinite(value) and value >= floor):
        it.fail(operation, f"{key} {value!r} below reference floor {floor}")


def _check_ball(it: Iteration, operation: str, emb: hierarchy.LabelEmbeddings) -> None:
    if not _finite(emb.vectors):
        it.fail(operation, "non-finite label embedding")
    elif np.max(np.linalg.norm(emb.vectors, axis=1)) >= 1.0:
        it.fail(operation, "label embedding outside the ball")


@contextlib.contextmanager
def _recording(module, name: str, calls: list[dict], progress: bool = False):
    """Rebind `module.name` to a wrapper that records each call's result,
    start and end times and (optionally) per-epoch progress timestamps."""
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        record = {"epoch_ends": []}
        if progress and kwargs.get("progress") is None:
            kwargs["progress"] = lambda _rec: record["epoch_ends"].append(perf_counter())
        record["start"] = perf_counter()
        record["result"] = original(*args, **kwargs)
        record["end"] = perf_counter()
        calls.append(record)
        return record["result"]

    setattr(module, name, recorder)
    try:
        yield
    finally:
        setattr(module, name, original)


class SynthPipeline:
    """`experiments.run_synthetic_pipeline(seed, loss, mode="expert")` at
    default sizes: 6 classes, 840 train samples, 30 stage-two epochs and,
    for wce, 300 stage-one epochs on the 8-edge tree."""

    operations = 1
    rate_phase = "stage_two"
    quality_key = "test_wf1"

    def __init__(self, loss_name: str, references: dict):
        self.loss = loss_name
        self.refs = references

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        tree, _ = data.make_family_tree(2, 3)
        train, dev, test = data.generate_synthetic(tree, replace(SynthSpec(), seed=seed))
        if min(len(train), len(dev), len(test)) == 0:
            raise RuntimeError("empty synthetic split")
        self.n_train = len(train)
        self.tree = hierarchy.build_tree(tree.edges, tree.class_leaves)
        self.label_epochs = experiments.default_label_config().epochs
        self.label_pairs = self.label_epochs * len(self.tree.edges)

    def execute(self, it: Iteration) -> tuple:
        stage_one: list[dict] = []
        stage_two: list[dict] = []
        with _recording(experiments, "train_label_embeddings", stage_one), _recording(
            experiments, "train_classifier", stage_two, progress=True
        ):
            start = perf_counter()
            result = experiments.run_synthetic_pipeline(self.seed, loss=self.loss, mode="expert")
            it.run = (start, perf_counter())
        for record in stage_two:
            ends = record["epoch_ends"]
            it.intervals["stage_two"] = [(a, b, self.n_train, 1) for a, b in zip(ends, ends[1:])]
        for record in stage_one:
            it.intervals["stage_one"] = [
                (record["start"], record["end"], self.label_pairs, self.label_epochs)
            ]
        return result, stage_one, stage_two

    def check(self, it: Iteration, outputs: tuple) -> None:
        result, stage_one, stage_two = outputs
        op = "pipeline"
        _check_floor(it, op, "test_wf1", float(result["test_wf1"]), self.refs["test_wf1_min"])
        if len(stage_two) != 1:
            it.fail(op, f"expected one stage-two run, saw {len(stage_two)}")
            return
        trained = stage_two[0]["result"]
        params = list(trained.model.params().values()) + list(trained.head.params().values())
        if not _finite(*params, [r["train_loss"] for r in trained.history]):
            it.fail(op, "non-finite stage-two loss or parameter")
        if self.loss == "wce":
            if len(stage_one) != 1:
                it.fail(op, f"expected one stage-one run, saw {len(stage_one)}")
                return
            emb, final_loss = stage_one[0]["result"]
            if final_loss is None or not math.isfinite(final_loss):
                it.fail(op, f"non-finite stage-one loss {final_loss!r}")
            _check_ball(it, op, emb)
            label_map = hierarchy.reconstruction_map(emb, self.tree)
            _check_floor(it, op, "label_map", label_map, self.refs["label_map_min"])
        elif stage_one:
            it.fail(op, "ce pipeline ran stage one")



class ParrottLabels:
    """`train_label_embeddings` + `reconstruction_map` on the bundled
    Parrott taxonomy (133 nodes, 127 edges, dim 10)."""

    operations = 1
    rate_phase = "stage_one"
    quality_key = "label_map"

    def __init__(self, references: dict, epochs: int = PARROTT_EPOCHS):
        self.refs = references
        self.epochs = epochs

    def setup(self, seed: int, workdir: Path) -> None:
        edges = hierarchy.parse_taxonomy(hierarchy.bundled_taxonomy_path())
        self.tree = hierarchy.build_tree(edges, [])
        self.cfg = LabelEmbedConfig(dim=10, epochs=self.epochs, seed=seed)
        self.cfg.validate()

    def execute(self, it: Iteration) -> tuple:
        start = perf_counter()
        emb, final_loss = hierarchy.train_label_embeddings(self.tree, self.cfg)
        trained = perf_counter()
        label_map = hierarchy.reconstruction_map(emb, self.tree)
        it.run = (start, perf_counter())
        pairs = self.epochs * len(self.tree.edges)
        it.intervals["stage_one"] = [(start, trained, pairs, self.epochs)]
        return emb, final_loss, label_map

    def check(self, it: Iteration, outputs: tuple) -> None:
        emb, final_loss, label_map = outputs
        op = "stage-one"
        if final_loss is None or not math.isfinite(final_loss):
            it.fail(op, f"non-finite stage-one loss {final_loss!r}")
        _check_ball(it, op, emb)
        _check_floor(it, op, "label_map", label_map, self.refs["label_map_min"])



class InferCli:
    """`hyperclass.cli.main` in-process: `evaluate`, then
    `export-embeddings --space tangent`, on a trained checkpoint and an
    11,760-row test TSV written in set-up."""

    operations = 2
    rate_phase = "evaluate"
    quality_key = "test_wf1"

    def __init__(self, references: dict):
        self.refs = references

    def setup(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.ckpt = workdir / "clf.ckpt"
        self.test_tsv = workdir / "test.tsv"
        self.eval_json = workdir / "eval.json"
        self.export_tsv = workdir / "export.tsv"
        tree, class_map = data.make_family_tree(2, 3)
        train, dev, _ = data.generate_synthetic(tree, replace(SynthSpec(), seed=seed))
        _, _, test = data.generate_synthetic(tree, replace(INFER_SPEC, seed=seed + 1))
        expert = hierarchy.build_tree(tree.edges, tree.class_leaves)
        labels, _ = hierarchy.train_label_embeddings(
            expert, LabelEmbedConfig(dim=10, epochs=INFER_LABEL_EPOCHS, seed=seed)
        )
        cfg = replace(INFER_CLF, seed=seed)
        trained = training.train_classifier(train, dev, cfg, labels=labels, class_map=class_map)
        checkpoint.save_classifier_checkpoint(
            self.ckpt, trained.model, trained.head, train.label_names, cfg.to_dict(), seed
        )
        data.save_dataset(test, self.test_tsv)
        self.n_rows = len(test)
        self._reference = None

    def _cli(self, argv: list[str]) -> tuple[int, str, tuple[float, float]]:
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue(), (start, perf_counter())

    def execute(self, it: Iteration) -> tuple:
        for path in (self.eval_json, self.export_tsv):
            path.unlink(missing_ok=True)
        eval_code, eval_out, eval_t = self._cli(
            ["evaluate", "--model", str(self.ckpt), "--data", str(self.test_tsv),
             "--out-json", str(self.eval_json)]
        )
        export_code, export_out, export_t = self._cli(
            ["export-embeddings", "--model", str(self.ckpt), "--data", str(self.test_tsv),
             "--space", "tangent", "--out", str(self.export_tsv)]
        )
        it.run = (eval_t[0], export_t[1])
        it.intervals["evaluate"] = [(*eval_t, self.n_rows, 1)]
        it.intervals["export"] = [(*export_t, self.n_rows, 1)]
        return eval_code, eval_out, export_code, export_out

    def check(self, it: Iteration, outputs: tuple) -> None:
        eval_code, eval_out, export_code, export_out = outputs
        if eval_code != 0:
            it.fail("evaluate", f"exit {eval_code}: {eval_out.strip()}")
        else:
            self._check_evaluate(it, eval_out)
        if export_code != 0:
            it.fail("export", f"exit {export_code}: {export_out.strip()}")
        else:
            self._check_export(it)

    def reference(self) -> dict:
        """In-process results on the same checkpoint and TSV, computed once."""
        if self._reference is None:
            ck = checkpoint.load_checkpoint(self.ckpt, expect_stage=checkpoint.STAGE_CLASSIFIER)
            ds = data.load_dataset(self.test_tsv, ck.class_names, split="test")
            result, _ = training.evaluate_model(ck.model, ck.head, ds)
            ball = np.array(
                [
                    loss.project_representation(
                        ck.head, encoder.encode(ck.model, encoder.tokenize(ck.model.vocab, text))
                    )
                    for text, _ in ds.samples
                ]
            )
            self._reference = {
                "accuracy": result.accuracy,
                "weighted_f1": result.weighted_f1,
                "ball": ball,
            }
        return self._reference

    def _check_evaluate(self, it: Iteration, stdout: str) -> None:
        ref = self.reference()
        try:
            printed = json.loads(stdout.strip().splitlines()[-1])
            written = json.loads(self.eval_json.read_text(encoding="utf-8"))
        except (ValueError, IndexError, OSError) as exc:
            it.fail("evaluate", f"unreadable evaluate output: {exc}")
            return
        for source in (printed, written):
            got = (source.get("accuracy"), source.get("weighted_f1"))
            if got != (ref["accuracy"], ref["weighted_f1"]):
                it.fail("evaluate", f"evaluate {got} != in-process {ref['accuracy'], ref['weighted_f1']}")
        _check_floor(it, "evaluate", "test_wf1", float(printed["weighted_f1"]), self.refs["test_wf1_min"])

    def _check_export(self, it: Iteration) -> None:
        ref = self.reference()["ball"]
        try:
            tangent = hierarchy.load_embeddings_tsv(self.export_tsv).vectors
        except (ValueError, OSError, HyperclassError) as exc:
            it.fail("export", f"unreadable export: {exc}")
            return
        if tangent.shape != ref.shape:
            it.fail("export", f"export shape {tangent.shape} != input rows {ref.shape}")
            return
        if not _finite(tangent):
            it.fail("export", "non-finite exported row")
            return
        # exp_0(v) = tanh(|v|) v / |v| maps the tangent rows back into the ball.
        norms = np.linalg.norm(tangent, axis=1, keepdims=True)
        scale = np.divide(np.tanh(norms), norms, out=np.ones_like(norms), where=norms > 0)
        ball = tangent * scale
        if np.max(np.linalg.norm(ball, axis=1)) >= 1.0:
            it.fail("export", "ball-space row outside the ball")
        elif np.max(np.abs(ball - ref)) > BALL_TOLERANCE:
            it.fail("export", "ball-space rows differ from project_representation")



WORKLOADS = ("synth-wce", "synth-ce", "parrott-labels", "infer-cli")


def make_workload(name: str, references: dict):
    refs = references[name]
    if name == "synth-wce":
        return SynthPipeline("wce", refs)
    if name == "synth-ce":
        return SynthPipeline("ce", refs)
    if name == "parrott-labels":
        return ParrottLabels(refs)
    if name == "infer-cli":
        return InferCli(refs)
    raise ValueError(f"unknown workload {name!r}")
