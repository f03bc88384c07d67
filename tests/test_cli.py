"""End-to-end CLI surface: subcommands, exit codes, seeds, artifacts."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

from helpers import log_map, per_coordinate_tsv
from hyperclass import checkpoint as ckpt
from hyperclass import cli
from hyperclass.ball import log_map_origin
from hyperclass.cli import main
from hyperclass.config import ClassifierConfig, LabelEmbedConfig, SynthSpec
from hyperclass.data import generate_synthetic, load_dataset
from hyperclass.encoder import CHUNK_ROWS, encode_chunks, tokenize_batch
from hyperclass.errors import NumericalError
from hyperclass.hierarchy import load_embeddings_tsv
from hyperclass.loss import project_representation


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


SMALL_DATA = ["--samples-per-class", "20", "--leaf-pool", "12", "--noise-vocab", "30"]
SMALL_CLF = ["--epochs", "2", "--d-tok", "8", "--d-e", "16"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One tiny pipeline run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    code, out, _ = run_cli(["synth-data", "--out-dir", data] + SMALL_DATA)
    assert code == 0
    counts = json.loads(out)
    code, out, _ = run_cli(
        ["train-labels", "--hierarchy", data / "hierarchy.tsv", "--class-map",
         data / "class-map.tsv", "--dim", "4", "--epochs", "30", "--neg", "5",
         "--out", root / "labels.ckpt"]
    )
    assert code == 0
    labels_json = json.loads(out)
    code, out, _ = run_cli(
        ["train-classifier", "--train", data / "train.tsv", "--dev", data / "dev.tsv",
         "--labels-ckpt", root / "labels.ckpt", "--out", root / "clf.ckpt"] + SMALL_CLF
    )
    assert code == 0
    return {
        "root": root,
        "data": data,
        "counts": counts,
        "labels_json": labels_json,
        "labels_ckpt": root / "labels.ckpt",
        "clf_ckpt": root / "clf.ckpt",
        "clf_stdout": out,
    }


class TestSynthData:
    def test_counts_and_files(self, ws):
        # 20 per class: round(.7*20)=14 train, round(.15*20)=3 dev, 3 test
        assert ws["counts"]["train"] == 84
        assert ws["counts"]["dev"] == 18
        assert ws["counts"]["test"] == 18
        assert ws["counts"]["classes"] == 6
        for name in ("train.tsv", "dev.tsv", "test.tsv", "hierarchy.tsv", "class-map.tsv"):
            assert (ws["data"] / name).is_file()

    def test_no_tmp_files(self, ws):
        assert list(ws["data"].glob("*.tmp")) == []
        assert list(ws["root"].glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "flag, value", [("--family-fraction", "-0.5"), ("--leaf-fraction", "-0.3"), ("--leaf-fraction", "nan")]
    )
    def test_bad_synth_fraction_is_one_line_error(self, tmp_path, flag, value):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(["synth-data", "--out-dir", out_dir, flag, value])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be finite and in [0, 1]")
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "per_class, message",
        [("1", "leaves empty splits: dev, test"), ("3", "leaves empty splits: dev")],
    )
    def test_empty_split_is_one_line_error(self, tmp_path, per_class, message):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(["synth-data", "--out-dir", out_dir, "--samples-per-class", per_class])
        assert code == 1
        assert out == ""
        assert err == f"error: --samples-per-class {per_class} {message}\n"
        assert not out_dir.exists()


class TestTrainLabels:
    def test_stdout_and_artifacts(self, ws):
        blob = ws["labels_json"]
        assert blob["final_loss"] > 0.0
        assert 0.0 <= blob["map"] <= 1.0
        loaded = ckpt.load_checkpoint(ws["labels_ckpt"], expect_stage=ckpt.STAGE_LABELS)
        assert loaded.seed == 42  # default seed
        assert len(loaded.emb.nodes) == 9
        tsv = load_embeddings_tsv(str(ws["labels_ckpt"]) + ".tsv")
        assert tsv.nodes == loaded.emb.nodes
        np.testing.assert_array_equal(tsv.vectors, loaded.emb.vectors)

    def test_mode_none_returns_initialization(self, ws, tmp_path):
        out_path = tmp_path / "none.ckpt"
        code, out, _ = run_cli(
            ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv", "--class-map",
             ws["data"] / "class-map.tsv", "--mode", "none", "--dim", "4",
             "--out", out_path]
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["final_loss"] is None
        assert blob["map"] == 0.0
        emb = load_embeddings_tsv(str(out_path) + ".tsv")
        assert np.all(np.linalg.norm(emb.vectors, axis=1) <= 0.001)

    def test_deterministic_checkpoints(self, ws, tmp_path):
        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for p in paths:
            code, _, _ = run_cli(
                ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv",
                 "--class-map", ws["data"] / "class-map.tsv", "--dim", "4",
                 "--epochs", "10", "--seed", "3", "--out", p]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train-labels", "--out", "x.ckpt"])
        assert exc.value.code == 2

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        code, _, err = run_cli(
            ["train-labels", "--hierarchy", tmp_path / "absent.tsv", "--class-map",
             tmp_path / "absent2.tsv", "--out", tmp_path / "x.ckpt"]
        )
        assert code == 1
        assert err.startswith("error:")

    def test_non_utf8_taxonomy_is_one_line_error(self, ws, tmp_path):
        bad = tmp_path / "tax.tsv"
        bad.write_bytes((ws["data"] / "hierarchy.tsv").read_bytes() + b"root\t\xff\n")
        code, _, err = run_cli(
            ["train-labels", "--hierarchy", bad, "--class-map", ws["data"] / "class-map.tsv",
             "--out", tmp_path / "x.ckpt"]
        )
        assert code == 1
        assert err.startswith(f"error: {bad}: not UTF-8 text")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.ckpt").exists()


    def test_repeated_class_map_label_is_one_line_error(self, ws, tmp_path):
        # Mapping fam0_leaf0 to two nodes would leave one class without samples.
        bad = tmp_path / "map.tsv"
        rows = (ws["data"] / "class-map.tsv").read_text().splitlines()
        assert rows[1] == "fam0_leaf1\tfam0_leaf1"
        rows[1] = "fam0_leaf0\tfam0_leaf1"
        bad.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv", "--class-map", bad,
             "--out", tmp_path / "x.ckpt"]
        )
        assert code == 1
        assert err == f"error: {bad}:2: label 'fam0_leaf0' is already mapped on line 1\n"
        assert list(tmp_path.glob("x.ckpt*")) == []

    def test_class_map_node_outside_taxonomy_is_one_line_error(self, ws, tmp_path):
        # A typo in a class-map node names no taxonomy node; it must not
        # become an isolated root that trains and saves.
        bad = tmp_path / "map.tsv"
        rows = (ws["data"] / "class-map.tsv").read_text().splitlines()
        assert rows[2] == "fam0_leaf2\tfam0_leaf2"
        rows[2] = "fam0_leaf2\tfam0_leaf2x"
        bad.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv", "--class-map", bad,
             "--dim", "3", "--epochs", "5", "--out", tmp_path / "x.ckpt"]
        )
        assert code == 1
        assert out == ""
        assert err == "error: class leaf 'fam0_leaf2x' is not a tree node\n"
        assert list(tmp_path.glob("x.ckpt*")) == []


class TestOutputFailures:
    """A command that cannot write one of its outputs leaves none of them,
    and its one error line names the path given, not a temp file."""

    def train_labels(self, ws, out):
        return ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv", "--class-map",
                ws["data"] / "class-map.tsv", "--dim", "3", "--epochs", "5", "--out", out]

    def assert_one_line_error(self, code, out, err, path, reason):
        assert code == 1
        assert out == ""
        assert err == f"error: {reason}: {str(path)!r}\n"

    def test_missing_output_directory(self, ws, tmp_path):
        out = tmp_path / "nodir" / "l.ckpt"
        code, stdout, err = run_cli(self.train_labels(ws, out))
        self.assert_one_line_error(code, stdout, err, out, "[Errno 2] No such file or directory")
        assert list(tmp_path.iterdir()) == []

    def test_directory_at_labels_tsv(self, ws, tmp_path):
        out = tmp_path / "l.ckpt"
        blocker = tmp_path / "l.ckpt.tsv"
        blocker.mkdir()
        code, stdout, err = run_cli(self.train_labels(ws, out))
        self.assert_one_line_error(code, stdout, err, blocker, "[Errno 21] Is a directory")
        assert list(tmp_path.iterdir()) == [blocker]

    def test_directory_at_synth_test_split(self, tmp_path):
        blocker = tmp_path / "test.tsv"
        blocker.mkdir()
        code, stdout, err = run_cli(["synth-data", "--out-dir", tmp_path] + SMALL_DATA)
        self.assert_one_line_error(code, stdout, err, blocker, "[Errno 21] Is a directory")
        assert list(tmp_path.iterdir()) == [blocker]


def test_training_flag_defaults_are_the_config_defaults(ws, tmp_path, monkeypatch):
    # Without the config flags, each command saves the dataclass defaults:
    # the parser holds none of its own.
    monkeypatch.delenv("HYPERCLASS_SEED", raising=False)
    data = ws["data"]
    code, _, _ = run_cli(
        ["train-labels", "--hierarchy", data / "hierarchy.tsv", "--class-map",
         data / "class-map.tsv", "--out", tmp_path / "labels.ckpt"]
    )
    assert code == 0
    labels = ckpt.load_checkpoint(tmp_path / "labels.ckpt", expect_stage=ckpt.STAGE_LABELS)
    assert labels.config == LabelEmbedConfig().to_dict()
    code, _, _ = run_cli(
        ["train-classifier", "--train", data / "train.tsv", "--dev", data / "dev.tsv",
         "--labels-ckpt", tmp_path / "labels.ckpt", "--out", tmp_path / "clf.ckpt"]
    )
    assert code == 0
    clf = ckpt.load_checkpoint(tmp_path / "clf.ckpt", expect_stage=ckpt.STAGE_CLASSIFIER)
    assert clf.config == ClassifierConfig().to_dict()


# Per command, each config flag with its field and a non-default value.
CONFIG_FLAGS = {
    "train-labels": (LabelEmbedConfig, {
        "--dim": ("dim", 5), "--epochs": ("epochs", 7), "--neg": ("negatives", 3),
        "--lr": ("lr", 0.05), "--seed": ("seed", 4),
    }),
    "train-classifier": (ClassifierConfig, {
        "--loss": ("loss", "ce"), "--weight-norm": ("weight_norm", "batch-mean"),
        "--epochs": ("epochs", 2), "--batch": ("batch_size", 32), "--lr": ("lr", 0.002),
        "--d-tok": ("d_tok", 8), "--d-e": ("d_e", 12), "--seed": ("seed", 6),
    }),
    "synth-data": (SynthSpec, {
        "--tokens-per-sample": ("tokens_per_sample", 10), "--family-fraction": ("family_fraction", 0.3),
        "--leaf-fraction": ("leaf_fraction", 0.3), "--noise-vocab": ("noise_vocab", 30),
        "--samples-per-class": ("samples_per_class", 20), "--family-pool": ("family_pool_size", 5),
        "--leaf-pool": ("leaf_pool_size", 12), "--seed": ("seed", 8),
    }),
}


@pytest.mark.parametrize("command", list(CONFIG_FLAGS))
def test_every_config_flag_reaches_its_field(ws, tmp_path, monkeypatch, command):
    monkeypatch.delenv("HYPERCLASS_SEED", raising=False)
    cls, flags = CONFIG_FLAGS[command]
    given = dict(flags.values())
    default = cls()
    assert all(getattr(default, name) != value for name, value in given.items())
    argv = [command] + [str(a) for flag, (_, value) in flags.items() for a in (flag, value)]
    data, out = ws["data"], tmp_path / "out"
    if command == "train-labels":
        argv += ["--hierarchy", data / "hierarchy.tsv", "--class-map", data / "class-map.tsv"]
    elif command == "train-classifier":
        argv += ["--train", data / "train.tsv", "--dev", data / "dev.tsv"]
    specs = []

    def capture(tree, spec):
        specs.append(spec)
        return generate_synthetic(tree, spec)

    monkeypatch.setattr(cli, "generate_synthetic", capture)
    code, _, _ = run_cli(argv + (["--out-dir", out] if command == "synth-data" else ["--out", out]))
    assert code == 0
    expected = replace(default, **given)
    if command == "synth-data":
        assert specs == [expected]
    else:
        saved = ckpt.load_checkpoint(out)
        assert (saved.config, saved.seed) == (expected.to_dict(), expected.seed)


class TestTrainClassifier:
    def test_progress_lines_are_json(self, ws):
        lines = [json.loads(line) for line in ws["clf_stdout"].splitlines()]
        assert len(lines) == 2  # one per epoch
        for i, record in enumerate(lines):
            assert record["epoch"] == i
            assert record["train_loss"] > 0.0
            assert 0.0 <= record["dev_wf1"] <= 1.0

    def test_wce_without_labels_ckpt_fails(self, ws, tmp_path):
        code, _, err = run_cli(
            ["train-classifier", "--train", ws["data"] / "train.tsv", "--dev",
             ws["data"] / "dev.tsv", "--out", tmp_path / "x.ckpt"] + SMALL_CLF
        )
        assert code == 1
        assert "requires --labels-ckpt" in err

    def test_ce_runs_without_labels_ckpt(self, ws, tmp_path):
        out_path = tmp_path / "ce.ckpt"
        code, _, _ = run_cli(
            ["train-classifier", "--train", ws["data"] / "train.tsv", "--dev",
             ws["data"] / "dev.tsv", "--loss", "ce", "--out", out_path] + SMALL_CLF
        )
        assert code == 0
        loaded = ckpt.load_checkpoint(out_path, expect_stage=ckpt.STAGE_CLASSIFIER)
        assert loaded.class_names == sorted(loaded.class_names)

    def test_labels_ckpt_with_the_old_stage_one_keys_still_trains(self, ws, tmp_path):
        # Labels checkpoints once stored the burn-in and init radius in their
        # config; such a file still loads, and wce trains the same classifier.
        ck = ckpt.load_checkpoint(ws["labels_ckpt"], expect_stage=ckpt.STAGE_LABELS)
        old_keys = {"burn_in_epochs": 10, "burn_in_factor": 0.1, "init_radius": 0.001}
        old = tmp_path / "old-labels.ckpt"
        ckpt.save_labels_checkpoint(old, ck.emb, ck.class_map, {**ck.config, **old_keys}, ck.seed)
        assert ckpt.load_checkpoint(old).config == {**ck.config, **old_keys}
        code, _, err = run_cli(
            ["train-classifier", "--train", ws["data"] / "train.tsv", "--dev",
             ws["data"] / "dev.tsv", "--loss", "wce", "--labels-ckpt", old,
             "--out", tmp_path / "clf.ckpt"] + SMALL_CLF
        )
        assert (code, err) == (0, "")
        assert (tmp_path / "clf.ckpt").read_bytes() == ws["clf_ckpt"].read_bytes()

    def test_classifier_ckpt_rejected_as_labels_input(self, ws, tmp_path):
        code, _, err = run_cli(
            ["train-classifier", "--train", ws["data"] / "train.tsv", "--dev",
             ws["data"] / "dev.tsv", "--labels-ckpt", ws["clf_ckpt"],
             "--out", tmp_path / "x.ckpt"] + SMALL_CLF
        )
        assert code == 1
        assert "stage" in err

    def test_deterministic_checkpoints(self, ws, tmp_path):
        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        outs = []
        for p in paths:
            code, out, _ = run_cli(
                ["train-classifier", "--train", ws["data"] / "train.tsv", "--dev",
                 ws["data"] / "dev.tsv", "--labels-ckpt", ws["labels_ckpt"],
                 "--seed", "9", "--out", p] + SMALL_CLF
            )
            assert code == 0
            outs.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert outs[0] == outs[1]


class TestEvaluate:
    def test_writes_json_and_prints_summary(self, ws, tmp_path):
        out_json = tmp_path / "eval.json"
        code, out, _ = run_cli(
            ["evaluate", "--model", ws["clf_ckpt"], "--data", ws["data"] / "test.tsv",
             "--out-json", out_json]
        )
        assert code == 0
        summary = json.loads(out)
        blob = json.loads(out_json.read_text())
        assert blob["accuracy"] == summary["accuracy"]
        assert blob["weighted_f1"] == summary["weighted_f1"]
        assert len(blob["per_class"]) == 6
        assert np.array(blob["confusion"]).sum() == 18

    def test_labels_ckpt_rejected(self, ws, tmp_path):
        code, _, err = run_cli(
            ["evaluate", "--model", ws["labels_ckpt"], "--data",
             ws["data"] / "test.tsv", "--out-json", tmp_path / "e.json"]
        )
        assert code == 1
        assert "stage" in err
        assert not (tmp_path / "e.json").exists()

    def test_unknown_label_in_data(self, ws, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("some text\tnot_a_class\n")
        code, _, err = run_cli(
            ["evaluate", "--model", ws["clf_ckpt"], "--data", bad,
             "--out-json", tmp_path / "e.json"]
        )
        assert code == 1
        assert "unknown label" in err

    def test_non_utf8_data_is_one_line_error(self, ws, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes((ws["data"] / "test.tsv").read_bytes() + b"caf\xff\tfam0_leaf0\n")
        code, _, err = run_cli(
            ["evaluate", "--model", ws["clf_ckpt"], "--data", bad,
             "--out-json", tmp_path / "e.json"]
        )
        assert code == 1
        assert err.startswith(f"error: {bad}: not UTF-8 text")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e.json").exists()


class TestExportEmbeddings:
    def test_labels_ball_space(self, ws, tmp_path):
        out = tmp_path / "emb.tsv"
        code, stdout, _ = run_cli(["export-embeddings", "--model", ws["labels_ckpt"], "--out", out])
        assert code == 0
        blob = json.loads(stdout)
        emb = load_embeddings_tsv(out)
        assert blob == {"rows": 9, "dim": 4, "space": "ball"}
        assert np.all(np.linalg.norm(emb.vectors, axis=1) < 1.0)

    def test_labels_tangent_space(self, ws, tmp_path):
        ball_p, tan_p = tmp_path / "ball.tsv", tmp_path / "tan.tsv"
        run_cli(["export-embeddings", "--model", ws["labels_ckpt"], "--out", ball_p])
        code, _, _ = run_cli(
            ["export-embeddings", "--model", ws["labels_ckpt"], "--space", "tangent", "--out", tan_p]
        )
        assert code == 0
        ball = load_embeddings_tsv(ball_p)
        tan = load_embeddings_tsv(tan_p)
        assert tan.nodes == ball.nodes
        assert not np.allclose(tan.vectors, ball.vectors)

    def test_classifier_requires_data(self, ws, tmp_path):
        code, _, err = run_cli(
            ["export-embeddings", "--model", ws["clf_ckpt"], "--out", tmp_path / "x.tsv"]
        )
        assert code == 1
        assert "requires --data" in err

    def test_classifier_projections(self, ws, tmp_path):
        out = tmp_path / "proj.tsv"
        code, stdout, _ = run_cli(
            ["export-embeddings", "--model", ws["clf_ckpt"], "--data",
             ws["data"] / "test.tsv", "--out", out]
        )
        assert code == 0
        assert json.loads(stdout)["rows"] == 18
        emb = load_embeddings_tsv(out)
        assert all(name.startswith("s") and "_fam" in name for name in emb.nodes)
        assert np.all(np.linalg.norm(emb.vectors, axis=1) < 1.0)

    def test_ce_classifier_projection_is_refused(self, ws, tmp_path):
        # Plain CE gives the projection layer no gradient, so its
        # projections would be those of the initial weights.
        model = tmp_path / "ce.ckpt"
        code, _, _ = run_cli(
            ["train-classifier", "--train", ws["data"] / "train.tsv", "--dev",
             ws["data"] / "dev.tsv", "--loss", "ce", "--out", model] + SMALL_CLF
        )
        assert code == 0
        out = tmp_path / "proj.tsv"
        code, stdout, err = run_cli(
            ["export-embeddings", "--model", model, "--data", ws["data"] / "test.tsv", "--out", out]
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: {model}: a --loss ce classifier has no trained ball projection\n"
        assert list(tmp_path.glob("proj.tsv*")) == []

    @pytest.mark.parametrize("space", ["ball", "tangent"])
    def test_projection_overflow_names_checkpoint_and_samples(self, ws, tmp_path, space):
        # w_p is finite, so the checkpoint loads, but every projection's
        # tangent vector overflows its norm.
        ck = ckpt.load_checkpoint(ws["clf_ckpt"])
        head = replace(ck.head, w_p=ck.head.w_p * 1e200)
        model = tmp_path / "big.ckpt"
        ckpt.save_classifier_checkpoint(model, ck.model, head, ck.class_names, ck.config, ck.seed)
        out = tmp_path / "proj.tsv"
        code, stdout, err = run_cli(
            ["export-embeddings", "--model", model, "--data", ws["data"] / "test.tsv",
             "--space", space, "--out", out]
        )
        assert code == 1
        assert stdout == ""
        assert err == (
            f"error: {model}: ball projection of samples 0-17: vector has a non-finite norm\n"
        )
        assert list(tmp_path.glob("proj.tsv*")) == []


def head_rows(src, dst, n):
    """Copy the first n rows of a dataset TSV."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) >= n
    dst.write_text("".join(lines[:n]), encoding="utf-8")
    return dst


class TestStreamedExport:
    """The per-chunk export against the whole-array export it replaced."""

    @pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("space", ["ball", "tangent"])
    def test_bytes_match_whole_array_export(self, ws, tmp_path, rows, space):
        data = head_rows(ws["data"] / "train.tsv", tmp_path / "data.tsv", rows)
        out = tmp_path / "out.tsv"
        code, stdout, _ = run_cli(
            ["export-embeddings", "--model", ws["clf_ckpt"], "--data", data,
             "--space", space, "--out", out]
        )
        assert code == 0
        assert json.loads(stdout)["rows"] == rows
        ck = ckpt.load_checkpoint(ws["clf_ckpt"])
        ds = load_dataset(data, ck.class_names)
        tokens = tokenize_batch(ck.model.vocab, [text for text, _ in ds.samples])
        vectors = np.concatenate(
            [project_representation(ck.head, h) for h in encode_chunks(ck.model, tokens)]
        )
        if space == "tangent":
            vectors = log_map(np.zeros(vectors.shape[1]), vectors)
        names = [f"s{i}_{ds.label_names[y]}" for i, (_, y) in enumerate(ds.samples)]
        per_coordinate_tsv(names, vectors, tmp_path / "expected.tsv")
        assert out.read_bytes() == (tmp_path / "expected.tsv").read_bytes()

    def test_failure_mid_stream_leaves_no_file(self, ws, tmp_path, monkeypatch):
        data = head_rows(ws["data"] / "train.tsv", tmp_path / "data.tsv", CHUNK_ROWS + 1)
        out = tmp_path / "out.tsv"
        calls = []

        def failing_log_map_origin(y):
            calls.append(len(y))
            if len(calls) == 2:
                # The stream is inside write_atomic: its temp file is open.
                assert (tmp_path / "out.tsv.tmp").exists()
                raise NumericalError("injected failure in the second chunk")
            return log_map_origin(y)

        monkeypatch.setattr(cli, "log_map_origin", failing_log_map_origin)
        code, _, err = run_cli(
            ["export-embeddings", "--model", ws["clf_ckpt"], "--data", data,
             "--space", "tangent", "--out", out]
        )
        assert code == 1
        assert err.strip() == "error: injected failure in the second chunk"
        assert calls == [CHUNK_ROWS, 1]
        assert list(tmp_path.glob("out.tsv*")) == []


class TestSeedHandling:
    def test_env_seed_used_as_default(self, ws, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLASS_SEED", "123")
        out_path = tmp_path / "env.ckpt"
        code, _, _ = run_cli(
            ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv", "--class-map",
             ws["data"] / "class-map.tsv", "--dim", "3", "--epochs", "5", "--out", out_path]
        )
        assert code == 0
        assert ckpt.load_checkpoint(out_path).seed == 123

    def test_explicit_seed_beats_env(self, ws, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERCLASS_SEED", "123")
        out_path = tmp_path / "cli.ckpt"
        code, _, _ = run_cli(
            ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv", "--class-map",
             ws["data"] / "class-map.tsv", "--dim", "3", "--epochs", "5",
             "--seed", "7", "--out", out_path]
        )
        assert code == 0
        assert ckpt.load_checkpoint(out_path).seed == 7

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", ["synth-data", "train-labels", "train-classifier"])
    def test_negative_seed_is_one_line_error(self, ws, tmp_path, monkeypatch, command, source):
        data = ws["data"]
        argv = {
            "synth-data": ["synth-data", "--out-dir", tmp_path / "d"] + SMALL_DATA,
            "train-labels": ["train-labels", "--hierarchy", data / "hierarchy.tsv", "--class-map",
                             data / "class-map.tsv", "--dim", "3", "--epochs", "5",
                             "--out", tmp_path / "x.ckpt"],
            "train-classifier": ["train-classifier", "--train", data / "train.tsv", "--dev",
                                 data / "dev.tsv", "--labels-ckpt", ws["labels_ckpt"],
                                 "--out", tmp_path / "x.ckpt"] + SMALL_CLF,
        }[command]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("HYPERCLASS_SEED", "-1")
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_env_seed_is_runtime_error(self, monkeypatch):
        monkeypatch.setenv("HYPERCLASS_SEED", "not-a-number")
        code, _, err = run_cli(["synth-data", "--out-dir", "unused"])
        assert code == 1
        assert "HYPERCLASS_SEED" in err

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    def test_bad_env_seed_ignored_by_commands_without_seed(self, ws, tmp_path, monkeypatch, command):
        monkeypatch.setenv("HYPERCLASS_SEED", "abc")
        out = tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", "--model", ws["clf_ckpt"], "--data", ws["data"] / "test.tsv",
                         "--out-json", out],
            "export-embeddings": ["export-embeddings", "--model", ws["labels_ckpt"], "--out", out],
        }[command]
        code, _, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.is_file()


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_threads_flag_is_gone(self, ws, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train-classifier", "--train", str(ws["data"] / "train.tsv"), "--dev",
                  str(ws["data"] / "dev.tsv"), "--loss", "ce", "--threads", "2",
                  "--out", str(tmp_path / "x.ckpt")])
        assert exc.value.code == 2

    def test_bad_choice_value(self, ws):
        with pytest.raises(SystemExit) as exc:
            main(["train-labels", "--hierarchy", str(ws["data"] / "hierarchy.tsv"),
                  "--class-map", str(ws["data"] / "class-map.tsv"), "--mode", "bogus",
                  "--out", "x.ckpt"])
        assert exc.value.code == 2


class TestNumericalErrors:
    def test_stage_one_infinite_lr(self, ws, tmp_path):
        code, _, err = run_cli(
            ["train-labels", "--hierarchy", ws["data"] / "hierarchy.tsv", "--class-map",
             ws["data"] / "class-map.tsv", "--dim", "4", "--epochs", "3", "--lr", "inf",
             "--out", tmp_path / "x.ckpt"]
        )
        assert code == 1
        assert err.startswith("error: learning rate must be positive and finite")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.ckpt").exists()

    def test_stage_two_absurd_lr(self, ws, tmp_path):
        code, _, err = run_cli(
            ["train-classifier", "--train", ws["data"] / "train.tsv", "--dev",
             ws["data"] / "dev.tsv", "--labels-ckpt", ws["labels_ckpt"], "--lr", "1e300",
             "--out", tmp_path / "x.ckpt"] + SMALL_CLF
        )
        assert code == 1
        assert err.startswith("error: stage two, epoch 0, batch ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.ckpt").exists()

    def test_process_stderr_is_one_line(self, ws, tmp_path):
        # A real process: numpy's floating-point warnings would reach stderr.
        proc = subprocess.run(
            [sys.executable, "-m", "hyperclass", "train-classifier", "--train",
             str(ws["data"] / "train.tsv"), "--dev", str(ws["data"] / "dev.tsv"),
             "--labels-ckpt", str(ws["labels_ckpt"]), "--lr", "1e300",
             "--out", str(tmp_path / "x.ckpt")] + SMALL_CLF,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: stage two, epoch 0, batch ")
        assert len(proc.stderr.strip().splitlines()) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperclass", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "train-labels" in proc.stdout
