"""One table-driven sweep of the CLI's numeric flags, HYPERCLASS_SEED and
input files: datasets, taxonomies, class maps and checkpoints.

Every case ends one of three ways, never with a traceback: exit 0 with
valid outputs, exit 1 with exactly one `error:` line and no output or temp
file, or exit 2 with usage. A count that passes every rule and then sizes
an array fails in numpy's allocator, not in a rule; it is tested only at a
size no allocator can grant, so the test allocates nothing.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from hyperclass import checkpoint as ckpt
from hyperclass import hierarchy
from hyperclass.ball import random_ball_point
from hyperclass.cli import main

VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "abc"]
NUMERIC_FLAGS = {
    "train-labels": ["--dim", "--epochs", "--neg", "--lr", "--seed"],
    "train-classifier": ["--epochs", "--batch", "--lr", "--d-tok", "--d-e", "--seed"],
    "synth-data": [
        "--families", "--leaves-per-family", "--tokens-per-sample", "--family-fraction",
        "--leaf-fraction", "--noise-vocab", "--samples-per-class", "--family-pool",
        "--leaf-pool", "--seed",
    ],
}
CASES = [
    (command, flag, value)
    for command, flags in NUMERIC_FLAGS.items()
    for flag in flags
    for value in VALUES
]
# Every dataset file a command reads, and the ways each one is broken. A
# broken row follows a valid one, so the loader fails part way through.
DATASET_FLAGS = [
    ("train-classifier", "--train"),
    ("train-classifier", "--dev"),
    ("evaluate", "--data"),
    ("export-embeddings", "--data"),
]
# The breaks of any input file: `place` puts bytes, no file or a directory.
DIRECTORY = "directory"
ANY_FILE = {"missing": None, "empty": b"", "directory": DIRECTORY}
VALID_ROW = b"valid text\tfam0_leaf0\n"
BAD_DATASETS = ANY_FILE | {
    "not-utf8": VALID_ROW + b"caf\xe9\tfam0_leaf0\n",
    "three-fields": VALID_ROW + b"a\tb\tfam0_leaf0\n",
    "empty-label": VALID_ROW + b"some text\t\n",
    "unknown-label": VALID_ROW + b"some text\tno_such_leaf\n",
}
# Every taxonomy, class-map and checkpoint file a command reads. Each is
# broken the ways any file can be and the ways its kind can be, given the
# valid file's bytes and the inputs directory. A labels checkpoint is a valid
# export-embeddings --model, so that flag has no wrong-stage case.
FILE_FLAGS = {
    ("train-labels", "--hierarchy"): "hierarchy.tsv",
    ("train-labels", "--class-map"): "class-map.tsv",
    ("train-classifier", "--labels-ckpt"): "labels.ckpt",
    ("evaluate", "--model"): "clf.ckpt",
    ("export-embeddings", "--model"): "clf.ckpt",
}


def _bad_meta(blob):
    """The checkpoint `blob` with a meta section that is not UTF-8."""
    sections = ckpt._unpack_sections(blob, "blob")
    sections["meta"] = b"\xff" + sections["meta"]
    return ckpt._pack_sections(list(sections.items()))


def _repeat_last_section(blob):
    """The checkpoint `blob` with its last section written twice."""
    sections = list(ckpt._unpack_sections(blob, "blob").items())
    return ckpt._pack_sections(sections + sections[-1:])


def _add_stray_section(blob):
    """The checkpoint `blob` with one more section, which no stage reads."""
    sections = list(ckpt._unpack_sections(blob, "blob").items())
    return ckpt._pack_sections(sections + [("stray", b"")])


def _drop_last_section(blob):
    """The checkpoint `blob` without its last section, an array its meta
    still lists."""
    sections = list(ckpt._unpack_sections(blob, "blob").items())
    return ckpt._pack_sections(sections[:-1])


def _other(name):
    """A break that replaces the file with the valid input `name`."""
    return lambda valid, root: (root / name).read_bytes()


TSV_NOT_UTF8 = lambda valid, root: valid + b"caf\xe9\tfam0\n"  # noqa: E731
CKPT_BREAKS = {
    "not-utf8": lambda valid, root: _bad_meta(valid),
    "truncated": lambda valid, root: valid[: len(valid) // 2],
    "garbage": lambda valid, root: b"not a checkpoint\n",
    "repeated-section": lambda valid, root: _repeat_last_section(valid),
    "stray-section": lambda valid, root: _add_stray_section(valid),
    "missing-section": lambda valid, root: _drop_last_section(valid),
    "meta-not-object": lambda valid, root: ckpt._pack_sections([("meta", b"[]")]),
}
BAD_FILES = {
    "hierarchy.tsv": {
        "not-utf8": TSV_NOT_UTF8,
        "duplicate-edge": lambda valid, root: valid + valid.splitlines(keepends=True)[0],
        "cycle": lambda valid, root: valid + b"fam0_leaf0\troot\n",
    },
    "class-map.tsv": {
        "not-utf8": TSV_NOT_UTF8,
        "unknown-node": lambda valid, root: valid + b"extra\tno_such_node\n",
        "duplicate-label": lambda valid, root: valid + valid.splitlines(keepends=True)[0],
    },
    "labels.ckpt": CKPT_BREAKS | {"wrong-stage": _other("clf.ckpt")},
    "clf.ckpt": CKPT_BREAKS | {"wrong-stage": _other("labels.ckpt")},
}
FILE_CASES = [
    (command, flag, mutation)
    for (command, flag), name in FILE_FLAGS.items()
    for mutation in [*ANY_FILE, *BAD_FILES[name]]
    if (command, mutation) != ("export-embeddings", "wrong-stage")
]
# A class-map node missing from the tree is named, not the file.
NAMES_NODE_NOT_FILE = {"unknown-node"}
# What the one error line says after the file name, where the file alone
# shows the fault: a repeated edge names the line it repeats, and a file
# that cannot be opened names the kind of file it should be.
FILE_MESSAGES = {
    "missing": r": cannot read [a-z A-Z]+: ",
    "directory": r": cannot read [a-z A-Z]+: ",
    "duplicate-edge": r":\d+: edge 'root' -> 'fam0' already on line 1$",
    "cycle": r": cycle detected through node ",
    "repeated-section": r": section '[^']+' appears twice$",
    "stray-section": r": unexpected section 'stray'$",
    "missing-section": r": missing section '[^']+'$",
    "meta-not-object": r": meta section is not a JSON object$",
}
# synth-data's tree-shape counts below 1: the one error line must name the flag.
NAMED_IN_ERROR = {
    ("synth-data", flag, value)
    for flag in ("--families", "--leaves-per-family")
    for value in ("0", "-1")
}


def run(argv):
    """(exit code, stdout, stderr) of cli.main, usage exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    code, _, _ = run(["synth-data", "--out-dir", root, "--samples-per-class", "10",
                      "--leaf-pool", "12", "--noise-vocab", "30"])
    assert code == 0
    code, _, _ = run(["train-labels", "--hierarchy", root / "hierarchy.tsv", "--class-map",
                      root / "class-map.tsv", "--dim", "3", "--epochs", "5",
                      "--out", root / "labels.ckpt"])
    assert code == 0
    code, _, _ = run(["train-classifier", "--train", root / "train.tsv", "--dev", root / "dev.tsv",
                      "--labels-ckpt", root / "labels.ckpt", "--epochs", "1", "--d-tok", "4",
                      "--d-e", "4", "--out", root / "clf.ckpt"])
    assert code == 0
    return root


def argv_and_outputs(command, inputs, out):
    """A small run of `command` writing under `out`, and the files it writes."""
    if command == "evaluate":
        argv = ["evaluate", "--model", inputs / "clf.ckpt", "--data", inputs / "test.tsv",
                "--out-json", out / "e.json"]
        return argv, ["e.json"]
    if command == "export-embeddings":
        argv = ["export-embeddings", "--model", inputs / "clf.ckpt", "--data",
                inputs / "test.tsv", "--out", out / "x.tsv"]
        return argv, ["x.tsv"]
    if command == "train-labels":
        argv = ["train-labels", "--hierarchy", inputs / "hierarchy.tsv", "--class-map",
                inputs / "class-map.tsv", "--dim", "3", "--epochs", "5", "--out", out / "l.ckpt"]
        return argv, ["l.ckpt", "l.ckpt.tsv"]
    if command == "train-classifier":
        argv = ["train-classifier", "--train", inputs / "train.tsv", "--dev", inputs / "dev.tsv",
                "--labels-ckpt", inputs / "labels.ckpt", "--epochs", "1", "--d-tok", "4",
                "--d-e", "4", "--out", out / "c.ckpt"]
        return argv, ["c.ckpt"]
    argv = ["synth-data", "--out-dir", out, "--samples-per-class", "10", "--leaf-pool", "12",
            "--noise-vocab", "30"]
    return argv, ["train.tsv", "dev.tsv", "test.tsv", "hierarchy.tsv", "class-map.tsv"]


def assert_valid_outputs(out, names):
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    if "l.ckpt" in names:
        # Stage one must move every point from its seeded initialization.
        ck = ckpt.load_checkpoint(out / "l.ckpt", expect_stage=ckpt.STAGE_LABELS)
        rng = np.random.default_rng(ck.seed)
        radius = hierarchy.INIT_RADIUS
        dim = ck.emb.vectors.shape[1]
        init = np.stack([random_ball_point(rng, dim, radius) for _ in ck.emb.nodes])
        assert np.all(np.any(ck.emb.vectors != init, axis=1))
    if "c.ckpt" in names:
        ckpt.load_checkpoint(out / "c.ckpt", expect_stage=ckpt.STAGE_CLASSIFIER)


def assert_one_of_three_ends(code, stdout, err, out, names):
    assert "Traceback" not in stdout + err
    if code == 0:
        assert err == ""
        assert_valid_outputs(out, names)
    elif code == 1:
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert [p for p in out.rglob("*") if p.is_file()] == []
    else:
        assert code == 2
        assert err.startswith("usage: ")
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, flag, value", CASES)
def test_numeric_flag(inputs, tmp_path, monkeypatch, command, flag, value):
    monkeypatch.delenv("HYPERCLASS_SEED", raising=False)
    out = tmp_path / "out"
    out.mkdir()
    argv, names = argv_and_outputs(command, inputs, out)
    # The last occurrence of a flag wins, so the swept value overrides the base run's.
    code, stdout, err = run(argv + [flag, value])
    assert_one_of_three_ends(code, stdout, err, out, names)
    if (command, flag, value) in NAMED_IN_ERROR:
        assert code == 1 and flag in err


@pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
@pytest.mark.parametrize("command", list(NUMERIC_FLAGS))
def test_env_seed(inputs, tmp_path, monkeypatch, command, value):
    monkeypatch.setenv("HYPERCLASS_SEED", value)
    out = tmp_path / "out"
    out.mkdir()
    argv, names = argv_and_outputs(command, inputs, out)
    code, stdout, err = run(argv)
    assert_one_of_three_ends(code, stdout, err, out, names)


def assert_one_error_line(code, stdout, err, out):
    assert "Traceback" not in stdout + err
    assert code == 1
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert [p for p in out.rglob("*") if p.is_file()] == []


def place(bad, content):
    """Put `content` at `bad`: bytes, None for no file, or DIRECTORY."""
    if content is DIRECTORY:
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)


@pytest.mark.parametrize("mutation", list(BAD_DATASETS))
@pytest.mark.parametrize("command, flag", DATASET_FLAGS)
def test_bad_dataset_file(inputs, tmp_path, monkeypatch, command, flag, mutation):
    monkeypatch.delenv("HYPERCLASS_SEED", raising=False)
    out = tmp_path / "out"
    out.mkdir()
    bad = tmp_path / "bad.tsv"
    place(bad, BAD_DATASETS[mutation])
    argv, _ = argv_and_outputs(command, inputs, out)
    code, stdout, err = run(argv + [flag, bad])
    assert_one_error_line(code, stdout, err, out)
    # A named DatasetError: the file, then the line where one is at fault.
    assert re.match(rf"error: {re.escape(str(bad))}:(\d+:)? ", err)


@pytest.mark.parametrize("command, flag, mutation", FILE_CASES)
def test_bad_input_file(inputs, tmp_path, monkeypatch, command, flag, mutation):
    monkeypatch.delenv("HYPERCLASS_SEED", raising=False)
    out = tmp_path / "out"
    out.mkdir()
    name = FILE_FLAGS[command, flag]
    bad = tmp_path / f"bad-{name}"
    if mutation in ANY_FILE:
        place(bad, ANY_FILE[mutation])
    else:
        place(bad, BAD_FILES[name][mutation]((inputs / name).read_bytes(), inputs))
    argv, _ = argv_and_outputs(command, inputs, out)
    code, stdout, err = run(argv + [flag, bad])
    assert_one_error_line(code, stdout, err, out)
    if mutation not in NAMES_NODE_NOT_FILE:
        assert str(bad) in err
    if mutation in FILE_MESSAGES:
        assert re.search(re.escape(str(bad)) + FILE_MESSAGES[mutation], err)


def test_impossible_size_is_one_error_line(inputs, tmp_path, monkeypatch):
    # 1e15 token dims give a table of exbibytes, which numpy refuses before
    # it allocates anything.
    monkeypatch.delenv("HYPERCLASS_SEED", raising=False)
    out = tmp_path / "out"
    out.mkdir()
    argv, _ = argv_and_outputs("train-classifier", inputs, out)
    code, stdout, err = run(argv + ["--d-tok", "1000000000000000"])
    assert_one_error_line(code, stdout, err, out)
    assert err.startswith("error: out of memory: ")
