"""Binary checkpoint round trips, corruption and consistency checks, and
the atomic file writer."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_stage_classifier_bytes, per_stage_labels_bytes

from hyperclass import checkpoint as ckpt
from hyperclass.cli import main
from hyperclass.encoder import EncoderModel, Vocabulary, encode, tokenize
from hyperclass.errors import CheckpointError, StageError
from hyperclass.hierarchy import LabelEmbeddings
from hyperclass.loss import ClassifierHead, predict


def make_labels():
    rng = np.random.default_rng(0)
    emb = LabelEmbeddings(
        nodes=["root", "fam0", "leaf-a", "leaf_b"],
        # Inside the unit ball: each squared norm is at most 3 * 0.5**2.
        vectors=rng.uniform(-0.5, 0.5, size=(4, 3)),
    )
    class_map = [("label a", "leaf-a"), ("label b", "leaf_b")]
    return emb, class_map


def make_classifier():
    rng = np.random.default_rng(1)
    vocab = Vocabulary.build(["the cat sat", "the dog sat", "the cat ran"], min_freq=1)
    model = EncoderModel.init(vocab, d_tok=4, d_e=3, rng=rng)
    head = ClassifierHead.init(d_e=3, num_classes=2, hyper_dim=2, rng=rng)
    return model, head


class TestLabelsRoundTrip:
    def test_bitwise(self, tmp_path):
        emb, class_map = make_labels()
        p = tmp_path / "labels.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map, {"dim": 3, "epochs": 7}, seed=42)
        loaded = ckpt.load_checkpoint(p, expect_stage=ckpt.STAGE_LABELS)
        assert loaded.emb.nodes == emb.nodes
        np.testing.assert_array_equal(loaded.emb.vectors, emb.vectors)
        assert loaded.class_map == class_map
        assert loaded.config == {"dim": 3, "epochs": 7}
        assert loaded.seed == 42

    def test_identical_saves_are_identical_bytes(self, tmp_path):
        emb, class_map = make_labels()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpt.save_labels_checkpoint(a, emb, class_map, {"dim": 3}, seed=0)
        ckpt.save_labels_checkpoint(b, emb, class_map, {"dim": 3}, seed=0)
        assert a.read_bytes() == b.read_bytes()

    def test_no_tmp_left_behind(self, tmp_path):
        emb, class_map = make_labels()
        ckpt.save_labels_checkpoint(tmp_path / "labels.ckpt", emb, class_map, {}, 0)
        assert list(tmp_path.glob("*.tmp")) == []


class TestWriterBytes:
    """The one shared writer puts out the bytes each stage's own writer did."""

    def test_labels(self, tmp_path):
        emb, class_map = make_labels()
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map, {"dim": 3, "lr": 0.1}, seed=7)
        assert p.read_bytes() == per_stage_labels_bytes(emb, class_map, {"dim": 3, "lr": 0.1}, 7)

    def test_classifier(self, tmp_path):
        model, head = make_classifier()
        p = tmp_path / "c.ckpt"
        ckpt.save_classifier_checkpoint(p, model, head, ["b", "a"], {"loss": "wce"}, seed=3)
        expected = per_stage_classifier_bytes(model, head, ["b", "a"], {"loss": "wce"}, 3)
        assert p.read_bytes() == expected


class TestClassifierRoundTrip:
    def test_bitwise_and_predictions(self, tmp_path):
        model, head = make_classifier()
        p = tmp_path / "clf.ckpt"
        ckpt.save_classifier_checkpoint(p, model, head, ["a", "b"], {"lr": 1e-3}, seed=5)
        loaded = ckpt.load_checkpoint(p, expect_stage=ckpt.STAGE_CLASSIFIER)
        assert loaded.model.vocab.token_to_index == model.vocab.token_to_index
        for name in ("embedding", "w1", "b1"):
            np.testing.assert_array_equal(
                getattr(loaded.model, name), getattr(model, name)
            )
        for name in ("w_c", "b_c", "w_p", "b_p"):
            np.testing.assert_array_equal(getattr(loaded.head, name), getattr(head, name))
        assert loaded.class_names == ["a", "b"]
        assert loaded.config == {"lr": 1e-3}
        assert loaded.seed == 5
        for text in ("the cat sat", "dog ran fast", ""):
            toks = tokenize(model.vocab, text)
            before = predict(head, encode(model, toks))
            after = predict(loaded.head, encode(loaded.model, tokenize(loaded.model.vocab, text)))
            assert before == after


class TestCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        emb, class_map = make_labels()
        p = tmp_path / "labels.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map, {"dim": 3}, seed=0)
        return p

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="bad magic"):
            ckpt.load_checkpoint(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"HYPC\x01\x00")
        with pytest.raises(CheckpointError, match="truncated"):
            ckpt.load_checkpoint(p)

    def test_unsupported_version(self, tmp_path):
        import struct

        p = tmp_path / "x.ckpt"
        p.write_bytes(b"HYPC" + struct.pack("<I", 99))
        with pytest.raises(CheckpointError, match="version 99"):
            ckpt.load_checkpoint(p)

    def test_flipped_payload_byte_fails_crc(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-10] ^= 0xFF  # inside the last array payload
        saved.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            ckpt.load_checkpoint(saved)

    def test_truncated_tail(self, saved):
        saved.write_bytes(saved.read_bytes()[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            ckpt.load_checkpoint(saved)

    def test_section_name_not_utf8(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[10] = 0xFF  # first byte of the first section name, "meta"
        saved.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not UTF-8"):
            ckpt.load_checkpoint(saved)

    def test_stage_mismatch_is_named_error(self, saved):
        with pytest.raises(StageError, match="expected 'classifier'"):
            ckpt.load_checkpoint(saved, expect_stage=ckpt.STAGE_CLASSIFIER)
        assert issubclass(StageError, CheckpointError)

    def test_missing_meta_section(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(ckpt._pack_sections([("notmeta", b"payload")]))
        with pytest.raises(CheckpointError, match="missing meta"):
            ckpt.load_checkpoint(p)

    def test_unreadable_meta(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(ckpt._pack_sections([("meta", b"\xff\xfe not json")]))
        with pytest.raises(CheckpointError, match="unreadable meta"):
            ckpt.load_checkpoint(p)

    def test_unknown_stage_tag(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(ckpt._pack_sections([("meta", b'{"stage": "weird"}')]))
        with pytest.raises(CheckpointError, match="unknown stage"):
            ckpt.load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            ckpt.load_checkpoint(tmp_path / "absent.ckpt")


class TestWriteAtomic:
    def test_failed_writer_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.tsv"

        def writer(tmp):
            tmp.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            ckpt.write_atomic(target, writer)
        assert list(tmp_path.iterdir()) == []

    def test_failed_writer_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.tsv"
        target.write_text("old")

        def writer(tmp):
            tmp.write_text("new")
            raise ValueError("bad row")

        with pytest.raises(ValueError):
            ckpt.write_atomic(target, writer)
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_success_renames_into_place(self, tmp_path):
        target = tmp_path / "out.tsv"
        ckpt.write_atomic(target, lambda tmp: tmp.write_text("done"))
        assert target.read_text() == "done"
        assert list(tmp_path.iterdir()) == [target]


def rewrite_meta(path, edit):
    """Re-pack a saved checkpoint with edit(meta) applied; every CRC stays valid."""
    sections = ckpt._unpack_sections(path.read_bytes(), path)
    meta = json.loads(sections["meta"])
    edit(meta)
    sections["meta"] = json.dumps(meta).encode("utf-8")
    path.write_bytes(ckpt._pack_sections(list(sections.items())))


class TestInconsistentMeta:
    """Files with valid CRCs whose meta disagrees with the payloads."""

    @pytest.fixture
    def labels_path(self, tmp_path):
        emb, class_map = make_labels()
        p = tmp_path / "labels.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map, {"dim": 3}, seed=0)
        return p

    @pytest.fixture
    def classifier_path(self, tmp_path):
        model, head = make_classifier()
        p = tmp_path / "clf.ckpt"
        ckpt.save_classifier_checkpoint(p, model, head, ["a", "b"], {}, seed=0)
        return p

    def test_shape_not_matching_payload(self, labels_path):
        rewrite_meta(labels_path, lambda m: m["shapes"].update({"labels.vectors": [5, 3]}))
        with pytest.raises(CheckpointError, match="does not match its recorded shape"):
            ckpt.load_checkpoint(labels_path)

    def test_missing_shapes(self, labels_path):
        rewrite_meta(labels_path, lambda m: m.pop("shapes"))
        with pytest.raises(CheckpointError, match="'shapes'"):
            ckpt.load_checkpoint(labels_path)

    def test_fewer_nodes_than_rows(self, labels_path):
        rewrite_meta(labels_path, lambda m: m["nodes"].pop())
        with pytest.raises(CheckpointError, match="3 node names for 4 embedding rows"):
            ckpt.load_checkpoint(labels_path)

    def test_vocab_size_not_matching_embedding_rows(self, classifier_path):
        rewrite_meta(classifier_path, lambda m: m["vocab"].update({"extra": len(m["vocab"])}))
        with pytest.raises(CheckpointError, match="vocabulary size"):
            ckpt.load_checkpoint(classifier_path)

    def test_class_names_not_matching_logit_columns(self, classifier_path):
        rewrite_meta(classifier_path, lambda m: m["class_names"].append("c"))
        with pytest.raises(CheckpointError, match="number of class names"):
            ckpt.load_checkpoint(classifier_path)

    def test_class_names_not_strings(self, classifier_path):
        rewrite_meta(classifier_path, lambda m: m.update({"class_names": [1, 2]}))
        with pytest.raises(CheckpointError, match="class_names must be strings"):
            ckpt.load_checkpoint(classifier_path)

    def test_sparse_vocab_indices(self, classifier_path):
        rewrite_meta(classifier_path, lambda m: m["vocab"].update({"<unk>": 99}))
        with pytest.raises(CheckpointError, match="vocabulary indices"):
            ckpt.load_checkpoint(classifier_path)

    def test_boolean_vocab_indices(self, classifier_path):
        # JSON false and true pass an int check and sort as 0 and 1.
        rewrite_meta(classifier_path, lambda m: m["vocab"].update({"<unk>": False, "<pad>": True}))
        with pytest.raises(CheckpointError, match="vocabulary indices"):
            ckpt.load_checkpoint(classifier_path)

    def test_cli_reports_error_and_exits_1(self, classifier_path, tmp_path):
        rewrite_meta(classifier_path, lambda m: m["class_names"].append("c"))
        data = tmp_path / "data.tsv"
        data.write_text("the cat sat\ta\n")
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["evaluate", "--model", str(classifier_path), "--data", str(data),
                         "--out-json", str(tmp_path / "e.json")])
        assert code == 1
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().strip().splitlines()) == 1
        assert not (tmp_path / "e.json").exists()


def run_main(argv):
    """(exit code, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


# Tab, CR and LF would split a TSV field or line; a lone surrogate cannot
# be encoded as UTF-8.
BAD_NAMES = ["a\tb", "a\rb", "a\nb", "a\ud800"]


class TestNamesAreTsvFields:
    """Names that exports and class maps write as TSV fields."""

    def test_non_ascii_names_load(self, tmp_path):
        emb, class_map = make_labels()
        emb = LabelEmbeddings(nodes=["r\u00e9sum\u00e9"] + emb.nodes[1:], vectors=emb.vectors)
        ckpt.save_labels_checkpoint(tmp_path / "l.ckpt", emb, class_map, {}, seed=0)
        assert ckpt.load_checkpoint(tmp_path / "l.ckpt").emb.nodes == emb.nodes

    @pytest.mark.parametrize("bad", BAD_NAMES)
    def test_labels_node_name(self, tmp_path, bad):
        emb, class_map = make_labels()
        emb = LabelEmbeddings(nodes=[bad] + emb.nodes[1:], vectors=emb.vectors)
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map, {}, seed=0)
        with pytest.raises(CheckpointError, match="nodes must be strings"):
            ckpt.load_checkpoint(p)
        code, err = run_main(["export-embeddings", "--model", p, "--out", tmp_path / "x.tsv"])
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert list(tmp_path.glob("x.tsv*")) == []

    @pytest.mark.parametrize("bad", BAD_NAMES)
    def test_labels_class_map_entry(self, tmp_path, bad):
        emb, class_map = make_labels()
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, [(bad, "leaf-a")] + class_map[1:], {}, seed=0)
        with pytest.raises(CheckpointError, match="class_map entries must be strings"):
            ckpt.load_checkpoint(p)

    @pytest.mark.parametrize("bad", BAD_NAMES)
    def test_classifier_class_name(self, tmp_path, bad):
        model, head = make_classifier()
        p = tmp_path / "c.ckpt"
        ckpt.save_classifier_checkpoint(p, model, head, ["a", bad], {}, seed=0)
        with pytest.raises(CheckpointError, match="class_names must be strings"):
            ckpt.load_checkpoint(p)
        data = tmp_path / "data.tsv"
        data.write_text("the cat sat\ta\n")
        for argv in (
            ["export-embeddings", "--model", p, "--data", data, "--out", tmp_path / "x.tsv"],
            ["evaluate", "--model", p, "--data", data, "--out-json", tmp_path / "x.json"],
        ):
            code, err = run_main(argv)
            assert code == 1
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert list(tmp_path.glob("x.*")) == []


class TestRepeatedNames:
    """A repeated name would give two class indices one label, or one name two rows."""

    def test_labels_class_map_label(self, tmp_path):
        emb, _ = make_labels()
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, [("lab", "leaf-a"), ("lab", "leaf_b")], {}, seed=0)
        with pytest.raises(CheckpointError, match="'lab' appears twice in class_map labels"):
            ckpt.load_checkpoint(p)

    def test_labels_class_map_node(self, tmp_path):
        # Two labels on one node would train two classes toward one anchor.
        emb, _ = make_labels()
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, [("a", "leaf-a"), ("b", "leaf-a")], {}, seed=0)
        with pytest.raises(CheckpointError, match="'leaf-a' appears twice in class_map nodes"):
            ckpt.load_checkpoint(p)

    def test_labels_node_name(self, tmp_path):
        emb, class_map = make_labels()
        emb = LabelEmbeddings(nodes=["root", "fam0", "leaf-a", "fam0"], vectors=emb.vectors)
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map[:1], {}, seed=0)
        with pytest.raises(CheckpointError, match="'fam0' appears twice in nodes"):
            ckpt.load_checkpoint(p)

    def test_labels_checkpoint_rejected_by_train_classifier(self, tmp_path):
        emb, _ = make_labels()
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, [("a", "leaf-a"), ("a", "leaf_b")], {}, seed=0)
        data = tmp_path / "data.tsv"
        data.write_text("the cat sat\ta\nthe dog ran\ta\n")
        code, err = run_main(["train-classifier", "--train", data, "--dev", data, "--labels-ckpt", p,
                              "--epochs", "1", "--out", tmp_path / "c.ckpt"])
        assert code == 1
        assert err.startswith("error:") and "appears twice" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "c.ckpt").exists()

    def test_classifier_class_name(self, tmp_path):
        model, head = make_classifier()
        p = tmp_path / "c.ckpt"
        ckpt.save_classifier_checkpoint(p, model, head, ["a", "a"], {}, seed=0)
        with pytest.raises(CheckpointError, match="'a' appears twice in class_names"):
            ckpt.load_checkpoint(p)
        data = tmp_path / "data.tsv"
        data.write_text("the cat sat\ta\n")
        code, err = run_main(["evaluate", "--model", p, "--data", data, "--out-json", tmp_path / "e.json"])
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e.json").exists()


class TestArrayValues:
    """Arrays with valid CRCs whose values no trained model holds."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_classifier_section(self, tmp_path, value):
        model, head = make_classifier()
        head.w_c[:] = value
        p = tmp_path / "c.ckpt"
        ckpt.save_classifier_checkpoint(p, model, head, ["a", "b"], {}, seed=0)
        with pytest.raises(CheckpointError, match="section 'head.w_c' holds non-finite values"):
            ckpt.load_checkpoint(p)
        data = tmp_path / "data.tsv"
        data.write_text("the cat sat\ta\n")
        code, err = run_main(["evaluate", "--model", p, "--data", data, "--out-json", tmp_path / "e.json"])
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "e.json").exists()

    def test_non_finite_label_vectors(self, tmp_path):
        emb, class_map = make_labels()
        emb.vectors[2, 1] = np.nan
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map, {}, seed=0)
        with pytest.raises(CheckpointError, match="section 'labels.vectors' holds non-finite values"):
            ckpt.load_checkpoint(p)

    @pytest.mark.parametrize("point", [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.6, -0.8, 0.0]])
    def test_label_point_outside_ball(self, tmp_path, point):
        emb, class_map = make_labels()
        emb.vectors[1] = point
        p = tmp_path / "l.ckpt"
        ckpt.save_labels_checkpoint(p, emb, class_map, {}, seed=0)
        with pytest.raises(CheckpointError, match="node 'fam0' lies outside the unit ball"):
            ckpt.load_checkpoint(p)
        code, err = run_main(["export-embeddings", "--model", p, "--out", tmp_path / "x.tsv"])
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert list(tmp_path.glob("x.tsv*")) == []


# Any JSON value a meta edit may write in place of another.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def edit_meta(data, meta):
    """Replace or delete one value, at a drawn depth, of the meta dict."""
    node = meta
    while True:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(json_values)
            return


def contents(ck):
    """(arrays, fields) of a loaded checkpoint, keyed by their names in the file."""
    if isinstance(ck, ckpt.LabelsCheckpoint):
        arrays = {"labels.vectors": ck.emb.vectors}
        fields = {"nodes": ck.emb.nodes, "class_map": [list(row) for row in ck.class_map]}
    else:
        arrays = {f"enc.{k}": v for k, v in ck.model.params().items()}
        arrays.update({f"head.{k}": v for k, v in ck.head.params().items()})
        fields = {"vocab": ck.model.vocab.token_to_index, "class_names": ck.class_names}
    fields.update(stage=ck.stage, config=ck.config, seed=ck.seed)
    return arrays, fields


@pytest.fixture(scope="module")
def fuzz_ws(tmp_path_factory):
    """A small valid checkpoint of each stage, its arrays, and a dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    emb, class_map = make_labels()
    ckpt.save_labels_checkpoint(root / "labels.ckpt", emb, class_map, {"dim": 3}, seed=0)
    model, head = make_classifier()
    ckpt.save_classifier_checkpoint(root / "clf.ckpt", model, head, ["a", "b"], {"lr": 0.1}, seed=0)
    (root / "data.tsv").write_text("the cat sat\ta\nthe dog ran\tb\n", encoding="utf-8")
    ws = {"root": root}
    for stage, name in ((ckpt.STAGE_LABELS, "labels.ckpt"), (ckpt.STAGE_CLASSIFIER, "clf.ckpt")):
        ws[stage] = ((root / name).read_bytes(), contents(ckpt.load_checkpoint(root / name))[0])
    return ws


class TestFuzzedFiles:
    """Every truncation, single-byte flip or meta edit (with its CRC
    recomputed) of a valid checkpoint either loads exactly what the file
    records or raises CheckpointError, and the CLI reads it with exit 0,
    or exit 1 and one `error:` line."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_loads_what_the_file_records_or_raises(self, fuzz_ws, data):
        stage = data.draw(st.sampled_from([ckpt.STAGE_LABELS, ckpt.STAGE_CLASSIFIER]))
        blob, arrays = fuzz_ws[stage]
        sections = ckpt._unpack_sections(blob, stage)
        meta = json.loads(sections["meta"])
        kind = data.draw(st.sampled_from(["truncate", "flip", "meta"]))
        if kind == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        elif kind == "flip":
            i = data.draw(st.integers(0, len(blob) - 1))
            blob = blob[:i] + bytes([blob[i] ^ data.draw(st.integers(1, 255))]) + blob[i + 1 :]
        else:
            edit_meta(data, meta)
            sections["meta"] = json.dumps(meta).encode("utf-8")
            blob = ckpt._pack_sections(list(sections.items()))
        root = fuzz_ws["root"]
        path = root / "fuzzed.ckpt"
        path.write_bytes(blob)

        try:
            loaded = ckpt.load_checkpoint(path)
        except CheckpointError:
            pass
        else:
            got_arrays, got_fields = contents(loaded)
            assert got_fields == {key: meta[key] for key in got_fields}
            assert got_arrays.keys() == arrays.keys()
            for name, arr in arrays.items():
                np.testing.assert_array_equal(got_arrays[name], arr)

        data_args = ["--data", str(root / "data.tsv")]
        for argv in (
            ["evaluate", "--model", str(path), *data_args, "--out-json", str(root / "e.json")],
            ["export-embeddings", "--model", str(path), *data_args, "--out", str(root / "x.tsv")],
        ):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            if code != 0:
                assert code == 1
                assert err.getvalue().startswith("error:")
                assert len(err.getvalue().splitlines()) == 1
