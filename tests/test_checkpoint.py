"""Binary checkpoint round trips, corruption and consistency checks, and
the atomic file writer."""

import io
import json
from contextlib import redirect_stderr

import numpy as np
import pytest

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
        vectors=rng.uniform(-0.9, 0.9, size=(4, 3)),
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

    def test_sparse_vocab_indices(self, classifier_path):
        rewrite_meta(classifier_path, lambda m: m["vocab"].update({"<unk>": 99}))
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
