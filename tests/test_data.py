"""Dataset TSV ingestion and the synthetic two-family benchmark generator."""

import numpy as np
import pytest

from helpers import class_counts, list_pool_synthetic
from hyperclass.config import SynthSpec
from hyperclass.data import (
    LabeledDataset,
    default_synthetic_tree,
    generate_synthetic,
    infer_label_names,
    load_dataset,
    make_family_tree,
    save_dataset,
)
from hyperclass.errors import DatasetError
from hyperclass.hierarchy import build_tree


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        ds = LabeledDataset(
            samples=[("hello world", 0), ("second line", 1), ("", 0)],
            label_names=["alpha", "beta"],
        )
        p = tmp_path / "data.tsv"
        save_dataset(ds, p)
        back = load_dataset(p, ["alpha", "beta"])
        assert back.samples == ds.samples
        assert back.label_names == ["alpha", "beta"]

    def test_unknown_label_reports_line(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("ok text\talpha\nbad text\tblissful\n")
        with pytest.raises(DatasetError, match=r"data\.tsv:2.*blissful"):
            load_dataset(p, ["alpha"])

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("a\talpha\nno tab here\n")
        with pytest.raises(DatasetError, match=r"data\.tsv:2"):
            load_dataset(p, ["alpha"])

    def test_empty_label_rejected(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("some text\t\n")
        with pytest.raises(DatasetError, match="empty label"):
            load_dataset(p, ["alpha"])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("\n\n")
        with pytest.raises(DatasetError, match="dataset is empty"):
            load_dataset(p, ["alpha"])

    def test_text_with_tab_rejected_on_save(self, tmp_path):
        ds = LabeledDataset([("has\ttab", 0)], ["alpha"])
        with pytest.raises(DatasetError, match="tabs or newlines"):
            save_dataset(ds, tmp_path / "data.tsv")

    def test_infer_label_names_sorted_unique(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("t1\tzeta\nt2\talpha\nt3\tzeta\n")
        assert infer_label_names(p) == ["alpha", "zeta"]

    def test_class_counts(self):
        ds = LabeledDataset([("a", 0), ("b", 1), ("c", 1)], ["x", "y"])
        assert class_counts(ds) == [1, 2]


class TestFamilyTree:
    def test_default_shape(self):
        tree, class_map = default_synthetic_tree()
        assert len(tree.nodes) == 9  # root + 2 families + 6 leaves
        assert len(tree.edges) == 8
        assert tree.class_leaves == [f"fam{f}_leaf{i}" for f in range(2) for i in range(3)]
        assert class_map == [(leaf, leaf) for leaf in tree.class_leaves]

    def test_custom_sizes(self):
        tree, _ = make_family_tree(3, 4)
        assert tree.num_classes == 12
        assert len(tree.edges) == 3 + 12


class TestGenerateSynthetic:
    def test_split_sizes(self):
        tree, _ = default_synthetic_tree()
        train, dev, test = generate_synthetic(tree, SynthSpec())
        assert (len(train), len(dev), len(test)) == (840, 180, 180)
        assert class_counts(train) == [140] * 6
        assert class_counts(dev) == [30] * 6
        assert class_counts(test) == [30] * 6
        assert (train.split, dev.split, test.split) == ("train", "dev", "test")

    def test_token_composition(self):
        tree, _ = default_synthetic_tree()
        spec = SynthSpec(samples_per_class=10)
        train, dev, test = generate_synthetic(tree, spec)
        leaf_index = {leaf: i for i, leaf in enumerate(tree.class_leaves)}
        for ds in (train, dev, test):
            for text, y in ds.samples:
                tokens = text.split()
                assert len(tokens) == 12
                fam = y // 3  # fam0 leaves are classes 0..2
                by_prefix = {"fam": 0, "leaf": 0, "noise": 0}
                for t in tokens:
                    if t.startswith("fam"):
                        assert t.startswith(f"fam{fam}_w")
                        by_prefix["fam"] += 1
                    elif t.startswith("leaf"):
                        assert t.startswith(f"leaf{leaf_index[tree.class_leaves[y]]}_w")
                        by_prefix["leaf"] += 1
                    else:
                        assert t.startswith("noise_w")
                        by_prefix["noise"] += 1
                # floor(0.4*12)=4 family, floor(0.2*12)=2 leaf, 6 noise
                assert by_prefix == {"fam": 4, "leaf": 2, "noise": 6}

    def test_pools_disjoint(self):
        tree, _ = default_synthetic_tree()
        train, _, _ = generate_synthetic(tree, SynthSpec(samples_per_class=10))
        prefixes = {t.split("_w")[0] for text, _ in train.samples for t in text.split()}
        # fam pools, leaf pools, noise pool never share a token name
        assert all(p.startswith(("fam", "leaf", "noise")) for p in prefixes)

    def test_zero_leaf_fraction_drops_leaf_tokens(self):
        tree, _ = default_synthetic_tree()
        spec = SynthSpec(samples_per_class=10, leaf_fraction=0.0)
        train, _, _ = generate_synthetic(tree, spec)
        for text, _ in train.samples:
            assert not any(t.startswith("leaf") for t in text.split())

    def test_deterministic(self):
        tree, _ = default_synthetic_tree()
        a = generate_synthetic(tree, SynthSpec(samples_per_class=20))
        b = generate_synthetic(tree, SynthSpec(samples_per_class=20))
        for ds_a, ds_b in zip(a, b):
            assert ds_a.samples == ds_b.samples

    def test_seed_changes_samples(self):
        tree, _ = default_synthetic_tree()
        a, _, _ = generate_synthetic(tree, SynthSpec(samples_per_class=20, seed=1))
        b, _, _ = generate_synthetic(tree, SynthSpec(samples_per_class=20, seed=2))
        assert a.samples != b.samples

    def test_no_class_leaves_is_error(self):
        tree, _ = default_synthetic_tree()
        tree.class_leaves = []
        with pytest.raises(DatasetError, match="no class leaves"):
            generate_synthetic(tree, SynthSpec())

    def test_round_trips_through_tsv(self, tmp_path):
        tree, _ = default_synthetic_tree()
        train, _, _ = generate_synthetic(tree, SynthSpec(samples_per_class=10))
        p = tmp_path / "train.tsv"
        save_dataset(train, p)
        back = load_dataset(p, train.label_names)
        assert back.samples == train.samples


class TestListPoolReference:
    """generate_synthetic against the frozen list-pool generator."""

    @pytest.mark.parametrize(
        "tree, spec",
        [
            (default_synthetic_tree()[0], SynthSpec()),
            (
                make_family_tree(3, 2)[0],
                SynthSpec(
                    tokens_per_sample=7,
                    family_fraction=0.3,
                    leaf_fraction=0.3,
                    noise_vocab=5,
                    samples_per_class=30,
                    family_pool_size=2,
                    leaf_pool_size=3,
                    seed=5,
                ),
            ),
            # A class on the root has no family and draws family tokens from noise.
            (
                build_tree([("root", "a"), ("root", "b")], ["a", "b", "root"]),
                SynthSpec(samples_per_class=17, seed=9),
            ),
            # Pools of one word: a bound of 1 draws nothing from the stream.
            (
                make_family_tree(2, 2)[0],
                SynthSpec(noise_vocab=1, family_pool_size=1, leaf_pool_size=1, samples_per_class=20, seed=3),
            ),
            # No noise tokens, then no leaf tokens.
            (
                make_family_tree(2, 2)[0],
                SynthSpec(family_fraction=0.5, leaf_fraction=0.5, samples_per_class=20, seed=4),
            ),
            (make_family_tree(2, 2)[0], SynthSpec(leaf_fraction=0.0, samples_per_class=20, seed=6)),
            (make_family_tree(2, 2)[0], SynthSpec(tokens_per_sample=1, samples_per_class=20, seed=7)),
            (make_family_tree(6, 6)[0], SynthSpec(samples_per_class=30, seed=8)),
            # The infer-cli benchmark's test-split spec.
            (
                default_synthetic_tree()[0],
                SynthSpec(samples_per_class=2000, train_fraction=0.01, dev_fraction=0.01, seed=11),
            ),
        ],
    )
    def test_samples_equal(self, tree, spec):
        got = generate_synthetic(tree, spec)
        assert [ds.samples for ds in got] == list(list_pool_synthetic(tree, spec))
        assert all(ds.label_names == list(tree.class_leaves) for ds in got)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_broadcast_bounds_draw_as_consecutive_calls(self, seed):
        # generate_synthetic rests on this: one integers() call over an
        # array of per-position bounds reads the stream exactly as one
        # integers(0, n, k) call per pool would, bounds of 1 included.
        pools = [(6, 4), (1, 3), (120, 2), (1, 1), (200, 6), (7, 0), (2**31, 2)]
        high = np.repeat([n for n, _ in pools], [k for _, k in pools])
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            got = a.integers(0, high)
            want = np.concatenate([b.integers(0, n, k) for n, k in pools])
            np.testing.assert_array_equal(got, want)
        assert a.integers(0, 2**40) == b.integers(0, 2**40)
