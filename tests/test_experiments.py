"""Ablation-harness helpers: scrambled fixture, uniform anchors, pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import nested_loop_sibling_pairs, per_node_uniform_ball_labels
from hyperclass import experiments
from hyperclass.config import ClassifierConfig, LabelEmbedConfig, SynthSpec
from hyperclass.data import default_synthetic_tree, make_family_tree
from hyperclass.errors import ConfigError, DatasetError, TaxonomyError
from hyperclass.experiments import (
    STRUCTURELESS_RADIUS,
    mean_over_seeds,
    run_synthetic_pipeline,
    scrambled_tree,
    surviving_sibling_pairs,
    uniform_ball_labels,
)
from hyperclass.hierarchy import build_tree, shuffle_tree


class TestSurvivingSiblingPairs:
    def test_identity_counts_all_pairs(self):
        tree, _ = default_synthetic_tree()
        # two families of three leaves: C(3,2) * 2 = 6 sibling pairs
        assert surviving_sibling_pairs(tree, tree) == 6

    def test_seed_zero_shuffle_is_a_family_swap(self):
        # the uniform child-slot shuffle at seed 0 reproduces the original
        # leaf grouping under renamed parents; this is why the fixture
        # search must reject it
        tree, _ = default_synthetic_tree()
        swapped = shuffle_tree(tree, np.random.default_rng(0))
        assert swapped.edges != tree.edges
        assert surviving_sibling_pairs(tree, swapped) == 6

    def test_leaves_without_a_parent_are_not_siblings(self):
        # A root's parent row is -1, which names no parent to share.
        tree, _ = default_synthetic_tree()
        flat = replace(tree, edges=[])
        assert surviving_sibling_pairs(flat, flat) == 0
        assert surviving_sibling_pairs(tree, flat) == 0

    @pytest.mark.parametrize("shape", [(2, 3), (6, 6)])
    def test_matches_nested_loop_oracle(self, shape):
        tree, _ = make_family_tree(*shape)
        assert surviving_sibling_pairs(tree, tree) == nested_loop_sibling_pairs(tree, tree)
        for seed in range(30):
            candidate = shuffle_tree(tree, np.random.default_rng(seed))
            assert surviving_sibling_pairs(tree, candidate) == nested_loop_sibling_pairs(tree, candidate)


class TestScrambledTree:
    def test_fixture_is_deterministic_and_scrambled(self):
        tree, _ = default_synthetic_tree()
        a, seed_a = scrambled_tree(tree)
        b, seed_b = scrambled_tree(tree)
        assert a.edges == b.edges
        assert seed_a == seed_b == 1  # first shuffle past the seed-0 family swap
        assert surviving_sibling_pairs(tree, a) <= 1

    def test_degree_sequence_preserved(self):
        tree, _ = default_synthetic_tree()
        fixture, _ = scrambled_tree(tree)
        assert sorted(p for p, _ in fixture.edges) == sorted(p for p, _ in tree.edges)
        assert sorted(c for _, c in fixture.edges) == sorted(c for _, c in tree.edges)

    def test_impossible_threshold_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_SURVIVING_PAIRS", -1)
        tree, _ = default_synthetic_tree()
        with pytest.raises(
            TaxonomyError,
            match=r"^no sufficiently scrambled shuffle among seeds 0-999: each keeps more than "
            r"-1 of the tree's 6 sibling pairs$",
        ):
            scrambled_tree(tree)

    def test_one_family_cannot_be_scrambled(self):
        # One parent of three leaves: every shuffle keeps all 3 pairs.
        tree = build_tree([("p", "a"), ("p", "b"), ("p", "c")], ["a", "b", "c"])
        with pytest.raises(TaxonomyError, match=r"more than 1 of the tree's 3 sibling pairs$"):
            scrambled_tree(tree)


class TestUniformBallLabels:
    def test_fixed_radius_and_order(self):
        nodes = ["a", "b", "c", "d"]
        emb = uniform_ball_labels(nodes, 5, np.random.default_rng(0))
        assert emb.nodes == nodes
        norms = np.linalg.norm(emb.vectors, axis=1)
        np.testing.assert_allclose(norms, STRUCTURELESS_RADIUS, atol=1e-12)

    def test_directions_distinct_and_seeded(self):
        nodes = [f"n{i}" for i in range(6)]
        a = uniform_ball_labels(nodes, 10, np.random.default_rng(3))
        b = uniform_ball_labels(nodes, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(a.vectors, b.vectors)
        # no two anchors collapse onto the same direction
        dots = a.vectors @ a.vectors.T / STRUCTURELESS_RADIUS**2
        off_diag = dots[~np.eye(6, dtype=bool)]
        assert np.all(off_diag < 0.999)

    @pytest.mark.parametrize("shape", [(1, 2), (4, 5), (6, 10), (36, 10), (133, 3), (20, 100)])
    def test_matches_per_node_loop_bitwise(self, shape):
        # (36, 10) at seed 0 is a shape where np.linalg.norm(axis=1) is one
        # ulp off the loop's per-row norms.
        nodes = [f"n{i}" for i in range(shape[0])]
        for seed in range(5):
            emb = uniform_ball_labels(nodes, shape[1], np.random.default_rng(seed))
            ref = per_node_uniform_ball_labels(nodes, shape[1], np.random.default_rng(seed))
            np.testing.assert_array_equal(emb.vectors, ref)


SMALL_RUN = dict(
    spec=SynthSpec(samples_per_class=10),
    label_cfg=LabelEmbedConfig(dim=3, epochs=10),
    clf_cfg=ClassifierConfig(d_tok=8, d_e=16, epochs=2),
)

RECORD_KEYS = {
    "seed", "loss", "mode", "test_acc", "test_wf1", "train_wf1",
    "best_epoch", "best_dev_wf1", "label_loss",
}


class TestRunSyntheticPipeline:
    def test_wce_record_shape(self):
        rec = run_synthetic_pipeline(0, loss="wce", mode="expert", **SMALL_RUN)
        assert set(rec) == RECORD_KEYS
        assert rec["label_loss"] > 0.0
        assert 0.0 <= rec["test_wf1"] <= 1.0

    def test_ce_skips_stage_one(self):
        rec = run_synthetic_pipeline(0, loss="ce", mode="expert", **SMALL_RUN)
        assert rec["label_loss"] is None
        assert rec["mode"] == "expert"

    def test_uniform_mode_skips_training(self):
        rec = run_synthetic_pipeline(0, loss="wce", mode="uniform", **SMALL_RUN)
        assert rec["label_loss"] is None
        assert rec["mode"] == "uniform"

    def test_deterministic(self):
        a = run_synthetic_pipeline(1, loss="wce", mode="random", **SMALL_RUN)
        b = run_synthetic_pipeline(1, loss="wce", mode="random", **SMALL_RUN)
        assert a == b

    def test_unknown_mode_is_refused_before_any_data(self, monkeypatch):
        def generate(*args):
            raise AssertionError("data generated for an unknown mode")

        monkeypatch.setattr(experiments, "generate_synthetic", generate)
        # ce reads no mode, but its record names one.
        for loss in ("wce", "ce"):
            with pytest.raises(TaxonomyError, match=r"^unknown hierarchy mode 'frobnicate'$"):
                run_synthetic_pipeline(0, loss=loss, mode="frobnicate")

    @pytest.mark.parametrize(
        "fractions, empty",
        [(dict(dev_fraction=0.0), "dev"), (dict(train_fraction=0.0), "training")],
    )
    def test_empty_split_is_dataset_error(self, fractions, empty):
        with pytest.raises(DatasetError, match=f"the {empty} split is empty"):
            run_synthetic_pipeline(1, loss="ce", spec=SynthSpec(**fractions))


    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            run_synthetic_pipeline(-1)


def test_mean_over_seeds():
    records = [{"x": 0.5}, {"x": 1.5}]
    assert mean_over_seeds(records, "x") == 1.0
