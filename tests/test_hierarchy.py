"""Taxonomy parsing, the tree and its ablation transforms, its index,
label-embedding training, and MAP."""

import errno
import itertools
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from helpers import (
    LOSS_ATOL,
    PARAM_ATOL,
    negative_candidates,
    numeric_grad,
    pair_slots,
    per_coordinate_tsv,
    rel_err,
    scattered_label_loss,
    textbook_label_training,
    textbook_reconstruction_map,
)
from hyperclass import hierarchy
from hyperclass.ball import MAX_NORM, distance, random_ball_point
from hyperclass.config import LabelEmbedConfig
from hyperclass.data import default_synthetic_tree, load_dataset, make_family_tree
from hyperclass.encoder import CHUNK_ROWS
from hyperclass.errors import ConfigError, DatasetError, NumericalError, TaxonomyError
from hyperclass.hierarchy import (
    LabelEmbeddings,
    LabelTree,
    build_tree,
    bundled_taxonomy_path,
    label_loss,
    load_embeddings_tsv,
    negative_samples,
    negative_table,
    parse_class_map,
    parse_taxonomy,
    reconstruction_map,
    save_pairs,
    shuffle_tree,
    train_label_embeddings,
    write_embeddings_tsv,
)

BALANCED_EDGES = [("root", f"c{i}") for i in range(3)] + [
    (f"c{i}", f"c{i}_{j}") for i in range(3) for j in range(3)
]
BALANCED_LEAVES = [f"c{i}_{j}" for i in range(3) for j in range(3)]


def balanced_tree():
    return build_tree(BALANCED_EDGES, BALANCED_LEAVES)


def parrott_tree():
    return build_tree(parse_taxonomy(bundled_taxonomy_path()), [])


class TestParsing:
    def test_taxonomy_comments_and_blanks(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("# header comment\n\nroot\ta\nroot\tb  # inline\n\na\tx\n")
        assert parse_taxonomy(p) == [("root", "a"), ("root", "b"), ("a", "x")]

    def test_taxonomy_wrong_columns_reports_line(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("root\ta\nroot\tb\tc\n")
        with pytest.raises(TaxonomyError, match=r"tax\.tsv:2"):
            parse_taxonomy(p)

    def test_taxonomy_bad_node_name(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("root\thas space\n")
        with pytest.raises(TaxonomyError, match=r"tax\.tsv:1"):
            parse_taxonomy(p)

    def test_class_map_order_defines_index(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("joy label\tjoy\nanger!\tanger\n")
        assert parse_class_map(p) == [("joy label", "joy"), ("anger!", "anger")]

    def test_class_map_empty_is_error(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("# nothing here\n")
        with pytest.raises(TaxonomyError, match="empty"):
            parse_class_map(p)

    def test_class_map_repeated_label_names_line(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("a\tx\n# comment\nb\ty\na\tz\n")
        with pytest.raises(TaxonomyError, match=r"map\.tsv:4: label 'a' is already mapped on line 1"):
            parse_class_map(p)

    def test_class_map_bad_node_name(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("fine\tok\nfine2\tbad node\n")
        with pytest.raises(TaxonomyError, match=r"map\.tsv:2"):
            parse_class_map(p)

    def test_save_taxonomy_round_trip(self, tmp_path):
        p = tmp_path / "tax.tsv"
        save_pairs(BALANCED_EDGES, p)
        assert parse_taxonomy(p) == BALANCED_EDGES

    def test_save_class_map_round_trip(self, tmp_path):
        rows = [("label-0", "c0_0"), ("label-1", "c1_2")]
        p = tmp_path / "map.tsv"
        save_pairs(rows, p)
        assert parse_class_map(p) == rows


class TestTreeValidation:
    def test_duplicate_nodes(self):
        with pytest.raises(TaxonomyError, match="duplicate node"):
            LabelTree(nodes=["a", "a"], edges=[], class_leaves=[])

    def test_two_parents(self):
        with pytest.raises(TaxonomyError, match="two parents"):
            build_tree([("a", "x"), ("b", "x")], [])

    def test_cycle(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            build_tree([("a", "b"), ("b", "c"), ("c", "a")], [])

    def test_cycle_with_tail_names_a_node_on_the_cycle(self):
        # t0 -> t1 hangs under the cycle a -> b -> c -> a; in every node
        # order, the tail rows included first, the error names a, b or c.
        edges = [("c", "t0"), ("t0", "t1"), ("a", "b"), ("b", "c"), ("c", "a")]
        for nodes in itertools.permutations(["t0", "t1", "a", "b", "c"]):
            with pytest.raises(TaxonomyError, match=r"^cycle detected through node '[abc]'$"):
                LabelTree(nodes=list(nodes), edges=edges, class_leaves=[])

    def test_edge_with_unknown_node(self):
        with pytest.raises(TaxonomyError, match="unknown node"):
            LabelTree(nodes=["a"], edges=[("a", "ghost")], class_leaves=[])

    def test_class_leaf_missing(self):
        with pytest.raises(TaxonomyError, match="not a tree node"):
            LabelTree(nodes=["a", "b"], edges=[("a", "b")], class_leaves=["zzz"])

    def test_duplicate_class_leaf(self):
        with pytest.raises(TaxonomyError, match="duplicate class leaf"):
            build_tree([("a", "b")], ["b", "b"])

    def test_no_nodes(self):
        # Stage one would otherwise fail in np.stack over no points.
        with pytest.raises(TaxonomyError, match=r"^the tree has no nodes$"):
            build_tree([], [])
        with pytest.raises(TaxonomyError, match=r"^the tree has no nodes$"):
            replace(balanced_tree(), nodes=[], edges=[], class_leaves=[])


def is_forest(edges):
    """Whether every node of `edges`, each child named once, reaches a
    root by walking up one parent at a time."""
    parent = {child: par for par, child in edges}
    for node in parent:
        for _ in range(len(parent) + 1):
            if node not in parent:
                break
            node = parent[node]
        else:
            return False
    return True


# Each hierarchy mode's tree as a transform of the expert tree.
TRANSFORMS = {
    "expert": lambda tree: tree,
    "none": lambda tree: replace(tree, edges=[]),
    "random": lambda tree: shuffle_tree(tree, np.random.default_rng(0)),
}


class TestBuildTree:
    def test_node_order_is_first_appearance(self):
        tree = build_tree([("r", "b"), ("r", "a")], ["a"])
        assert tree.nodes == ["r", "b", "a"]

    @pytest.mark.parametrize("mode", TRANSFORMS)
    def test_class_leaf_outside_edges_rejected(self, mode):
        # Nodes come from the edges only, and every transform keeps them:
        # a class leaf that no edge names is not a tree node.
        with pytest.raises(TaxonomyError, match=r"^class leaf 'z' is not a tree node$"):
            build_tree(BALANCED_EDGES, BALANCED_LEAVES + ["z"])
        tree = TRANSFORMS[mode](balanced_tree())
        with pytest.raises(TaxonomyError, match=r"^class leaf 'z' is not a tree node$"):
            replace(tree, class_leaves=BALANCED_LEAVES + ["z"])

    def test_none_mode_on_empty_taxonomy_rejected(self):
        # An empty taxonomy names no node, so no tree of it holds a class leaf.
        with pytest.raises(TaxonomyError, match=r"^class leaf 'a' is not a tree node$"):
            build_tree([], ["a"])

    def test_none_mode_drops_edges_keeps_nodes(self):
        expert = balanced_tree()
        tree = replace(expert, edges=[])
        assert tree.edges == []
        assert tree.nodes == expert.nodes and len(tree.nodes) == 13
        assert tree.class_leaves == BALANCED_LEAVES
        assert (tree.parent == -1).all() and not len(tree.parents)

    def test_random_preserves_degree_sequence(self):
        # The nodes keep their order and the input tree is left as it was.
        for tree in (balanced_tree(), parrott_tree()):
            before = (list(tree.nodes), list(tree.edges), list(tree.class_leaves))
            for seed in range(5):
                shuffled = shuffle_tree(tree, np.random.default_rng(seed))
                assert sorted(p for p, _ in shuffled.edges) == sorted(p for p, _ in tree.edges)
                assert sorted(c for _, c in shuffled.edges) == sorted(c for _, c in tree.edges)
                assert shuffled.nodes == tree.nodes and shuffled.class_leaves == tree.class_leaves
                assert shuffled == LabelTree(shuffled.nodes, shuffled.edges, shuffled.class_leaves)
            assert (tree.nodes, tree.edges, tree.class_leaves) == before

    @pytest.mark.parametrize(
        "tree", [make_family_tree(2, 3)[0], parrott_tree()], ids=["family-2x3", "parrott"]
    )
    def test_random_is_the_first_forest_of_child_slot_permutations(self, tree):
        # One rng.permutation of the child slots per attempt; the first
        # draw that is a forest is the tree. At seeds 0-2 the first draw
        # on both trees is not a forest.
        children = [child for _, child in tree.edges]

        def draws(rng):
            while True:
                perm = rng.permutation(len(children))
                yield [(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)]

        for seed in range(3):
            attempts = draws(np.random.default_rng(seed))
            assert not is_forest(next(attempts))
            expected = next(edges for edges in attempts if is_forest(edges))
            assert shuffle_tree(tree, np.random.default_rng(seed)).edges == expected

    def test_random_is_deterministic_per_seed(self):
        a = shuffle_tree(balanced_tree(), np.random.default_rng(5))
        b = shuffle_tree(balanced_tree(), np.random.default_rng(5))
        assert a.edges == b.edges

    def test_random_actually_shuffles(self):
        tree = parrott_tree()
        assert shuffle_tree(tree, np.random.default_rng(0)).edges != tree.edges

    def test_load_tree_from_files(self, tmp_path):
        tax = tmp_path / "tax.tsv"
        cmap = tmp_path / "map.tsv"
        save_pairs(BALANCED_EDGES, tax)
        save_pairs([(leaf, leaf) for leaf in BALANCED_LEAVES], cmap)
        tree = build_tree(parse_taxonomy(tax), [node for _, node in parse_class_map(cmap)])
        assert tree.edges == BALANCED_EDGES
        assert tree.class_leaves == BALANCED_LEAVES
        assert tree.num_classes == 9


def draw_names(tree, u, k, rng):
    table = negative_table(tree)
    return [tree.nodes[i] for i in negative_samples(table, np.array([tree.nodes.index(u)]), k, rng)[0]]


class TestNegativeSamples:
    def test_excludes_node_and_children(self):
        tree = balanced_tree()
        rng = np.random.default_rng(0)
        for _ in range(200):
            for pick in draw_names(tree, "root", 5, rng):
                assert pick not in ("root", "c0", "c1", "c2")

    def test_draws_with_replacement(self):
        # a's only candidates are r and b: 50 draws repeat them.
        tree = build_tree([("r", "a"), ("r", "b"), ("a", "x")], [])
        picks = draw_names(tree, "a", 50, np.random.default_rng(0))
        assert len(picks) == 50 and set(picks) == {"r", "b"}
        # r and its one child leave r no candidate at all.
        with pytest.raises(TaxonomyError, match="no negative candidates for node 'r'"):
            negative_table(build_tree([("r", "a")], ["a"]))

    def test_uniform_over_candidates(self):
        tree = balanced_tree()
        rng = np.random.default_rng(123)
        candidates = [n for n in tree.nodes if n not in ("root", "c0", "c1", "c2")]
        counts = {c: 0 for c in candidates}
        for pick in draw_names(tree, "root", 100_000, rng):
            counts[pick] += 1
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01

    def test_candidates_in_node_order(self):
        tree = balanced_tree()
        flat, start, count = negative_table(tree)
        u = tree.index["c1"]
        rows = flat[start[u] : start[u] + count[u]]
        assert [tree.nodes[i] for i in rows] == [
            n for n in tree.nodes if n not in ("c1", "c1_0", "c1_1", "c1_2")
        ]

    def test_batch_draw_is_the_per_parent_draws_in_order(self):
        # One call for a batch of parents (repeats included) consumes the
        # RNG stream as one draw per parent in turn, so batch size 1
        # reproduces one step per pair.
        tree = build_tree(parse_taxonomy(bundled_taxonomy_path()), [])
        names = [u for u, _ in tree.edges]
        table = negative_table(tree)
        parents = np.array([tree.nodes.index(u) for u in names])[[5, 0, 5, 90, 126, 40, 0]]
        batch_rng, pair_rng = np.random.default_rng(9), np.random.default_rng(9)
        batch = negative_samples(table, parents, 10, batch_rng)
        for row, negs in zip(parents, batch):
            candidates = negative_candidates(tree, tree.nodes[row])
            np.testing.assert_array_equal(negs, candidates[pair_rng.integers(0, len(candidates), size=10)])
        assert batch_rng.random() == pair_rng.random()


class TestLabelLoss:
    @staticmethod
    def loss_of(points, negatives):
        """label_loss on named 2-D points: u, v, then the named negatives."""
        names = list(points)
        vectors = np.array([points[n] for n in names], dtype=np.float64)
        idx = np.array([[names.index(n) for n in ["u", "v", *negatives]]])
        return label_loss(vectors, pair_slots(idx, vectors.shape[1]))

    def test_symmetric_pair_gives_ln2(self):
        loss, _ = self.loss_of({"u": [0.0, 0.0], "v": [0.3, 0.0], "n": [-0.3, 0.0]}, ["n"])
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_coincident_pair_distant_negative(self):
        r = np.tanh(5.0)  # d(0, (r,0)) = 2*artanh(r) = 10
        loss, _ = self.loss_of({"u": [0.0, 0.0], "v": [0.0, 0.0], "n": [r, 0.0]}, ["n"])
        assert abs(loss - np.log1p(np.exp(-10.0))) < 1e-9

    def test_positive_and_finite(self):
        rng = np.random.default_rng(0)
        loss, grads = self.loss_of(
            {name: random_ball_point(rng, 3, 0.95) for name in "uvabc"}, ["a", "b", "c"]
        )
        assert 0.0 < loss < np.inf
        assert np.all(np.isfinite(grads))

    @pytest.mark.parametrize("negatives", [["a", "b", "c"], ["a", "a", "b"]])
    def test_gradients_match_finite_differences(self, negatives):
        rng = np.random.default_rng(7)
        names = ["u", "v", "a", "b", "c"]
        vectors = np.stack([random_ball_point(rng, 3, 0.7) for _ in names])
        idx = np.array([[names.index(n) for n in ["u", "v", *negatives]]])
        slots = pair_slots(idx, 3)
        _, grads = label_loss(vectors, slots)
        # One row per node, duplicates summed; a row no pair touches is 0.
        assert grads.shape == vectors.shape
        for row, grad in enumerate(grads):
            if row in idx:
                num = numeric_grad(lambda: label_loss(vectors, slots)[0], vectors[row])
                assert rel_err(grad, num) < 1e-4
            else:
                assert not grad.any()

    def test_batch_is_the_sum_of_its_pairs(self):
        # Pairs 0 and 2 share a parent, pair 1's parent is pair 0's child,
        # and negatives repeat within and across pairs; rows 9 and 10 are
        # in no pair.
        rng = np.random.default_rng(3)
        vectors = np.stack([random_ball_point(rng, 4, 0.8) for _ in range(11)])
        u = np.array([0, 1, 0, 5])
        v = np.array([1, 2, 3, 6])
        negatives = np.array([[4, 4, 5, 8], [0, 4, 7, 7], [2, 8, 8, 8], [0, 1, 4, 2]])
        idx = np.column_stack((u, v, negatives))
        loss, grads = label_loss(vectors, pair_slots(idx, 4))
        per_pair = [label_loss(vectors, pair_slots(pair[None], 4)) for pair in idx]
        assert abs(loss - sum(p[0] for p in per_pair)) <= 1e-12
        np.testing.assert_array_equal(grads[9:], 0.0)
        np.testing.assert_allclose(grads, sum(p[1] for p in per_pair), rtol=0, atol=1e-12)
        ref_loss, ref_grads = scattered_label_loss(vectors, idx)
        assert abs(loss - ref_loss) <= 1e-12
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-12)

    def test_antipodal_points_at_the_clamp_radius(self):
        # The log-sum-exp takes no max shift: at the clamp radius the
        # distances reach their largest, about 24.4 between antipodes, and
        # the loss and gradients stay those of the shifted formula.
        axes = np.eye(3) * MAX_NORM
        vectors = np.concatenate((axes, -axes))
        idx = np.array([[0, 3, 1, 4, 2, 5], [3, 0, 3, 3, 3, 3], [1, 0, 4, 4, 3, 3]])
        loss, grads = label_loss(vectors, pair_slots(idx, 3))
        assert distance(vectors[0], vectors[3]) > 24.4
        assert np.isfinite(loss) and np.isfinite(grads).all()
        ref_loss, ref_grads = scattered_label_loss(vectors, idx)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert rel_err(grads, ref_grads) <= 1e-12


class TestTrainLabelEmbeddings:
    def test_no_edges_returns_initialization(self):
        tree = replace(balanced_tree(), edges=[])
        cfg = LabelEmbedConfig(dim=4, epochs=50, seed=3)
        emb, final_loss = train_label_embeddings(tree, cfg)
        assert final_loss is None
        assert np.all(np.linalg.norm(emb.vectors, axis=1) <= hierarchy.INIT_RADIUS)

    def test_bitwise_deterministic(self):
        cfg = LabelEmbedConfig(dim=4, epochs=5, negatives=3, seed=11)
        a, la = train_label_embeddings(balanced_tree(), cfg)
        b, lb = train_label_embeddings(balanced_tree(), cfg)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert la == lb and la is not None and la > 0.0

    def test_batches_of_ten_bitwise_deterministic(self, monkeypatch):
        assert hierarchy.PAIRS_PER_STEP == 10
        sizes = []

        def counted(vectors, slots):
            sizes.append(len(slots))
            return label_loss(vectors, slots)

        monkeypatch.setattr(hierarchy, "label_loss", counted)
        monkeypatch.setattr(hierarchy, "BURN_IN_EPOCHS", 1)
        tree = build_tree(parse_taxonomy(bundled_taxonomy_path()), [])
        cfg = LabelEmbedConfig(dim=5, epochs=3, seed=4)
        a, la = train_label_embeddings(tree, cfg)
        b, lb = train_label_embeddings(tree, cfg)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert la == lb
        # 127 pairs: one loss call per batch, twelve of 10 and one of 7.
        assert sizes == 2 * 3 * ([10] * 12 + [7])
        monkeypatch.setattr(hierarchy, "PAIRS_PER_STEP", 1)
        one, _ = train_label_embeddings(tree, cfg)
        assert not np.array_equal(a.vectors, one.vectors)

    def test_stays_in_ball_with_aggressive_lr(self, monkeypatch):
        monkeypatch.setattr(hierarchy, "BURN_IN_EPOCHS", 0)
        cfg = LabelEmbedConfig(dim=3, epochs=20, negatives=5, lr=0.5, seed=0)
        emb, _ = train_label_embeddings(balanced_tree(), cfg)
        assert np.all(np.linalg.norm(emb.vectors, axis=1) <= MAX_NORM * (1.0 + 1e-15))

    def test_balanced_tree_reconstruction_and_leaf_norms(self):
        tree = balanced_tree()
        cfg = LabelEmbedConfig(dim=10, epochs=300, seed=0)
        emb, _ = train_label_embeddings(tree, cfg)
        assert reconstruction_map(emb, tree) >= 0.9
        norms = np.linalg.norm(emb.vectors, axis=1)
        leaf_mean = norms[tree.depth == 2].mean()
        root_mean = norms[tree.depth == 0].mean()
        assert leaf_mean > root_mean

    @pytest.mark.parametrize(
        "tree, cfg, pairs_per_step",
        [
            *(
                (parrott_tree(), LabelEmbedConfig(dim=10, epochs=40, seed=seed), 10)
                for seed in (1, 2, 3)
            ),
            (default_synthetic_tree()[0], LabelEmbedConfig(dim=10, epochs=300), 10),
            (make_family_tree(5, 3)[0], LabelEmbedConfig(dim=6, epochs=30, seed=8), 10),
            (balanced_tree(), LabelEmbedConfig(dim=5, epochs=40, negatives=4, seed=3), 1),
        ],
        ids=["parrott-1", "parrott-2", "parrott-3", "family-300", "twenty-edges", "one-pair"],
    )
    def test_matches_frozen_batched_reference_bitwise(self, tree, cfg, pairs_per_step, monkeypatch):
        # One negative draw per epoch, one gather and one gradient table per
        # batch and Adam's scaled-moment step move the same points as the
        # textbook loop over pairs with dense Riemannian Adam, up to
        # rounding; the one-pair case is one step per pair.
        monkeypatch.setattr(hierarchy, "PAIRS_PER_STEP", pairs_per_step)
        ref_vectors, ref_loss = textbook_label_training(tree, cfg, pairs_per_step)
        emb, loss = train_label_embeddings(tree, cfg)
        np.testing.assert_allclose(emb.vectors, ref_vectors, rtol=0, atol=PARAM_ATOL)
        assert abs(loss - ref_loss) <= LOSS_ATOL

    def test_nan_gradient_raises_numerical_error(self, monkeypatch):
        calls = []

        def poisoned(vectors, slots):
            loss, grads = label_loss(vectors, slots)
            calls.append(1)
            if len(calls) == 2:
                grads[0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(hierarchy, "label_loss", poisoned)
        cfg = LabelEmbedConfig(dim=4, epochs=3, negatives=3, seed=1)
        # 12 pairs in batches of 10: the second call is epoch 0's batch 1,
        # which holds the last two pairs of the epoch.
        pair = r"\(\w+, \w+\)"
        with pytest.raises(NumericalError, match=rf"^stage one, epoch 0, batch 1, pairs {pair}, {pair}: "):
            train_label_embeddings(balanced_tree(), cfg)

    def test_infinite_lr_rejected_by_config(self):
        cfg = LabelEmbedConfig(dim=4, epochs=3, negatives=3, lr=float("inf"), seed=1)
        with pytest.raises(ConfigError, match="learning rate must be positive and finite"):
            train_label_embeddings(balanced_tree(), cfg)


MAP_TREES = {
    "parrott": parrott_tree(),
    "family-2x3": make_family_tree(2, 3)[0],
    "family-6x6": make_family_tree(6, 6)[0],
}


class TestReconstructionMap:
    def test_two_family_geometry_is_perfect(self):
        edges = [("root", "f0"), ("root", "f1")] + [
            (f"f{i}", f"f{i}_l{j}") for i in range(2) for j in range(3)
        ]
        tree = build_tree(edges, [])
        # Families on opposite sides, leaves clustered tightly around each
        # family direction: every child strictly nearest to its parent.
        pts = {"root": np.zeros(2)}
        for i, sign in enumerate((1.0, -1.0)):
            pts[f"f{i}"] = sign * np.array([0.3, 0.0])
            for j, ang in enumerate((-0.35, 0.0, 0.35)):
                pts[f"f{i}_l{j}"] = sign * 0.45 * np.array([np.cos(ang), np.sin(ang)])
        emb = LabelEmbeddings(nodes=tree.nodes, vectors=np.stack([pts[n] for n in tree.nodes]))
        assert reconstruction_map(emb, tree) == 1.0

    def test_single_edge_tree(self):
        tree = build_tree([("a", "b")], [])
        emb = LabelEmbeddings(nodes=["a", "b"], vectors=np.array([[0.0, 0.0], [0.5, 0.0]]))
        assert reconstruction_map(emb, tree) == 1.0

    def test_child_ranked_second_gives_half(self):
        tree = LabelTree(nodes=["r", "c", "x"], edges=[("r", "c")], class_leaves=["x"])
        emb = LabelEmbeddings(
            nodes=tree.nodes,
            vectors=np.array([[0.0, 0.0], [0.5, 0.0], [0.1, 0.0]]),
        )
        assert reconstruction_map(emb, tree) == 0.5

    def test_tie_does_not_push_the_child_down(self):
        # x is a non-neighbour exactly as far from r as its child c.
        tree = LabelTree(nodes=["r", "c", "x"], edges=[("r", "c")], class_leaves=[])
        emb = LabelEmbeddings(
            nodes=tree.nodes,
            vectors=np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]]),
        )
        assert distance(emb.vectors[0], emb.vectors[1]) == distance(emb.vectors[0], emb.vectors[2])
        assert reconstruction_map(emb, tree) == 1.0

    @pytest.mark.parametrize("tree", MAP_TREES.values(), ids=MAP_TREES.keys())
    def test_matches_textbook_oracle(self, tree):
        # Trained points, where most children rank near the top, and
        # random ones, where ranks spread over the non-neighbours.
        embeddings = [
            train_label_embeddings(tree, LabelEmbedConfig(dim=10, epochs=40, seed=seed))[0]
            for seed in (1, 2, 3)
        ]
        rng = np.random.default_rng(0)
        for radius in (0.5, 0.9, 0.999):
            vectors = np.stack([random_ball_point(rng, 10, radius) for _ in tree.nodes])
            embeddings.append(LabelEmbeddings(nodes=tree.nodes, vectors=vectors))
        for emb in embeddings:
            assert reconstruction_map(emb, tree) == textbook_reconstruction_map(emb, tree)

    def test_random_embeddings_score_near_chance(self):
        tree = balanced_tree()
        rng = np.random.default_rng(0)
        scores = []
        for _ in range(100):
            vecs = np.stack([random_ball_point(rng, 5, 0.9) for _ in tree.nodes])
            scores.append(reconstruction_map(LabelEmbeddings(nodes=tree.nodes, vectors=vecs), tree))
        assert np.mean(scores) < 0.75

    def test_no_parents_returns_zero(self):
        tree = replace(balanced_tree(), edges=[])
        emb = LabelEmbeddings(nodes=tree.nodes, vectors=np.zeros((13, 2)))
        assert reconstruction_map(emb, tree) == 0.0


class TestNodeDepths:
    def test_chain_and_isolated(self):
        tree = LabelTree(nodes=["a", "b", "c", "iso"], edges=[("a", "b"), ("b", "c")], class_leaves=["iso"])
        assert dict(zip(tree.nodes, tree.depth.tolist())) == {"a": 0, "b": 1, "c": 2, "iso": 0}


def shuffled(tree, seed):
    return shuffle_tree(tree, np.random.default_rng(seed))


EXPERT_TREES = MAP_TREES | {
    "balanced": balanced_tree(),
    # A 40-edge chain listed from the bottom up: each row's parent comes after it.
    "chain": build_tree([(f"n{i}", f"n{i + 1}") for i in reversed(range(40))], []),
}
ORACLE_TREES = EXPERT_TREES | {
    f"{name}-random-{seed}": shuffled(EXPERT_TREES[name], seed)
    for name in ("parrott", "family-2x3", "family-6x6")
    for seed in (0, 1)
}


@pytest.mark.parametrize("tree", ORACLE_TREES.values(), ids=ORACLE_TREES.keys())
class TestTreeIndex:
    """The index a LabelTree builds once equals its definition, worked out
    from the node names and edges."""

    def test_index_and_parent(self, tree):
        parent_of = {child: parent for parent, child in tree.edges}
        assert tree.index == {name: i for i, name in enumerate(tree.nodes)}
        expected = [tree.nodes.index(parent_of[n]) if n in parent_of else -1 for n in tree.nodes]
        assert tree.parent.tolist() == expected

    def test_depth(self, tree):
        # A root is at depth 0 and a child one edge below its parent.
        depth = dict(zip(tree.nodes, tree.depth.tolist()))
        roots = [node for node in tree.nodes if node not in {child for _, child in tree.edges}]
        assert [depth[node] for node in roots] == [0] * len(roots)
        assert [depth[child] for _, child in tree.edges] == [depth[parent] + 1 for parent, _ in tree.edges]

    def test_parents(self, tree):
        expected = np.array(sorted({tree.index[u] for u, _ in tree.edges}), dtype=np.intp)
        assert tree.parents.dtype == expected.dtype
        np.testing.assert_array_equal(tree.parents, expected)

    def test_negative_table(self, tree):
        # Each parent's candidates, in row order, back to back; no others.
        flat, start, count = negative_table(tree)
        rows = {tree.index[u]: negative_candidates(tree, u) for u, _ in tree.edges}
        expected = [rows.get(i, np.empty(0, dtype=np.intp)) for i in range(len(tree.nodes))]
        for array in (flat, start, count):
            assert array.dtype == np.intp
        np.testing.assert_array_equal(count, [len(r) for r in expected])
        np.testing.assert_array_equal(start, np.cumsum(count) - count)
        np.testing.assert_array_equal(flat, np.concatenate(expected))


class TestEmbeddingTsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        emb = LabelEmbeddings(
            nodes=["a-1", "b_2", "c"],
            vectors=rng.uniform(-0.99, 0.99, size=(3, 5)),
        )
        p = tmp_path / "emb.tsv"
        write_embeddings_tsv(p, emb.vectors.shape[1], [(emb.nodes, emb.vectors)])
        back = load_embeddings_tsv(p)
        assert back.nodes == emb.nodes
        np.testing.assert_array_equal(back.vectors, emb.vectors)

    @pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunked_writer_matches_per_coordinate_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        # Magnitudes from subnormal to near the float64 maximum.
        vectors = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-320, 308, size=(rows, 5))
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                   np.finfo(float).max, 0.1, 1 / 3, np.inf, -np.inf, np.nan]
        vectors.flat[: len(special)] = special
        names = [f"s{i}_é" for i in range(rows)]
        chunks = (
            (names[start : start + CHUNK_ROWS], vectors[start : start + CHUNK_ROWS])
            for start in range(0, rows, CHUNK_ROWS)
        )
        write_embeddings_tsv(tmp_path / "new.tsv", 5, chunks)
        per_coordinate_tsv(names, vectors, tmp_path / "old.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()

    def test_zero_rows_round_trip(self, tmp_path):
        p = tmp_path / "emb.tsv"
        write_embeddings_tsv(p, 2, [([], np.zeros((0, 2)))])
        back = load_embeddings_tsv(p)
        assert back.nodes == []
        assert back.vectors.shape == (0, 2)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("wrong\tdim0\na\t0.5\n")
        with pytest.raises(TaxonomyError, match="bad header"):
            load_embeddings_tsv(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("node\tdim0\tdim1\na\t0.5\n")
        with pytest.raises(TaxonomyError, match=r"emb\.tsv:2"):
            load_embeddings_tsv(p)

    def test_not_utf8_is_named(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_bytes(b"node\tdim0\na\xff\t0.5\n")
        with pytest.raises(TaxonomyError, match=r"emb\.tsv: not UTF-8 text"):
            load_embeddings_tsv(p)

    def test_bad_coordinate_names_line(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("node\tdim0\tdim1\na\t0.5\t0.25\nb\t0.5\tx\n")
        with pytest.raises(TaxonomyError, match=r"emb\.tsv:3: could not convert string to float: 'x'"):
            load_embeddings_tsv(p)


@pytest.mark.parametrize(
    "reader, kind",
    [(parse_taxonomy, "taxonomy"), (parse_class_map, "class map"), (load_embeddings_tsv, "embedding TSV")],
)
@pytest.mark.parametrize(
    "where, code", [("missing.tsv", errno.ENOENT), ("", errno.EISDIR)], ids=["missing", "directory"]
)
def test_unreadable_path_is_named(tmp_path, reader, kind, where, code):
    # A missing path or a directory is a TaxonomyError naming the path and
    # the kind of file, not a bare OSError.
    path = tmp_path / where
    with pytest.raises(TaxonomyError) as info:
        reader(path)
    assert str(info.value) == f"{path}: cannot read {kind}: {os.strerror(code)}"


def _dataset(path):
    ds = load_dataset(path)
    return ds.samples, ds.label_names


def _embeddings(path):
    emb = load_embeddings_tsv(path)
    return emb.nodes, emb.vectors.tolist()


# Each reader of a text input file, with a small valid file of its kind.
TEXT_READERS = {
    "dataset": (_dataset, "hello world\tjoy\nbye now\tsad\n"),
    "taxonomy": (parse_taxonomy, "root\tjoy\nroot\tsad  # inline\n"),
    "class map": (parse_class_map, "joy label\tjoy\nsad\tsad\n"),
    "embedding TSV": (_embeddings, "node\tdim0\tdim1\njoy\t0.5\t-0.25\nsad\t0\t1e-300\n"),
}
BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("kind", list(TEXT_READERS))
def test_utf8_bom_is_dropped(tmp_path, kind):
    # A file saved with a byte order mark reads as the file without it, and
    # one that is not UTF-8 after the mark still names the reason.
    reader, text = TEXT_READERS[kind]
    plain, saved, broken = tmp_path / "plain.tsv", tmp_path / "saved.tsv", tmp_path / "broken.tsv"
    plain.write_bytes(text.encode())
    saved.write_bytes(BOM + text.encode())
    assert reader(saved) == reader(plain)
    broken.write_bytes(BOM + b"\xff" + text.encode())
    with pytest.raises((TaxonomyError, DatasetError)) as info:
        reader(broken)
    assert str(info.value) == f"{broken}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("bom", [b"", BOM], ids=["no-bom", "bom"])
@pytest.mark.parametrize("kind", list(TEXT_READERS))
def test_windows_line_ends_read_as_plain(tmp_path, kind, bom):
    reader, text = TEXT_READERS[kind]
    plain, saved = tmp_path / "plain.tsv", tmp_path / "saved.tsv"
    plain.write_bytes(text.encode())
    saved.write_bytes(bom + text.encode().replace(b"\n", b"\r\n"))
    assert reader(saved) == reader(plain)


class TestBundledEmotionTaxonomy:
    def test_shape(self):
        edges = parse_taxonomy(bundled_taxonomy_path())
        tree = build_tree(edges, [])
        assert len(tree.edges) == 127
        assert len(tree.nodes) == 133
        assert set(tree.depth.tolist()) == {0, 1, 2}
        assert np.count_nonzero(tree.depth == 0) == 6
        with_children = {p for p, _ in tree.edges}
        leaves = [n for n in tree.nodes if n not in with_children]
        assert len(leaves) == 107


@pytest.mark.slow
def test_expert_tree_embeds_better_than_shuffled():
    # Tree-relative MAP: the real taxonomy is easier to reconstruct than a
    # degree-matched shuffle of it, on 5-seed means at full training length.
    edges = parse_taxonomy(bundled_taxonomy_path())
    expert_scores, shuffled_scores = [], []
    for seed in range(5):
        cfg = LabelEmbedConfig(dim=10, epochs=300, seed=seed)
        expert = build_tree(edges, [])
        emb, _ = train_label_embeddings(expert, cfg)
        expert_scores.append(reconstruction_map(emb, expert))
        shuffled = shuffle_tree(expert, np.random.default_rng(seed))
        emb, _ = train_label_embeddings(shuffled, cfg)
        shuffled_scores.append(reconstruction_map(emb, shuffled))
    assert np.mean(expert_scores) > np.mean(shuffled_scores)
