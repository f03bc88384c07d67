"""The paper's four arms on the synthetic benchmark, for scripts/run_arms.py,
scripts/same_bits.py and the tests: run_synthetic_pipeline is one fully
seeded run (the two-family dataset, stage one under the arm's hierarchy
mode for wce, stage two, train/test metrics), and summarize_arms is the
one place the arms' records become the quantities the claim is judged on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import ClassifierConfig, LabelEmbedConfig, SynthSpec
from .data import default_synthetic_tree, generate_synthetic
from .errors import TaxonomyError
from .hierarchy import LabelEmbeddings, LabelTree, shuffle_tree, train_label_embeddings
from .training import evaluate_model, train_classifier


# The paper's four arms: each one's loss and hierarchy mode (defined below).
ARMS = {
    "wce": dict(loss="wce", mode="expert"),
    "ce": dict(loss="ce"),
    "uniform": dict(loss="wce", mode="uniform"),
    "random": dict(loss="wce", mode="random"),
}


def default_label_config() -> LabelEmbedConfig:
    return LabelEmbedConfig(dim=10)


def run_synthetic_pipeline(seed: int, loss: str = "wce", mode: str = "expert") -> dict:
    """Run dataset generation + both training stages for one seed on the
    default two-family tree.

    The seed drives the synthetic draw and both training stages. With
    loss="wce", stage one trains on the tree itself (mode="expert") or on
    a shuffle of it ("random"), and "uniform" places the anchors with
    uniform_ball_labels instead; any other mode raises TaxonomyError, with
    either loss, before any data is drawn. The shuffled hierarchy is a
    fixture shared across seeds, like comparing against one broken
    taxonomy rather than redrawing it per run; see scrambled_tree.
    """
    if mode not in ("expert", "random", "uniform"):
        raise TaxonomyError(f"unknown hierarchy mode {mode!r}")
    tree, class_map = default_synthetic_tree()
    label_tree = None
    if loss == "wce" and mode != "uniform":
        label_tree = tree if mode == "expert" else scrambled_tree(tree)[0]
    label_cfg = replace(default_label_config(), seed=seed)
    train_ds, dev_ds, test_ds = generate_synthetic(tree, SynthSpec(seed=seed))

    labels = final_loss = None
    if label_tree is not None:
        labels, final_loss = train_label_embeddings(label_tree, label_cfg)
    elif loss == "wce":
        labels = uniform_ball_labels(tree.class_leaves, label_cfg.dim, np.random.default_rng(seed))

    result = train_classifier(
        train_ds,
        dev_ds,
        ClassifierConfig(seed=seed, loss=loss),
        labels=labels,
        class_map=class_map if loss == "wce" else None,
    )
    test_eval, _ = evaluate_model(result.model, result.head, test_ds)
    train_eval, _ = evaluate_model(result.model, result.head, train_ds)
    return {
        "seed": seed,
        "loss": loss,
        "mode": mode,
        "test_acc": test_eval.accuracy,
        "test_wf1": test_eval.weighted_f1,
        "train_wf1": train_eval.weighted_f1,
        "best_epoch": result.best_epoch,
        "best_dev_wf1": result.best_dev_wf1,
        "label_loss": final_loss,
    }


def surviving_sibling_pairs(expert: LabelTree, candidate: LabelTree) -> int:
    """Count class-leaf pairs that are siblings in both trees: pairs whose
    parent row is the same, and not -1, in each."""
    siblings = np.ones((expert.num_classes, expert.num_classes), dtype=bool)
    for tree in (expert, candidate):
        parent = tree.parent[[tree.index[leaf] for leaf in expert.class_leaves]]
        siblings &= (parent[:, None] == parent) & (parent >= 0)
    return int(np.triu(siblings, 1).sum())


# Sibling pairs a scrambled tree may keep: with six leaves in two triples
# at least one pair always survives a shuffle, by pigeonhole.
MAX_SURVIVING_PAIRS = 1


def scrambled_tree(tree: LabelTree) -> tuple[LabelTree, int]:
    """Shuffled-hierarchy fixture for the ablation harness.

    Draws uniform child-slot shuffles from the seeds 0, 1, 2, ...
    and keeps the first one that actually breaks the sibling structure.
    A uniform shuffle occasionally reproduces the original grouping under
    new parent names (swapping both family subtrees wholesale); that draw
    is the real hierarchy in disguise, not a scrambled one, so the search
    skips it. MAX_SURVIVING_PAIRS is the fewest pairs that can survive,
    so the search accepts only maximally scrambled draws. Returns the
    tree and the shuffle seed that produced it.
    """
    for shuffle_seed in range(1000):
        candidate = shuffle_tree(tree, np.random.default_rng(shuffle_seed))
        if surviving_sibling_pairs(tree, candidate) <= MAX_SURVIVING_PAIRS:
            return candidate, shuffle_seed
    raise TaxonomyError(
        f"no sufficiently scrambled shuffle among seeds 0-999: each keeps more than "
        f"{MAX_SURVIVING_PAIRS} of the tree's {surviving_sibling_pairs(tree, tree)} sibling pairs"
    )


STRUCTURELESS_RADIUS = 0.9998


def uniform_ball_labels(nodes: list[str], dim: int, rng: np.random.Generator) -> LabelEmbeddings:
    """Hierarchy-free anchors: isotropic random directions at a fixed
    radius, one per node. The radius matches where stage-one training
    places its anchors, so this arm differs from the trained ones only by
    carrying no structure; in the dims used here a handful of random
    directions is close to evenly spread."""
    directions = rng.standard_normal((len(nodes), dim))
    norms = np.sqrt(np.vecdot(directions, directions))[:, None]
    return LabelEmbeddings(nodes=list(nodes), vectors=STRUCTURELESS_RADIUS * directions / norms)


def summarize_arms(records_by_arm: dict[str, list[dict]]) -> dict:
    """Mean test wF1 per arm (in ARMS order), wce's mean train wF1, the
    wce - ce and wce - random gaps, whether wce >= uniform >= random holds
    and the seed count, from each arm's records (one per seed)."""
    test = {arm: float(np.mean([r["test_wf1"] for r in records_by_arm[arm]])) for arm in ARMS}
    return {
        "mean_test_wf1": test,
        "wce_mean_train_wf1": float(np.mean([r["train_wf1"] for r in records_by_arm["wce"]])),
        "wce_minus_ce": test["wce"] - test["ce"],
        "wce_minus_random": test["wce"] - test["random"],
        "ordering_holds": test["wce"] >= test["uniform"] >= test["random"],
        "seeds": len(records_by_arm["wce"]),
    }
