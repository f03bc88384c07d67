"""Dataset ingestion (TSV), synthetic hierarchical dataset generation,
and the default two-family benchmark tree.

Dataset files are UTF-8 TSV `text<TAB>label`, no header; tabs and
newlines inside text are rejected, not escaped. The synthetic generator
holds each word pool as a numpy string array, built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SynthSpec
from .errors import DatasetError
from .hierarchy import LabelTree, build_tree

SPLITS = ("train", "dev", "test")


@dataclass
class LabeledDataset:
    """samples hold class indices into label_names (order = class index)."""

    samples: list[tuple[str, int]]
    label_names: list[str]
    split: str = "train"

    def __len__(self) -> int:
        return len(self.samples)

    def class_counts(self) -> list[int]:
        counts = [0] * len(self.label_names)
        for _, y in self.samples:
            counts[y] += 1
        return counts


def infer_label_names(path) -> list[str]:
    """Sorted unique labels of a dataset file, for runs without a class map."""
    names = set()
    for _, label, _ in _rows(path):
        names.add(label)
    return sorted(names)


def load_dataset(path, label_names: list[str], split: str = "train") -> LabeledDataset:
    index = {name: i for i, name in enumerate(label_names)}
    samples = []
    for lineno, label, text in _rows(path):
        if label not in index:
            raise DatasetError(f"{path}:{lineno}: unknown label {label!r}")
        samples.append((text, index[label]))
    if not samples:
        raise DatasetError(f"{path}: dataset is empty")
    return LabeledDataset(samples, list(label_names), split)


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        lineno = 0
        for line in fh:
            lineno += 1
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DatasetError(
                    f"{path}:{lineno}: expected text<TAB>label, got {len(parts)} fields"
                )
            text, label = parts
            if not label:
                raise DatasetError(f"{path}:{lineno}: empty label")
            yield lineno, label, text


def save_dataset(ds: LabeledDataset, path) -> None:
    lines = []
    for text, y in ds.samples:
        if "\t" in text or "\n" in text:
            raise DatasetError("text must not contain tabs or newlines")
        lines.append(f"{text}\t{ds.label_names[y]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_family_tree(
    families: int, leaves_per_family: int
) -> tuple[LabelTree, list[tuple[str, str]]]:
    """Root -> families -> leaves; class map is leaf -> leaf."""
    edges = []
    leaves = []
    for f in range(families):
        fam = f"fam{f}"
        edges.append(("root", fam))
        for i in range(leaves_per_family):
            leaf = f"{fam}_leaf{i}"
            edges.append((fam, leaf))
            leaves.append(leaf)
    tree = build_tree(edges, leaves, mode="expert")
    return tree, [(leaf, leaf) for leaf in leaves]


def default_synthetic_tree() -> tuple[LabelTree, list[tuple[str, str]]]:
    """2 families x 3 confusable leaves, the benchmark default."""
    return make_family_tree(2, 3)


def generate_synthetic(
    tree: LabelTree, spec: SynthSpec
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Emit samples_per_class texts per class leaf, each of
    tokens_per_sample tokens: floor(family_fraction * k) from the leaf's
    parent-family pool, floor(leaf_fraction * k) from the leaf's own pool,
    the rest from the shared noise pool. Pools are disjoint by
    construction. Splits are stratified per class; everything is a pure
    function of (tree, spec).

    Each pool is built once as a numpy string array, and each draw is one
    `rng.choice(pool, size)`: with replacement and no `p`, that consumes
    `integers(0, len(pool), size)` from the stream whatever the pool's
    container, so samples do not depend on how the pools are held.
    """
    spec.validate()
    if not tree.class_leaves:
        raise DatasetError("tree has no class leaves to generate for")
    rng = np.random.default_rng(spec.seed)

    parent_of = {}
    for parent, child in tree.edges:
        parent_of[child] = parent
    families = sorted({parent_of[leaf] for leaf in tree.class_leaves if leaf in parent_of})
    family_pool = {
        fam: np.array([f"fam{fi}_w{j}" for j in range(spec.family_pool_size)])
        for fi, fam in enumerate(families)
    }
    leaf_pool = {
        leaf: np.array([f"leaf{li}_w{j}" for j in range(spec.leaf_pool_size)])
        for li, leaf in enumerate(tree.class_leaves)
    }
    noise_pool = np.array([f"noise_w{j}" for j in range(spec.noise_vocab)])

    k = spec.tokens_per_sample
    n_family = int(spec.family_fraction * k)
    n_leaf = int(spec.leaf_fraction * k)
    n_noise = k - n_family - n_leaf
    per_class: list[list[str]] = []
    for leaf in tree.class_leaves:
        fam_tokens = family_pool.get(parent_of.get(leaf), noise_pool)
        texts = []
        for _ in range(spec.samples_per_class):
            tokens = rng.choice(fam_tokens, size=n_family).tolist()
            tokens += rng.choice(leaf_pool[leaf], size=n_leaf).tolist()
            tokens += rng.choice(noise_pool, size=n_noise).tolist()
            rng.shuffle(tokens)
            texts.append(" ".join(tokens))
        per_class.append(texts)

    n_train = int(round(spec.train_fraction * spec.samples_per_class))
    n_dev = int(round(spec.dev_fraction * spec.samples_per_class))
    buckets: dict[str, list[tuple[str, int]]] = {s: [] for s in SPLITS}
    for y, texts in enumerate(per_class):
        order = rng.permutation(spec.samples_per_class)
        for pos, idx in enumerate(order):
            if pos < n_train:
                split = "train"
            elif pos < n_train + n_dev:
                split = "dev"
            else:
                split = "test"
            buckets[split].append((texts[idx], y))
    train = buckets["train"]
    rng.shuffle(train)
    label_names = list(tree.class_leaves)
    return (
        LabeledDataset(train, label_names, "train"),
        LabeledDataset(buckets["dev"], label_names, "dev"),
        LabeledDataset(buckets["test"], label_names, "test"),
    )
