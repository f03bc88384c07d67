"""Dataset ingestion (TSV), synthetic hierarchical dataset generation,
and the default two-family benchmark tree.

Dataset files are UTF-8 TSV `text<TAB>label`, no header, read by the
package's one text reader (`hierarchy.read_lines`), so a leading byte
order mark is dropped and CRLF reads as LF, and written by its one pair
writer (`hierarchy.save_pairs`); a text or label name that is not one
TSV field (a tab, CR or LF, or no UTF-8 encoding) is rejected, not
escaped. The synthetic generator holds each class's family, leaf and
noise pools as one numpy word array and draws a sample's tokens from it
in one bounded-integer call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SynthSpec
from .errors import DatasetError
from .hierarchy import LabelTree, build_tree, read_lines, save_pairs


@dataclass
class LabeledDataset:
    """samples hold class indices into label_names (order = class index)."""

    samples: list[tuple[str, int]]
    label_names: list[str]
    split: str = "train"

    def __len__(self) -> int:
        return len(self.samples)


def load_dataset(path, label_names: list[str] | None = None, split: str = "train") -> LabeledDataset:
    """The dataset file at `path`, its labels indexed by `label_names`.
    With no names, the classes are the file's sorted distinct labels."""
    rows = _rows(path)
    if label_names is None:
        rows = list(rows)
        label_names = sorted({label for _, label, _ in rows})
    index = {name: i for i, name in enumerate(label_names)}
    samples = []
    for lineno, label, text in rows:
        if label not in index:
            raise DatasetError(f"{path}:{lineno}: unknown label {label!r}")
        samples.append((text, index[label]))
    if not samples:
        raise DatasetError(f"{path}: dataset is empty")
    return LabeledDataset(samples, list(label_names), split)


def _rows(path):
    for lineno, line in read_lines(path, "dataset", DatasetError):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"{path}:{lineno}: expected text<TAB>label, got {len(parts)} fields")
        text, label = parts
        if not label:
            raise DatasetError(f"{path}:{lineno}: empty label")
        yield lineno, label, text


def is_tsv_field(value) -> bool:
    """Whether value can be written as one field of a UTF-8 TSV line: a
    string with no tab, CR or LF that encodes as UTF-8 (no lone surrogate)."""
    if not isinstance(value, str) or "\t" in value or "\r" in value or "\n" in value:
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write ds as `text<TAB>label` lines that load_dataset reads back as
    the same samples: no samples, a text or label name that is not a TSV
    field (see is_tsv_field), or an empty label name, raises DatasetError."""
    if not ds.samples:
        raise DatasetError(f"the {ds.split} split has no samples to save")
    for name in ds.label_names:
        if not (name and is_tsv_field(name)):
            raise DatasetError(
                f"label names must be non-empty UTF-8 with no tabs or newlines, got {name!r}"
            )
    for text, _ in ds.samples:
        if not is_tsv_field(text):
            raise DatasetError(f"texts must be UTF-8 with no tabs or newlines, got {text!r}")
    save_pairs([(text, ds.label_names[y]) for text, y in ds.samples], path)


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
    tree = build_tree(edges, leaves)
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

    Each class holds its family, leaf and noise pools as one word array,
    and each sample is one `rng.integers(0, high)` over per-position pool
    sizes, offset into that array, then one shuffle. numpy draws each
    bounded value below 2**32 from one 32-bit word by Lemire's method, in
    the broadcast path as in the fill path, and a bound of 1 draws nothing,
    so this consumes the stream exactly as one `rng.choice(pool, size)` per
    pool would: with replacement and no `p`, that is
    `integers(0, len(pool), size)`.
    """
    spec.validate()
    if not tree.class_leaves:
        raise DatasetError("tree has no class leaves to generate for")
    rng = np.random.default_rng(spec.seed)

    # Each class leaf's family is its parent row; a root leaf (-1) has none.
    family = tree.parent[[tree.index[leaf] for leaf in tree.class_leaves]].tolist()
    families = sorted({tree.nodes[row] for row in family if row >= 0})
    family_pool = {
        tree.index[fam]: [f"fam{fi}_w{j}" for j in range(spec.family_pool_size)]
        for fi, fam in enumerate(families)
    }
    noise_pool = [f"noise_w{j}" for j in range(spec.noise_vocab)]

    k = spec.tokens_per_sample
    n_family = int(spec.family_fraction * k)
    n_leaf = int(spec.leaf_fraction * k)
    counts = (n_family, n_leaf, k - n_family - n_leaf)
    per_class: list[list[str]] = []
    for li, row in enumerate(family):
        leaf_pool = [f"leaf{li}_w{j}" for j in range(spec.leaf_pool_size)]
        pools = (family_pool.get(row, noise_pool), leaf_pool, noise_pool)
        words = np.array(pools[0] + pools[1] + pools[2])
        sizes = [len(pool) for pool in pools]
        # Position i draws below high[i] from the pool that starts at base[i].
        high = np.repeat(sizes, counts)
        base = np.repeat(np.cumsum([0] + sizes[:-1]), counts)
        texts = []
        for _ in range(spec.samples_per_class):
            tokens = words[base + rng.integers(0, high)].tolist()
            rng.shuffle(tokens)
            texts.append(" ".join(tokens))
        per_class.append(texts)

    n_train = int(round(spec.train_fraction * spec.samples_per_class))
    n_dev = int(round(spec.dev_fraction * spec.samples_per_class))
    train: list[tuple[str, int]] = []
    dev: list[tuple[str, int]] = []
    test: list[tuple[str, int]] = []
    for y, texts in enumerate(per_class):
        order = rng.permutation(spec.samples_per_class).tolist()
        train += [(texts[i], y) for i in order[:n_train]]
        dev += [(texts[i], y) for i in order[n_train : n_train + n_dev]]
        test += [(texts[i], y) for i in order[n_train + n_dev :]]
    rng.shuffle(train)
    label_names = list(tree.class_leaves)
    return (
        LabeledDataset(train, label_names, "train"),
        LabeledDataset(dev, label_names, "dev"),
        LabeledDataset(test, label_names, "test"),
    )
