"""Label taxonomy ingestion and hyperbolic label embedding training.

A LabelTree is a forest of (parent, child) edges plus an ordered list of
class leaves (one tree node per classifier class). Embeddings for every
node are trained with a negative-sampling softmax over ball distances and
Riemannian Adam, then scored by how well nearest-neighbour ranking
reconstructs the edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .ball import distance, distance_grad, random_ball_point
from .config import LabelEmbedConfig
from .errors import TaxonomyError
from .optim import AdamState, radam_step

NODE_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")

MODES = ("expert", "none", "random")


@dataclass
class LabelTree:
    nodes: list[str]
    edges: list[tuple[str, str]]  # (parent, child)
    class_leaves: list[str]
    mode: str = "expert"

    _children: dict[str, list[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._children = {}
        for parent, child in self.edges:
            self._children.setdefault(parent, []).append(child)

    def children(self, node: str) -> list[str]:
        return self._children.get(node, [])

    @property
    def num_classes(self) -> int:
        return len(self.class_leaves)


def validate_tree(tree: LabelTree) -> None:
    """Check the forest and class-leaf invariants, raising TaxonomyError."""
    node_set = set(tree.nodes)
    if len(node_set) != len(tree.nodes):
        raise TaxonomyError("duplicate node names")
    parent_of: dict[str, str] = {}
    for parent, child in tree.edges:
        if parent not in node_set or child not in node_set:
            raise TaxonomyError(f"edge ({parent}, {child}) references unknown node")
        if child in parent_of:
            raise TaxonomyError(f"node {child!r} has two parents: {parent_of[child]!r} and {parent!r}")
        parent_of[child] = parent
    # Walk parent chains; with <=1 parent per node, any cycle is a loop in a chain.
    state: dict[str, int] = {}
    for start in tree.nodes:
        chain = []
        node = start
        while node in parent_of and state.get(node, 0) == 0:
            state[node] = 1
            chain.append(node)
            node = parent_of[node]
        if state.get(node) == 1:
            raise TaxonomyError(f"cycle detected through node {node!r}")
        for visited in chain:
            state[visited] = 2
        state[start] = 2
    seen = set()
    for leaf in tree.class_leaves:
        if leaf not in node_set:
            raise TaxonomyError(f"class leaf {leaf!r} is not a tree node")
        if leaf in seen:
            raise TaxonomyError(f"duplicate class leaf {leaf!r}")
        seen.add(leaf)


def _shuffle_edges(edges: list[tuple[str, str]], rng: np.random.Generator) -> list[tuple[str, str]]:
    """Permute the child slots of the expert edges, keeping the degree
    sequence; resamples until the result is still a forest."""
    children = [child for _, child in edges]
    for _ in range(10_000):
        perm = rng.permutation(len(children))
        shuffled = [(edges[i][0], children[perm[i]]) for i in range(len(edges))]
        candidate = LabelTree(
            nodes=sorted({n for e in shuffled for n in e}),
            edges=shuffled,
            class_leaves=[],
        )
        try:
            validate_tree(candidate)
        except TaxonomyError:
            continue
        return shuffled
    raise TaxonomyError("could not find an acyclic shuffle of the edge list")


def build_tree(
    edges: list[tuple[str, str]],
    class_leaves: list[str],
    mode: str = "expert",
    rng: np.random.Generator | None = None,
) -> LabelTree:
    """Assemble and validate a LabelTree from in-memory edges.

    mode="none" drops all edges; mode="random" shuffles the expert child
    slots using `rng`. Nodes are the union of edge endpoints and class
    leaves, in first-appearance order.
    """
    if mode not in MODES:
        raise TaxonomyError(f"unknown hierarchy mode {mode!r}")
    nodes: list[str] = []
    seen: set[str] = set()
    for parent, child in edges:
        for name in (parent, child):
            if name not in seen:
                seen.add(name)
                nodes.append(name)
    for leaf in class_leaves:
        if leaf not in seen:
            seen.add(leaf)
            nodes.append(leaf)
    if mode == "expert":
        if not edges:
            raise TaxonomyError("expert mode requires a non-empty edge list")
        final_edges = list(edges)
    elif mode == "none":
        final_edges = []
    else:
        if not edges:
            raise TaxonomyError("random mode requires a non-empty edge list to shuffle")
        if rng is None:
            raise TaxonomyError("random mode requires an RNG (seeded) for the shuffle")
        final_edges = _shuffle_edges(list(edges), rng)
    tree = LabelTree(nodes=nodes, edges=final_edges, class_leaves=list(class_leaves), mode=mode)
    validate_tree(tree)
    return tree


def parse_taxonomy(path) -> list[tuple[str, str]]:
    """Read `parent<TAB>child` edges; '#' starts a comment, blank lines skipped."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise TaxonomyError(f"{path}:{lineno}: expected 'parent<TAB>child', got {raw.rstrip()!r}")
            parent, child = (p.strip() for p in parts)
            for name in (parent, child):
                if not NODE_NAME_RE.match(name):
                    raise TaxonomyError(f"{path}:{lineno}: invalid node name {name!r}")
            edges.append((parent, child))
    return edges


def parse_class_map(path) -> list[tuple[str, str]]:
    """Read `dataset_label<TAB>tree_node` rows; row order defines class indices."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise TaxonomyError(f"{path}:{lineno}: expected 'label<TAB>node', got {raw.rstrip()!r}")
            label, node = (p.strip() for p in parts)
            if not NODE_NAME_RE.match(node):
                raise TaxonomyError(f"{path}:{lineno}: invalid node name {node!r}")
            rows.append((label, node))
    if not rows:
        raise TaxonomyError(f"{path}: class map is empty")
    return rows


def save_taxonomy(edges: list[tuple[str, str]], path) -> None:
    """Inverse of parse_taxonomy."""
    with open(path, "w", encoding="utf-8") as fh:
        for parent, child in edges:
            fh.write(f"{parent}\t{child}\n")


def save_class_map(rows: list[tuple[str, str]], path) -> None:
    """Inverse of parse_class_map; row order defines class indices."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, node in rows:
            fh.write(f"{label}\t{node}\n")


def bundled_taxonomy_path(name: str = "parrott") -> Path:
    """Path to a taxonomy TSV shipped with the package (currently: parrott)."""
    path = Path(str(resources.files("hyperclass").joinpath("assets", f"{name}.tsv")))
    if not path.is_file():
        raise TaxonomyError(f"no bundled taxonomy named {name!r}")
    return path


def load_tree(
    taxonomy_path,
    class_map_path,
    mode: str = "expert",
    rng: np.random.Generator | None = None,
) -> LabelTree:
    """Load and validate a LabelTree from the two TSV files."""
    edges = parse_taxonomy(taxonomy_path)
    class_rows = parse_class_map(class_map_path)
    return build_tree(edges, [node for _, node in class_rows], mode=mode, rng=rng)


@dataclass
class LabelEmbeddings:
    """One ball point per tree node, as rows of a (n_nodes, dim) matrix."""

    nodes: list[str]
    vectors: np.ndarray

    def __post_init__(self):
        self._index = {name: i for i, name in enumerate(self.nodes)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def vector(self, node: str) -> np.ndarray:
        return self.vectors[self._index[node]]

    def subset(self, nodes: list[str]) -> np.ndarray:
        """Rows for the given nodes, in the given order."""
        return self.vectors[[self._index[n] for n in nodes]]


def negative_samples(
    tree: LabelTree, u: str, k: int, rng: np.random.Generator
) -> list[str]:
    """k nodes drawn uniformly with replacement from the complement of
    {u} and u's children."""
    excluded = set(tree.children(u))
    excluded.add(u)
    candidates = [n for n in tree.nodes if n not in excluded]
    if not candidates:
        raise TaxonomyError(f"no negative candidates for node {u!r}")
    picks = rng.integers(0, len(candidates), size=k)
    return [candidates[i] for i in picks]


def label_loss(
    emb: LabelEmbeddings, pair: tuple[str, str], negatives: list[str]
) -> tuple[float, dict[str, np.ndarray]]:
    """Negative-sampling softmax loss for one parent-child pair.

    loss = -log( e^{-d(u,v)} / sum_{v' in {v} + negatives} e^{-d(u,v')} ),
    evaluated with the log-sum-exp trick. Returns the loss and Euclidean
    gradients for every involved embedding (accumulated over duplicates).
    """
    u, v = pair
    eu = emb.vector(u)
    names = [v] + list(negatives)
    others = emb.subset(names)
    dists = distance(eu, others)
    scores = -dists
    m = scores.max()
    lse = m + np.log(np.sum(np.exp(scores - m)))
    loss = dists[0] + lse
    coeff = -np.exp(scores - lse)
    coeff[0] += 1.0

    gu, gn = distance_grad(eu, others)
    grads: dict[str, np.ndarray] = {u: coeff @ gu}
    for name, row in zip(names, gn * coeff[:, None]):
        grads[name] = grads[name] + row if name in grads else row
    return float(loss), grads


def train_label_embeddings(
    tree: LabelTree, config: LabelEmbedConfig
) -> tuple[LabelEmbeddings, float | None]:
    """Train embeddings for every tree node with per-pair Riemannian Adam steps.

    Deterministic given config.seed. Returns the embeddings and the mean
    pair loss over the final epoch (None when the tree has no edges).
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    vectors = np.stack(
        [random_ball_point(rng, config.dim, config.init_radius) for _ in tree.nodes]
    )
    emb = LabelEmbeddings(nodes=list(tree.nodes), vectors=vectors)
    if not tree.edges:
        return emb, None

    states = {name: AdamState(lr=config.lr) for name in tree.nodes}
    index = {name: i for i, name in enumerate(tree.nodes)}
    final_loss = None
    for epoch in range(config.epochs):
        lr = config.lr * config.burn_in_factor if epoch < config.burn_in_epochs else config.lr
        order = rng.permutation(len(tree.edges))
        epoch_loss = 0.0
        for edge_idx in order:
            u, v = tree.edges[edge_idx]
            negs = negative_samples(tree, u, config.negatives, rng)
            loss, grads = label_loss(emb, (u, v), negs)
            epoch_loss += loss
            for name, grad in grads.items():
                row = index[name]
                emb.vectors[row] = radam_step(states[name], emb.vectors[row], grad, lr=lr)
        final_loss = epoch_loss / len(tree.edges)
    return emb, final_loss


def reconstruction_map(emb: LabelEmbeddings, tree: LabelTree) -> float:
    """Mean average precision of ranking each parent's children nearest.

    For every parent u, each child v is ranked by ascending distance among
    the non-neighbours of u (nodes that are neither u nor children of u);
    the per-parent average precision is averaged over all parents.
    """
    parents = [u for u in tree.nodes if tree.children(u)]
    if not parents:
        return 0.0
    index = {name: i for i, name in enumerate(tree.nodes)}
    ap_scores = []
    for u in parents:
        children = tree.children(u)
        excluded = set(children) | {u}
        neg_rows = [index[n] for n in tree.nodes if n not in excluded]
        eu = emb.vectors[index[u]]
        neg_dists = distance(eu, emb.vectors[neg_rows])
        child_dists = distance(eu, emb.vectors[[index[v] for v in children]])
        ranks = (1 + np.sum(neg_dists[None, :] < child_dists[:, None], axis=1)).tolist()
        ranks.sort()
        ap = np.mean([(i + 1) / (r + i) for i, r in enumerate(ranks)])
        ap_scores.append(ap)
    return float(np.mean(ap_scores))


def node_depths(tree: LabelTree) -> dict[str, int]:
    """Depth of every node: roots (no parent) at 0."""
    parent_of = {child: parent for parent, child in tree.edges}
    depths: dict[str, int] = {}

    def depth(node: str) -> int:
        if node not in depths:
            depths[node] = 0 if node not in parent_of else depth(parent_of[node]) + 1
        return depths[node]

    for node in tree.nodes:
        depth(node)
    return depths


def export_embeddings_tsv(emb: LabelEmbeddings, path) -> None:
    """Write `node<TAB>dim0..dim{d-1}` with 17 significant digits per coordinate."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ["node"] + [f"dim{i}" for i in range(emb.dim)]
        fh.write("\t".join(header) + "\n")
        for name, row in zip(emb.nodes, emb.vectors):
            coords = "\t".join(f"{x:.17g}" for x in row)
            fh.write(f"{name}\t{coords}\n")


def load_embeddings_tsv(path) -> LabelEmbeddings:
    """Inverse of export_embeddings_tsv."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if not header or header[0] != "node":
            raise TaxonomyError(f"{path}: not an embedding TSV (bad header)")
        dim = len(header) - 1
        nodes, rows = [], []
        for lineno, raw in enumerate(fh, start=2):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != dim + 1:
                raise TaxonomyError(f"{path}:{lineno}: expected {dim + 1} columns")
            nodes.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    return LabelEmbeddings(nodes=nodes, vectors=np.array(rows, dtype=np.float64))
