"""Label taxonomy ingestion and hyperbolic label embedding training.

A LabelTree is a forest of (parent, child) edges plus an ordered list of
class leaves (one tree node per classifier class); build_tree makes one
from edges. The ablation trees are transforms of a built tree that keep
its nodes, in order, and its class leaves: shuffle_tree permutes its
child slots, and dataclasses.replace(tree, edges=[]) drops every edge.
Every transform reruns LabelTree's checks. Embeddings for every
node are trained with a negative-sampling softmax over ball distances and
Riemannian Adam on minibatches of PAIRS_PER_STEP = 10 parent-child pairs,
as in gensim's PoincareModel. Riemannian Adam is `optim.Adam` given the
rescaled gradients and the exponential map as its retraction; it counts
steps for the whole table, so a row that a batch does not touch moves on
its momentum. Each epoch draws every pair's negatives in one call into
one matrix of rows and lays out the flat coordinate slots of those rows
once; each minibatch is a slice of the slots that label_loss takes as it
is: one gather of its points, one batched loss whose gradients are one
bincount into a dense (n_nodes, d) table, and one step over the whole
table. Points start within INIT_RADIUS of the origin, and the first
BURN_IN_EPOCHS epochs step at lr * BURN_IN_FACTOR; these three, like
PAIRS_PER_STEP, are constants of the method rather than settings. A
parent's non-neighbours (every node but it and its children) are defined
once: stage one draws its negatives from them, and the reconstruction MAP
ranks each child among them, a tie not counted against the child.

Every text input, datasets included, is read by `read_lines` (UTF-8,
a leading BOM dropped, CRLF read as LF); `first_repeat` finds the first
repeated edge, class-map label or node, class leaf or checkpoint name.
Embeddings and projections are written as TSV from (names, vectors)
chunks, one formatting operation per row, so a caller can stream rows
without holding them all.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .ball import distance, distance_vjp, exp_map, random_ball_point, riemannian_grad
from .config import LabelEmbedConfig
from .errors import HyperclassError, NumericalError, TaxonomyError
from .optim import Adam, FlatParams

NODE_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")

# Parent-child pairs per stage-one Riemannian Adam step, as in gensim's
# PoincareModel. Larger batches take fewer steps per epoch and narrowed the
# expert-vs-shuffled MAP gap on the Parrott taxonomy (at 32).
PAIRS_PER_STEP = 10
# The burn-in of Nickel & Kiela (2017): the first BURN_IN_EPOCHS epochs run
# at lr * BURN_IN_FACTOR, so the points find their angular layout near the
# origin before full steps push them toward the boundary.
BURN_IN_EPOCHS = 10
BURN_IN_FACTOR = 0.1
# Every point starts within INIT_RADIUS of the origin, as in Nickel & Kiela
# (2017): there the metric is nearly Euclidean and no point starts near the
# boundary.
INIT_RADIUS = 1e-3


@dataclass
class LabelTree:
    """A forest of (parent, child) edges over `nodes`, plus the ordered
    class leaves (one tree node per classifier class).

    Construction checks the invariants, raising TaxonomyError, and indexes
    the tree once: `index` maps each name to its row of `nodes`, `parent`
    holds each row's parent row (-1 for a root), `depth` its number of
    edges below its root and `parents` the sorted rows that have at least
    one child.
    """

    nodes: list[str]
    edges: list[tuple[str, str]]  # (parent, child)
    class_leaves: list[str]

    index: dict[str, int] = field(init=False, repr=False, compare=False)
    parent: np.ndarray = field(init=False, repr=False, compare=False)
    depth: np.ndarray = field(init=False, repr=False, compare=False)
    parents: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = {name: i for i, name in enumerate(self.nodes)}
        if len(self.index) != len(self.nodes):
            raise TaxonomyError("duplicate node names")
        parent_rows = [-1] * len(self.nodes)
        for parent, child in self.edges:
            if parent not in self.index or child not in self.index:
                raise TaxonomyError(f"edge ({parent}, {child}) references unknown node")
            row = self.index[child]
            if parent_rows[row] >= 0:
                raise TaxonomyError(
                    f"node {child!r} has two parents: {self.nodes[parent_rows[row]]!r} and {parent!r}"
                )
            parent_rows[row] = self.index[parent]
        self.parent = np.array(parent_rows, dtype=np.intp)
        # Not np.unique: its first call imports numpy.ma, about 1.5 MiB.
        self.parents = np.flatnonzero(np.bincount(self.parent[self.parent >= 0], minlength=len(self.nodes)))
        # Every row walks up one edge per step. A forest's rows all reach a
        # root within len(nodes) steps; a row still below a parent after
        # that is on a cycle or under one, and its ancestor then is on it.
        self.depth = np.zeros(len(self.nodes), dtype=np.intp)
        up = self.parent
        for _ in range(len(self.nodes) + 1):
            below = up >= 0
            if not below.any():
                break
            self.depth += below
            up = np.where(below, self.parent[up], -1)
        else:
            raise TaxonomyError(f"cycle detected through node {self.nodes[up[up >= 0][0]]!r}")
        for leaf in self.class_leaves:
            if leaf not in self.index:
                raise TaxonomyError(f"class leaf {leaf!r} is not a tree node")
        if repeat := first_repeat(self.class_leaves):
            raise TaxonomyError(f"duplicate class leaf {self.class_leaves[repeat[1]]!r}")
        if not self.nodes:
            raise TaxonomyError("the tree has no nodes")

    @property
    def num_classes(self) -> int:
        return len(self.class_leaves)


def build_tree(edges: list[tuple[str, str]], class_leaves: list[str]) -> LabelTree:
    """Assemble a LabelTree from in-memory edges.

    Nodes are the edge endpoints, in first-appearance order, so a class
    leaf that no edge names is not a tree node and fails LabelTree's
    check.
    """
    nodes = list(dict.fromkeys(name for edge in edges for name in edge))
    return LabelTree(nodes=nodes, edges=list(edges), class_leaves=list(class_leaves))


def shuffle_tree(tree: LabelTree, rng: np.random.Generator) -> LabelTree:
    """`tree` with the child slots of its edges permuted by one uniform
    draw from `rng`, keeping its nodes, their order, its class leaves and
    each parent's number of children. A draw that is not a forest is
    redrawn, one rng.permutation per attempt, up to 10,000 attempts."""
    children = [child for _, child in tree.edges]
    for _ in range(10_000):
        perm = rng.permutation(len(children))
        try:
            return replace(tree, edges=[(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)])
        except TaxonomyError:
            continue
    raise TaxonomyError("could not find an acyclic shuffle of the edge list")


def read_lines(path, kind: str, error: type[HyperclassError]) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of the UTF-8 text file at `path`,
    read as text: CRLF and CR end a line as LF does, and a leading BOM is
    dropped. Each line keeps its LF (the last may have none), so reading
    costs no call per line. A file that cannot be read raises `error`
    naming the path and the `kind` of file it should be, and so does one
    that is not UTF-8, naming the path and the decoder's reason."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from enumerate(fh, start=1)
    except OSError as exc:
        raise error(f"{path}: cannot read {kind}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def first_repeat(items: list) -> tuple[int, int] | None:
    """(i, j): the first item j that equals an earlier one, first seen at
    i; None when no item repeats."""
    if len(set(items)) < len(items):
        first: dict = {}
        for j, item in enumerate(items):
            if first.setdefault(item, j) != j:
                return first[item], j
    return None


def _read_pairs(
    path, kind: str, columns: str, first_node: int, unique: list[tuple[slice, str]]
) -> list[tuple[str, str]]:
    """The rows of a two-column TSV of `kind`, at least one; '#' starts
    a comment, blank lines skipped. `columns` names the two columns
    in the error message, and the columns from `first_node` on must be
    valid node names. For each (key, message) of `unique`, in order, a row
    whose columns `key` repeat an earlier row's raises the message,
    formatted with the `row` and the first `line`.
    """
    rows, linenos = [], []
    for lineno, raw in read_lines(path, kind, TaxonomyError):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TaxonomyError(f"{path}:{lineno}: expected {columns!r}, got {raw.rstrip()!r}")
        row = (parts[0].strip(), parts[1].strip())
        for name in row[first_node:]:
            if not NODE_NAME_RE.match(name):
                raise TaxonomyError(f"{path}:{lineno}: invalid node name {name!r}")
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise TaxonomyError(f"{path}: {kind} is empty")
    for key, message in unique:
        if repeat := first_repeat([row[key] for row in rows]):
            i, j = repeat
            raise TaxonomyError(f"{path}:{linenos[j]}: " + message.format(row=rows[j], line=linenos[i]))
    return rows


def parse_taxonomy(path) -> list[tuple[str, str]]:
    """Read `parent<TAB>child` edges; a file with none names no tree node,
    so it is an error, and so is an edge on two lines."""
    return _read_pairs(
        path, "taxonomy", "parent<TAB>child", first_node=0,
        unique=[(slice(2), "edge {row[0]!r} -> {row[1]!r} already on line {line}")],
    )


def parse_class_map(path) -> list[tuple[str, str]]:
    """Read `dataset_label<TAB>tree_node` rows; row order defines class
    indices, so each label may appear on one row only, and each node too,
    as a node is the class leaf of one class."""
    return _read_pairs(
        path, "class map", "label<TAB>node", first_node=1,
        unique=[
            (slice(1), "label {row[0]!r} is already mapped on line {line}"),
            (slice(1, 2), "node {row[1]!r} is already mapped on line {line}"),
        ],
    )


def save_pairs(rows: list[tuple[str, str]], path) -> None:
    """Inverse of parse_taxonomy, parse_class_map and load_dataset: one
    TAB-separated pair per line, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for first, second in rows:
            fh.write(f"{first}\t{second}\n")


def bundled_taxonomy_path() -> Path:
    """Path to the Parrott emotion taxonomy TSV shipped with the package."""
    return Path(str(resources.files("hyperclass").joinpath("assets", "parrott.tsv")))


@dataclass
class LabelEmbeddings:
    """One ball point per tree node: row i of the (n_nodes, dim) matrix
    `vectors` is the point of `nodes[i]`. A caller that looks points up by
    node name builds its own name-to-row index."""

    nodes: list[str]
    vectors: np.ndarray


def _non_neighbours(tree: LabelTree) -> np.ndarray:
    """(parents, nodes) mask of each row of tree.parents: True at the nodes
    that are neither that parent nor one of its children, which stage one
    draws its negatives from and the MAP ranks its children among."""
    u = tree.parents[:, None]
    return (np.arange(len(tree.nodes)) != u) & (tree.parent != u)


def negative_table(tree: LabelTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, start, count): each parent row u's non-neighbours in node
    order, concatenated, so those of u are flat[start[u] : start[u] +
    count[u]]; count is 0 for nodes without children. A parent with none
    raises TaxonomyError, as stage one needs a negative to draw."""
    parents = tree.parents
    allowed = _non_neighbours(tree)
    count = np.zeros(len(tree.nodes), dtype=np.intp)
    count[parents] = allowed.sum(axis=1)
    if not count[parents].all():
        u = parents[count[parents] == 0][0]
        raise TaxonomyError(f"no negative candidates for node {tree.nodes[u]!r}")
    return np.nonzero(allowed)[1], np.cumsum(count) - count, count


def negative_samples(
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
    parents: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(len(parents), k) rows: k negatives per parent row, drawn uniformly
    with replacement from its candidates in `table` (see negative_table).

    One rng.integers call draws them all; it consumes the stream exactly as
    one call per parent, in order, would.
    """
    flat, start, count = table
    picks = rng.integers(0, count[parents][:, None], size=(len(parents), k))
    return flat[start[parents][:, None] + picks]


def label_loss(vectors: np.ndarray, slots: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative-sampling softmax loss, summed over parent-child pairs of rows.

    `slots` names B pairs of rows of the (n_nodes, d) `vectors`, each laid
    out as [u | v | negatives], by the flat indices of the rows'
    coordinates: a (B, 2+k, d) array whose [i, j] is r * d + arange(d) for
    the j-th row r of pair i. One index serves both the gather of the
    points and the scatter of their gradients. For each pair (u, v) with
    its negatives,
    loss = -log( e^{-d(u,v)} / sum_{v' in {v} + negatives} e^{-d(u,v')} ),
    evaluated with a row-wise log-sum-exp over one (B, 1+k) call that
    gives the distances and their VJP. Returns the summed loss and the
    (n_nodes, d) table of its Euclidean gradients, from one bincount: a
    row that appears more than once (a repeated negative, a parent shared
    by two pairs) gets the sum of its terms, and a row no pair touches is
    exactly 0.
    """
    points = vectors.take(slots)
    dists, vjp = distance_vjp(points[:, :1], points[:, 1:])
    # Points in the ball are clamped to MAX_NORM, so every distance is at
    # most about 24.4 and exp(-d) >= 2.5e-11: the sum needs no max shift.
    e = np.exp(-dists)
    z = e.sum(axis=1)
    loss = (dists[:, 0] + np.log(z)).sum()
    coeff = e / -z[:, None]
    coeff[:, 0] += 1.0
    # Terms laid out like slots: the parent's, then one per other row.
    terms = np.concatenate(vjp(coeff), axis=1)
    grads = np.bincount(slots.ravel(), weights=terms.ravel(), minlength=vectors.size)
    return float(loss), grads.reshape(vectors.shape)


def train_label_embeddings(
    tree: LabelTree, config: LabelEmbedConfig
) -> tuple[LabelEmbeddings, float | None]:
    """Train embeddings for every tree node, one Riemannian Adam step per
    minibatch of PAIRS_PER_STEP pairs.

    Each epoch visits the pairs in a fresh random order, PAIRS_PER_STEP at
    a time. Right after the permutation, one draw gives every pair's
    negatives for the epoch (the RNG stream is read as by one draw per
    batch), laid out as one (pairs, 2+k) matrix of rows [parent | child |
    negatives] and, once, as the (pairs, 2+k, d) coordinate slots of
    those rows; a batch is a slice of the slots. A batch takes one
    label_loss over all its pairs and one Adam step on the dense
    (n_nodes, d) gradient table it returns, in which each row the batch
    touches (parents, children and negatives) holds the sum of its
    gradients over the batch and every other row is 0, rescaled by the
    inverse metric. The step moves every row through the exponential map
    (a row no batch has touched yet has a zero step and keeps its bits),
    and its bias correction counts the steps of the whole run. The last
    batch of an epoch may be smaller.
    Deterministic given config.seed; with PAIRS_PER_STEP 1 the trajectory
    is that of one step per pair. Returns the embeddings and the mean pair
    loss over the final epoch (None when the tree has no edges).
    A step whose result is not finite raises NumericalError naming the
    epoch, the batch and its pairs; the check is the one in the step's
    projection, as the loss stays finite while every point is inside the
    ball.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    # FlatParams copies its input; the trained points are its view.
    params = FlatParams(
        {"vectors": np.stack([random_ball_point(rng, config.dim, INIT_RADIUS) for _ in tree.nodes])}
    )
    vectors = params["vectors"]
    emb = LabelEmbeddings(nodes=list(tree.nodes), vectors=vectors)
    if not tree.edges:
        return emb, None

    def exp_step(flat: np.ndarray, a: np.ndarray) -> None:
        vectors[...] = exp_map(vectors, -a.reshape(vectors.shape))

    children = np.array([tree.index[v] for _, v in tree.edges], dtype=np.intp)
    parents = tree.parent[children]
    table = negative_table(tree)
    opt = Adam(params, config.lr, retract=exp_step)
    final_loss = None
    for epoch in range(config.epochs):
        opt.lr = config.lr * BURN_IN_FACTOR if epoch < BURN_IN_EPOCHS else config.lr
        order = rng.permutation(len(tree.edges))
        u = parents[order]
        negatives = negative_samples(table, u, config.negatives, rng)
        pairs = np.column_stack((u, children[order], negatives))
        slots = pairs[..., None] * config.dim + np.arange(config.dim)
        epoch_loss = 0.0
        for batch_idx, start in enumerate(range(0, len(order), PAIRS_PER_STEP)):
            loss, grads = label_loss(vectors, slots[start : start + PAIRS_PER_STEP])
            try:
                opt.step({"vectors": riemannian_grad(vectors, grads)})
            except NumericalError as exc:
                edges = order[start : start + PAIRS_PER_STEP]
                names = ", ".join("(%s, %s)" % tree.edges[i] for i in edges)
                raise NumericalError(
                    f"stage one, epoch {epoch}, batch {batch_idx}, pairs {names}: {exc}"
                ) from None
            epoch_loss += loss
        final_loss = epoch_loss / len(tree.edges)
    return emb, final_loss


def reconstruction_map(emb: LabelEmbeddings, tree: LabelTree) -> float:
    """Mean over parents of the average precision of ranking each parent's
    children nearest. Child v of parent u ranks 1 + the number of u's
    non-neighbours strictly closer to u than v: one at exactly v's distance
    does not push v down. One distance call gives every parent's distances
    to all nodes."""
    if not len(tree.parents):
        return 0.0
    dists = distance(emb.vectors[tree.parents, None], emb.vectors)
    ap_scores = []
    for row, u, allowed in zip(dists, tree.parents, _non_neighbours(tree)):
        ranks = np.sort(1 + np.sum(row[allowed] < row[tree.parent == u, None], axis=1))
        i = np.arange(len(ranks))
        ap_scores.append(np.mean((i + 1) / (ranks + i)))
    return float(np.mean(ap_scores))


def write_embeddings_tsv(path, dim: int, chunks: Iterable[tuple[list[str], np.ndarray]]) -> None:
    """Write `node<TAB>dim0..dim{d-1}` with 17 significant digits per
    coordinate, from (names, (rows, dim) vectors) chunks consumed one at a
    time; each row is one formatting operation over Python floats."""
    row = "%s" + "\t%.17g" * dim + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["node"] + [f"dim{i}" for i in range(dim)]) + "\n")
        for names, vectors in chunks:
            fh.writelines(row % (name, *coords) for name, coords in zip(names, vectors.tolist()))


def load_embeddings_tsv(path) -> LabelEmbeddings:
    """Inverse of write_embeddings_tsv, a file of no rows included."""
    lines = read_lines(path, "embedding TSV", TaxonomyError)
    header = next(lines, (1, ""))[1].rstrip("\n").split("\t")
    if header[0] != "node":
        raise TaxonomyError(f"{path}: not an embedding TSV (bad header)")
    dim = len(header) - 1
    nodes, rows = [], []
    for lineno, raw in lines:
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != dim + 1:
            raise TaxonomyError(f"{path}:{lineno}: expected {dim + 1} columns")
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise TaxonomyError(f"{path}:{lineno}: {exc}") from None
        nodes.append(parts[0])
    return LabelEmbeddings(nodes=nodes, vectors=np.array(rows, dtype=np.float64).reshape(len(rows), dim))
