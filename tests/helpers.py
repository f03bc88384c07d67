"""Shared oracles: central finite differences, error norms, closed
forms, textbook loops, and the copies of replaced loop code whose tests
still kill a mutant that no other test kills (see scripts/mutants.py)."""

import json
import string
import struct
import zlib

import numpy as np

# Adam steps the embedding by rows with scaled moments (optim.Adam), so a
# trained run differs from textbook dense Adam by rounding only. Measured
# over TestFrozenReference on 2 vCPUs with numpy 2.4.6: at most 9.7e-13 on
# an epoch's train_loss and 4.4e-12 on a parameter. Each bound is about
# ten times that. Stage one against textbook_label_training, on the same
# host, measured at most 6.9e-15 on a loss and 4.7e-13 on a point.
LOSS_ATOL = 1e-11
PARAM_ATOL = 5e-11


def numeric_grad(f, arr, eps=1e-6):
    """Central finite differences of scalar f() w.r.t. arr, mutated in place.

    f must recompute from the current contents of arr on every call.
    """
    grad = np.zeros_like(arr, dtype=float)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def rel_err(a, b):
    """Relative error between two arrays under the larger norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / scale)


def brute_weighted_f1(preds, golds, m):
    """Independent weighted-F1 recount from the raw lists (no confusion matrix)."""
    n = len(golds)
    total = 0.0
    for c in range(m):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        pred_c = sum(1 for p in preds if p == c)
        gold_c = sum(1 for g in golds if g == c)
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / gold_c if gold_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += (gold_c / n) * f1
    return total


def distance_from_origin(r):
    """Closed form d(0, x) = 2 artanh(||x||) for a point at radius r."""
    return 2.0 * float(np.arctanh(r))


def conformal_factor(x):
    """lambda_x = 2 / (1 - ||x||^2) per (..., d) point; always >= 2 inside the ball."""
    x = np.asarray(x, dtype=np.float64)
    return 2.0 / (1.0 - np.sum(x * x, axis=-1))


def mobius_add(x, y):
    """Mobius addition x (+) y of (..., d) points, re-projected into the ball:
    the general form that ball.exp_map now takes in closed form.

    x (+) y = ((1 + 2<x,y> + ||y||^2) x + (1 - ||x||^2) y)
              / (1 + 2<x,y> + ||x||^2 ||y||^2)
    """
    from hyperclass.ball import project_to_ball

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x2 = np.vecdot(x, x)
    # 1 + 2<x,y>, shared by the numerator and the denominator.
    a = 1.0 + 2.0 * np.vecdot(x, y)
    y2 = np.vecdot(y, y)
    num = (a + y2)[..., None] * x + (1.0 - x2)[..., None] * y
    return project_to_ball(num / (a + x2 * y2)[..., None])


def composed_exp_map(x, v):
    """Reference for ball.exp_map: x (+) tanh(lambda_x ||v|| / 2) * v / ||v||
    through mobius_add, row by row, from its own row norms; a row of v
    shorter than EPS_DIV is a zero step and returns x."""
    from hyperclass.ball import EPS_DIV

    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = np.sqrt(np.vecdot(v, v))
    nonzero = r >= EPS_DIV
    r = np.where(nonzero, r, 1.0)
    t = np.tanh(0.5 * (2.0 / (1.0 - np.vecdot(x, x))) * r)
    return mobius_add(x, np.where(nonzero, t / r, 0.0)[..., None] * v)


def log_map(x, y):
    """Logarithmic map at x, inverse of ball.exp_map, row by row: the
    general form that src/ replaced with log_map_origin.

    log_x(y) = (2 / lambda_x) * artanh(||-x (+) y||) * (-x (+) y) / ||-x (+) y||
    with the y = x limit defined as the zero vector.
    """
    from hyperclass.ball import EPS_DIV, MAX_NORM

    x = np.asarray(x, dtype=np.float64)
    w = mobius_add(-x, y)
    r = np.sqrt(np.vecdot(w, w))
    nonzero = r >= EPS_DIV
    r = np.where(nonzero, r, 1.0)
    # artanh argument stays below 1 because mobius_add clamps into the ball.
    artanh = np.arctanh(np.minimum(r, MAX_NORM))
    conformal = 2.0 / (1.0 - np.vecdot(x, x))
    return np.where(nonzero, (2.0 / conformal) * artanh / r, 0.0)[..., None] * w


def distance_and_grad(x, y):
    """(distance, dd/dx, dd/dy) of ball.distance from one pass over the
    shared terms, both partials shaped like the broadcast of x and y: the
    two-partial kernel that ball.distance_vjp replaced. Where x == y
    (within EPS_DIV) the zero subgradient is returned for both arguments."""
    from hyperclass.ball import EPS_DIV

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diff = x - y
    a = np.vecdot(diff, diff)
    b = 1.0 - np.vecdot(x, x)
    c = 1.0 - np.vecdot(y, y)
    bc = b * c
    arg = 1.0 + 2.0 * a / bc
    d = np.arccosh(np.maximum(arg, 1.0))
    d = float(d) if d.ndim == 0 else d
    # d/du arcosh(u) = 1 / sqrt(u^2 - 1)
    root = np.sqrt(np.maximum(arg * arg - 1.0, 0.0))
    common = np.divide(4.0, bc * root, out=np.zeros_like(root), where=root >= EPS_DIV)
    gx = common[..., None] * (diff + (a / b)[..., None] * x)
    gy = common[..., None] * ((a / c)[..., None] * y - diff)
    return d, gx, gy


def distance_grad(x, y):
    """Euclidean partial derivatives (dd/dx, dd/dy) of ball.distance, both
    shaped like the broadcast of x and y; the zero subgradient where x == y
    (within EPS_DIV)."""
    return distance_and_grad(x, y)[1:]


def cross_entropy(c, y):
    """-log softmax(c)[y] for one logit row, by a max-shifted log-sum-exp."""
    shifted = np.asarray(c, dtype=float) - np.max(c)
    return float(np.log(np.exp(shifted).sum()) - shifted[y])


def hyper_weight(head, h, e_y):
    """Distance weight w = d(exp_0(w_p^T h + b_p), e_y) of one row or a batch."""
    from hyperclass.ball import distance
    from hyperclass.loss import project_representation

    return distance(project_representation(head, h), e_y)


def exp_map_origin_vjp(v, grad_out):
    """Vector-Jacobian product of ball.exp_map_origin: maps d/dp into d/dv,
    row by row, from its own row norms and tanh.

    With s(r) = tanh(r)/r the Jacobian is s(r) I + (s'(r)/r) v v^T. The
    r -> 0 limit is the identity. Past the radial clamp (tanh(r) >
    MAX_NORM) exp_map_origin is MAX_NORM v / r, so tanh is taken as
    MAX_NORM there, with slope 0.
    """
    from hyperclass.ball import EPS_DIV, MAX_NORM

    v = np.asarray(v, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    r = np.sqrt(np.vecdot(v, v))
    nonzero = r >= EPS_DIV
    r = np.where(nonzero, r, 1.0)
    t = np.tanh(r)
    clamped = t > MAX_NORM
    t = np.where(clamped, MAX_NORM, t)
    s = np.where(nonzero, t / r, 1.0)
    # s'(r) / r = (tanh'(r) * r - tanh(r)) / r^3, with tanh'(r) = 1 - tanh(r)^2
    dt = np.where(clamped, 0.0, 1.0 - t * t)
    ds_over_r = np.where(nonzero, (dt * r - t) / (r * r * r), 0.0)
    return s[..., None] * grad_out + (ds_over_r * np.vecdot(v, grad_out))[..., None] * v


def composed_origin_distance_and_grad(v, y):
    """Reference for ball.exp_origin_distance_vjp: (d, dd/dv) of
    d = distance(exp_map_origin(v), y) from three separate kernels, each
    computing its own norms: exp_map_origin, distance_and_grad (both
    partials) and exp_map_origin_vjp."""
    from hyperclass.ball import exp_map_origin

    d, dz, _ = distance_and_grad(exp_map_origin(v), y)
    return d, exp_map_origin_vjp(v, dz)


def slotted_exp_origin_distance_vjp(v, y):
    """The slotted form of ball.exp_origin_distance_vjp that the one-pass
    kernel replaced, kept to pin its bits: (d, vjp) from stage one's
    distance_vjp on (B, 1, d) slots, one pair per row, whose gradient of y
    is dropped, chained through exp_map_origin_vjp."""
    from hyperclass.ball import distance_vjp, exp_map_origin

    v = np.asarray(v, dtype=np.float64)
    d, pair_vjp = distance_vjp(exp_map_origin(v)[:, None], y[:, None])
    return d[:, 0], lambda g: exp_map_origin_vjp(v, pair_vjp(g[:, None])[0][:, 0])


def pair_slots(idx, d):
    """The (B, 2+k, d) coordinate slots that hierarchy.label_loss takes for
    a (B, 2+k) matrix of rows: row r at r * d + arange(d)."""
    return np.asarray(idx)[..., None] * d + np.arange(d)


def scattered_label_loss(vectors, idx):
    """Frozen reference for hierarchy.label_loss on a (B, 2+k) matrix of
    rows: the max-shifted log-sum-exp over distance_and_grad's full
    (B, 1+k, d) partials, each pair's terms added into a zeroed
    (n_nodes, d) table by np.add.at. Returns (loss, table)."""
    points = vectors[idx]
    dists, gu, gv = distance_and_grad(points[:, :1], points[:, 1:])
    scores = -dists
    m = scores.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(scores - m).sum(axis=1, keepdims=True))
    coeff = -np.exp(scores - lse)
    coeff[:, 0] += 1.0
    table = np.zeros_like(vectors)
    for rows, c, u_grad, v_grad in zip(idx, coeff, gu, gv):
        np.add.at(table, rows, np.vstack((c @ u_grad, v_grad * c[:, None])))
    return float(np.sum(dists[:, 0] + lse[:, 0])), table


def negative_candidates(tree, u):
    """The negatives of node u by their definition: the rows of tree.nodes
    that are neither u nor one of u's children, from a scan of every node
    name."""
    from hyperclass.errors import TaxonomyError

    excluded = {u, *(c for p, c in tree.edges if p == u)}
    rows = np.array([i for i, n in enumerate(tree.nodes) if n not in excluded], dtype=np.intp)
    if not len(rows):
        raise TaxonomyError(f"no negative candidates for node {u!r}")
    return rows


def textbook_reconstruction_map(emb, tree):
    """Reference for hierarchy.reconstruction_map from node names, with
    no refusal: for each parent, in row order, a child's rank is 1 + the
    number of the parent's non-neighbours (nodes that are neither the
    parent nor one of its children) strictly closer to the parent than the
    child, one distance per pair of names, and the parent's AP comes from
    its sorted ranks. 0.0 for a tree with no edges."""
    from hyperclass.ball import distance

    point = dict(zip(emb.nodes, emb.vectors))
    aps = []
    for u in sorted({p for p, _ in tree.edges}, key=tree.nodes.index):
        children = [c for p, c in tree.edges if p == u]
        others = [n for n in tree.nodes if n != u and n not in children]
        to_u = {n: distance(point[u], point[n]) for n in tree.nodes}
        ranks = sorted(1 + sum(to_u[w] < to_u[v] for w in others) for v in children)
        aps.append(np.mean([(i + 1) / (rank + i) for i, rank in enumerate(ranks)]))
    return float(np.mean(aps)) if aps else 0.0


def nested_loop_sibling_pairs(expert, candidate):
    """Frozen reference for experiments.surviving_sibling_pairs: the
    class-leaf pairs that are siblings in both trees, counted by a nested
    loop over each candidate parent's children against the expert's
    sibling groups."""

    def children(tree, node):
        return [c for p, c in tree.edges if p == node]

    expert_groups = [set(children(expert, p)) for p in expert.nodes if children(expert, p)]
    leaves = set(expert.class_leaves)
    count = 0
    for parent in candidate.nodes:
        kids = [c for c in children(candidate, parent) if c in leaves]
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                if any(kids[i] in g and kids[j] in g for g in expert_groups):
                    count += 1
    return count


def per_node_uniform_ball_labels(nodes, dim, rng):
    """Frozen reference for experiments.uniform_ball_labels: one direction
    draw and one np.linalg.norm per node. Returns the (len(nodes), dim)
    vectors."""
    from hyperclass.experiments import STRUCTURELESS_RADIUS

    vectors = np.empty((len(nodes), dim))
    for i in range(len(nodes)):
        direction = rng.standard_normal(dim)
        vectors[i] = STRUCTURELESS_RADIUS * direction / np.linalg.norm(direction)
    return vectors


def textbook_label_training(tree, config, pairs_per_step=10):
    """Reference for stage one as a textbook loop over pairs. Each epoch
    permutes the edges, then draws each pair's negatives in turn from its
    negative_candidates. Each minibatch of pairs_per_step pairs adds its
    pairs' gradients, from a max-shifted log-sum-exp over
    distance_and_grad, into a zero-filled (n, d) table, rescales them by
    the inverse metric and takes one dense Riemannian Adam step: separate
    m and v matrices, one global step count, and every row through
    composed_exp_map. Returns (vectors, final mean
    pair loss). It reads the burn-in and init radius from
    hyperclass.hierarchy at call time, so a test's monkeypatch of them
    reaches it too."""
    from hyperclass import hierarchy
    from hyperclass.ball import random_ball_point

    b1, b2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(config.seed)
    radius = hierarchy.INIT_RADIUS
    vectors = np.stack([random_ball_point(rng, config.dim, radius) for _ in tree.nodes])
    index = {name: i for i, name in enumerate(tree.nodes)}
    candidates = {u: negative_candidates(tree, u) for u, _ in tree.edges}
    m, v = np.zeros_like(vectors), np.zeros_like(vectors)
    t = 0
    final_loss = None
    for epoch in range(config.epochs):
        lr = config.lr * hierarchy.BURN_IN_FACTOR if epoch < hierarchy.BURN_IN_EPOCHS else config.lr
        pairs = []
        for edge in rng.permutation(len(tree.edges)):
            u, child = tree.edges[edge]
            negatives = candidates[u][rng.integers(0, len(candidates[u]), size=config.negatives)]
            pairs.append((index[u], np.concatenate(([index[child]], negatives))))
        epoch_loss = 0.0
        for start in range(0, len(pairs), pairs_per_step):
            g = np.zeros_like(vectors)
            for u, others in pairs[start : start + pairs_per_step]:
                dists, gu, go = distance_and_grad(vectors[u], vectors[others])
                scores = -dists
                lse = scores.max() + np.log(np.sum(np.exp(scores - scores.max())))
                epoch_loss += float(lse - scores[0])
                coeff = -np.exp(scores - lse)
                coeff[0] += 1.0
                np.add.at(g, np.concatenate(([u], others)), np.vstack((coeff @ gu, go * coeff[:, None])))
            g *= ((1.0 - np.vecdot(vectors, vectors)) ** 2 / 4.0)[:, None]
            t += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            step = -lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            vectors = composed_exp_map(vectors, step)
        final_loss = epoch_loss / len(tree.edges)
    return vectors, final_loss


def _meta_json(meta):
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _f8(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _checkpoint_bytes(sections):
    """The file layout of checkpoint.py's docstring, written here: magic
    HYPC, version 1 as u32, then per section [u16 name length][name]
    [u64 payload length][payload][crc32 u32], all little-endian."""
    out = [b"HYPC", struct.pack("<I", 1)]
    for name, payload in sections:
        encoded = name.encode("utf-8")
        out += [struct.pack("<H", len(encoded)), encoded, struct.pack("<Q", len(payload)), payload]
        out.append(struct.pack("<I", zlib.crc32(payload)))
    return b"".join(out)


def per_stage_labels_bytes(emb, class_map, config, seed):
    """Reference for save_labels_checkpoint: the file bytes from the
    stage's own meta dict and section list."""
    meta = {
        "stage": "labels",
        "seed": seed,
        "config": config,
        "nodes": list(emb.nodes),
        "class_map": [[label, node] for label, node in class_map],
        "shapes": {"labels.vectors": list(emb.vectors.shape)},
    }
    return _checkpoint_bytes([("meta", _meta_json(meta)), ("labels.vectors", _f8(emb.vectors))])


def per_stage_classifier_bytes(model, head, class_names, config, seed):
    """Reference for save_classifier_checkpoint: the file bytes from the
    stage's own meta dict and section list."""
    arrays = {f"enc.{k}": v for k, v in model.params().items()}
    arrays |= {f"head.{k}": v for k, v in head.params().items()}
    meta = {
        "stage": "classifier",
        "seed": seed,
        "config": config,
        "class_names": list(class_names),
        "vocab": model.vocab.token_to_index,
        "shapes": {name: list(arr.shape) for name, arr in arrays.items()},
    }
    sections = [("meta", _meta_json(meta))]
    sections += [(name, _f8(arr)) for name, arr in sorted(arrays.items())]
    return _checkpoint_bytes(sections)


def per_token_ids(token_to_index, text):
    """Frozen reference tokenizer: the per-token loop that the memoized
    pass replaced. Lowercase, split, strip edge punctuation token by token,
    map OOV to UNK (0); an empty result is [PAD] (1)."""
    ids = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            ids.append(token_to_index.get(token, 0))
    return ids if ids else [1]


def per_token_vocabulary(texts, min_freq=2):
    """Frozen reference for Vocabulary.build: counts every stripped token
    occurrence one at a time. Returns the token -> index mapping."""
    counts = {}
    for text in texts:
        for raw in text.lower().split():
            token = raw.strip(string.punctuation)
            if token:
                counts[token] = counts.get(token, 0) + 1
    mapping = {"<unk>": 0, "<pad>": 1}
    for token in sorted(counts):
        if counts[token] >= min_freq and token not in mapping:
            mapping[token] = len(mapping)
    return mapping


def per_coordinate_tsv(nodes, vectors, path):
    """Frozen reference for the embedding TSV writer: each coordinate
    formatted as its own numpy scalar."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ["node"] + [f"dim{i}" for i in range(vectors.shape[1])]
        fh.write("\t".join(header) + "\n")
        for name, row in zip(nodes, vectors):
            coords = "\t".join(f"{x:.17g}" for x in row)
            fh.write(f"{name}\t{coords}\n")


def class_counts(ds):
    """Number of samples per class index of a LabeledDataset."""
    counts = [0] * len(ds.label_names)
    for _, y in ds.samples:
        counts[y] += 1
    return counts


def list_pool_synthetic(tree, spec):
    """Frozen reference for data.generate_synthetic with its pools held as
    Python lists and every drawn token converted with str(). Returns the
    (train, dev, test) sample lists."""
    rng = np.random.default_rng(spec.seed)
    parent_of = {child: parent for parent, child in tree.edges}
    families = sorted({parent_of[leaf] for leaf in tree.class_leaves if leaf in parent_of})
    family_pool = {
        fam: [f"fam{fi}_w{j}" for j in range(spec.family_pool_size)]
        for fi, fam in enumerate(families)
    }
    leaf_pool = {
        leaf: [f"leaf{li}_w{j}" for j in range(spec.leaf_pool_size)]
        for li, leaf in enumerate(tree.class_leaves)
    }
    noise_pool = [f"noise_w{j}" for j in range(spec.noise_vocab)]
    k = spec.tokens_per_sample
    n_family = int(spec.family_fraction * k)
    n_leaf = int(spec.leaf_fraction * k)
    per_class = []
    for leaf in tree.class_leaves:
        fam_tokens = family_pool.get(parent_of.get(leaf), noise_pool)
        texts = []
        for _ in range(spec.samples_per_class):
            tokens = [str(t) for t in rng.choice(fam_tokens, size=n_family)]
            tokens += [str(t) for t in rng.choice(leaf_pool[leaf], size=n_leaf)]
            tokens += [str(t) for t in rng.choice(noise_pool, size=k - n_family - n_leaf)]
            rng.shuffle(tokens)
            texts.append(" ".join(tokens))
        per_class.append(texts)
    n_train = int(round(spec.train_fraction * spec.samples_per_class))
    n_dev = int(round(spec.dev_fraction * spec.samples_per_class))
    buckets = {"train": [], "dev": [], "test": []}
    for y, texts in enumerate(per_class):
        order = rng.permutation(spec.samples_per_class)
        for pos, idx in enumerate(order):
            split = "train" if pos < n_train else "dev" if pos < n_train + n_dev else "test"
            buckets[split].append((texts[idx], y))
    rng.shuffle(buckets["train"])
    return buckets["train"], buckets["dev"], buckets["test"]


def dense_table_train_classifier(train_ds, dev_ds, config, labels=None, class_map=None):
    """Frozen reference for training.train_classifier: a dict of separate
    parameter arrays, the embedding gradient scattered into a zeroed
    (vocab, d_tok) table found with np.unique, one `take` per minibatch,
    and a dense Adam stepping each parameter in turn. Returns (history,
    best_epoch, best_dev_wf1, params) with the best epoch's parameters."""
    from hyperclass.encoder import EncoderModel, Vocabulary, encode_batch, tokenize_batch
    from hyperclass.loss import ClassifierHead, ce_batch, class_embedding_matrix, weighted_ce_batch
    from hyperclass.training import evaluate_model

    def backward(model, batch, h, upstream):
        dpre = upstream * (1.0 - h * h)
        dpooled = (dpre @ model.w1.T) / batch.lengths[:, None]
        tokens, inverse = np.unique(batch.ids, return_inverse=True)
        samples = np.repeat(np.arange(len(batch)), batch.lengths)
        counts = np.bincount(inverse * len(batch) + samples, minlength=len(tokens) * len(batch))
        embedding = np.zeros_like(model.embedding)
        embedding[tokens] = counts.reshape(len(tokens), len(batch)).astype(float) @ dpooled
        sums = np.add.reduceat(model.embedding[batch.ids], batch.offsets, axis=0)
        pooled = sums / batch.lengths[:, None]
        return {"w1": pooled.T @ dpre, "b1": dpre.sum(axis=0), "embedding": embedding}

    def adam_step(params, state, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        state["t"] += 1
        bc1 = 1.0 - b1 ** state["t"]
        bc2 = 1.0 - b2 ** state["t"]
        for key in sorted(params):
            g, m, v = grads[key], state["m"][key], state["v"][key]
            m *= b1
            m += g * (1.0 - b1)
            v *= b2
            a = g * (1.0 - b2)
            a *= g
            v += a
            a = m / bc1
            a *= lr
            b = np.sqrt(v / bc2)
            b += eps
            a /= b
            params[key] -= a

    label_matrix = None
    if config.loss == "wce":
        label_matrix = class_embedding_matrix(labels, [node for _, node in class_map])
    texts = lambda ds: [text for text, _ in ds.samples]  # noqa: E731
    rng = np.random.default_rng(config.seed)
    vocab = Vocabulary.build(texts(train_ds))
    model = EncoderModel.init(vocab, config.d_tok, config.d_e, rng)
    hyper_dim = 2 if label_matrix is None else label_matrix.shape[1]
    head = ClassifierHead.init(config.d_e, len(train_ds.label_names), hyper_dim, rng)
    params = {f"enc.{k}": v for k, v in model.params().items()}
    params.update({f"head.{k}": v for k, v in head.params().items()})
    state = {"t": 0, "m": {k: np.zeros_like(p) for k, p in params.items()}}
    state["v"] = {k: np.zeros_like(p) for k, p in params.items()}
    train_tokens = tokenize_batch(vocab, texts(train_ds))
    dev_tokens = tokenize_batch(vocab, texts(dev_ds))
    train_ys = np.array([y for _, y in train_ds.samples], dtype=np.int64)
    n = len(train_tokens)
    history, best_epoch, best_wf1, best_params = [], -1, -1.0, {}
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            tokens = train_tokens.take(batch)
            ys = train_ys[batch]
            hs = encode_batch(model, tokens)
            if config.loss == "wce":
                total, grads = weighted_ce_batch(head, hs, ys, label_matrix)
            else:
                total, grads = ce_batch(head, hs, ys)
            epoch_loss += total * len(batch)
            step_grads = {f"enc.{k}": v for k, v in backward(model, tokens, hs, grads["h"]).items()}
            step_grads.update({f"head.{k}": grads[k] for k in ("w_c", "b_c", "w_p", "b_p")})
            adam_step(params, state, step_grads, config.lr)
        dev_result, _ = evaluate_model(model, head, dev_ds, dev_tokens)
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / n,
                "dev_acc": dev_result.accuracy,
                "dev_wf1": dev_result.weighted_f1,
            }
        )
        if dev_result.weighted_f1 > best_wf1:
            best_wf1, best_epoch = dev_result.weighted_f1, epoch
            best_params = {k: v.copy() for k, v in params.items()}
    for key, value in best_params.items():
        np.copyto(params[key], value)
    return history, best_epoch, best_wf1, params
