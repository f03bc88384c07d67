"""Shared oracles: central finite differences, error norms, and frozen
copies of replaced loop code that the batched code must match."""

import json
import string

import numpy as np

# Adam steps the embedding by rows with scaled moments (optim.Adam), so a
# trained run differs from textbook dense Adam by rounding only. Measured
# over TestFrozenReference on 2 vCPUs with numpy 2.4.6: at most 9.7e-13 on
# an epoch's train_loss and 4.4e-12 on a parameter. Each bound is about
# ten times that.
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


def log_map(x, y):
    """Logarithmic map at x, inverse of ball.exp_map, row by row: the
    general form that src/ replaced with log_map_origin.

    log_x(y) = (2 / lambda_x) * artanh(||-x (+) y||) * (-x (+) y) / ||-x (+) y||
    with the y = x limit defined as the zero vector.
    """
    from hyperclass.ball import EPS_DIV, MAX_NORM, mobius_add

    x = np.asarray(x, dtype=np.float64)
    w = mobius_add(-x, y)
    r = np.sqrt(np.vecdot(w, w))
    nonzero = r >= EPS_DIV
    r = np.where(nonzero, r, 1.0)
    # artanh argument stays below 1 because mobius_add clamps into the ball.
    artanh = np.arctanh(np.minimum(r, MAX_NORM))
    conformal = 2.0 / (1.0 - np.vecdot(x, x))
    return np.where(nonzero, (2.0 / conformal) * artanh / r, 0.0)[..., None] * w


def distance_grad(x, y):
    """Euclidean partial derivatives (dd/dx, dd/dy) of ball.distance, both
    shaped like the broadcast of x and y; the zero subgradient where x == y
    (within EPS_DIV)."""
    from hyperclass.ball import distance_and_grad

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
    r -> 0 limit is the identity; the radial clamp is treated as identity.
    """
    from hyperclass.ball import _row_norms, _scale_rows

    v = np.asarray(v, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    r, nonzero = _row_norms(v)
    t = np.tanh(r)
    s = np.where(nonzero, t / r, 1.0)
    # s'(r) / r = (sech^2(r) * r - tanh(r)) / r^3
    ds_over_r = np.where(nonzero, ((1.0 - t * t) * r - t) / (r * r * r), 0.0)
    return _scale_rows(s, grad_out) + _scale_rows(ds_over_r * np.vecdot(v, grad_out), v)


def composed_origin_distance_and_grad(v, y):
    """Frozen reference for ball.exp_origin_distance_and_grad: (d, dd/dv) of
    d = distance(exp_map_origin(v), y) from three separate kernels, each
    computing its own norms: exp_map_origin, distance_and_grad (both
    partials) and exp_map_origin_vjp."""
    from hyperclass.ball import distance_and_grad, exp_map_origin

    d, dz, _ = distance_and_grad(exp_map_origin(v), y)
    return d, exp_map_origin_vjp(v, dz)


def per_node_label_training(tree, config):
    """Frozen reference for stage one: the per-node loop that batched
    training replaced, one Riemannian Adam step per node per pair, with
    1-D Mobius addition and exponential map and a dict of per-node
    moment states. Returns (vectors, final mean pair loss). The burn-in
    and init radius are read from hyperclass.hierarchy at call time, so a
    test's monkeypatch of them reaches this reference too."""
    from hyperclass import hierarchy
    from hyperclass.ball import distance, project_to_ball, random_ball_point

    def mobius_add(x, y):
        xy, x2, y2 = float(np.dot(x, y)), float(np.dot(x, x)), float(np.dot(y, y))
        num = (1.0 + 2.0 * xy + y2) * x + (1.0 - x2) * y
        return project_to_ball(num / (1.0 + 2.0 * xy + x2 * y2))

    def exp_map(x, v):
        norm_v = float(np.linalg.norm(v))
        if norm_v < 1e-12:
            return np.array(x, copy=True)
        t = np.tanh(0.5 * (2.0 / (1.0 - float(np.dot(x, x)))) * norm_v)
        return mobius_add(x, (t / norm_v) * v)

    def adam_step(state, theta, euclid_grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        g = euclid_grad * (1.0 - float(np.dot(theta, theta))) ** 2 / 4.0
        state["t"] += 1
        t = state["t"]
        state["m"] = beta1 * state["m"] + (1.0 - beta1) * g
        state["v"] = beta2 * state["v"] + (1.0 - beta2) * g * g
        m_hat = state["m"] / (1.0 - beta1**t)
        v_hat = state["v"] / (1.0 - beta2**t)
        return project_to_ball(exp_map(theta, -lr * m_hat / (np.sqrt(v_hat) + eps)))

    rng = np.random.default_rng(config.seed)
    radius = hierarchy.INIT_RADIUS
    vectors = np.stack([random_ball_point(rng, config.dim, radius) for _ in tree.nodes])
    index = {name: i for i, name in enumerate(tree.nodes)}
    states = {name: {"t": 0, "m": np.zeros(config.dim), "v": np.zeros(config.dim)} for name in tree.nodes}
    final_loss = None
    for epoch in range(config.epochs):
        lr = config.lr * hierarchy.BURN_IN_FACTOR if epoch < hierarchy.BURN_IN_EPOCHS else config.lr
        epoch_loss = 0.0
        for edge_idx in rng.permutation(len(tree.edges)):
            u, v = tree.edges[edge_idx]
            excluded = {c for p, c in tree.edges if p == u} | {u}
            candidates = [n for n in tree.nodes if n not in excluded]
            names = [v] + [candidates[i] for i in rng.integers(0, len(candidates), size=config.negatives)]
            eu, others = vectors[index[u]], vectors[[index[n] for n in names]]
            scores = -distance(eu, others)
            m = scores.max()
            lse = m + np.log(np.sum(np.exp(scores - m)))
            epoch_loss += float(-scores[0] + lse)
            coeff = -np.exp(scores - lse)
            coeff[0] += 1.0
            gu, gn = distance_grad(eu, others)
            grads = {u: coeff @ gu}
            for name, row in zip(names, gn * coeff[:, None]):
                grads[name] = grads[name] + row if name in grads else row
            for name, grad in grads.items():
                row = index[name]
                vectors[row] = adam_step(states[name], vectors[row], grad, lr)
        final_loss = epoch_loss / len(tree.edges)
    return vectors, final_loss


def negative_candidates(tree, u):
    """Frozen reference for the negatives of node u: the rows of
    tree.nodes that are neither u nor one of u's children, from a scan of
    every node name."""
    from hyperclass.errors import TaxonomyError

    excluded = {u, *(c for p, c in tree.edges if p == u)}
    rows = np.array([i for i, n in enumerate(tree.nodes) if n not in excluded], dtype=np.intp)
    if not len(rows):
        raise TaxonomyError(f"no negative candidates for node {u!r}")
    return rows


def per_parent_negative_table(tree, parents):
    """Frozen reference for hierarchy.negative_table: (flat, start, count)
    from one negative_candidates call per listed parent name, concatenated
    in row order; count is 0 for nodes that are not listed."""
    index = {name: i for i, name in enumerate(tree.nodes)}
    rows = {index[u]: negative_candidates(tree, u) for u in parents}
    count = np.zeros(len(tree.nodes), dtype=np.intp)
    count[list(rows)] = [len(r) for r in rows.values()]
    start = np.cumsum(count) - count
    return np.concatenate([rows[i] for i in sorted(rows)]), start, count


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


def node_depths(tree):
    """Frozen reference for LabelTree.depth: {name: depth}, found by
    recursion up a child -> parent dict; roots (no parent) at 0."""
    parent_of = {child: parent for parent, child in tree.edges}
    depths = {}

    def depth(node):
        if node not in depths:
            depths[node] = 0 if node not in parent_of else depth(parent_of[node]) + 1
        return depths[node]

    for node in tree.nodes:
        depth(node)
    return depths


def batched_label_training(tree, config, pairs_per_step=10):
    """Frozen reference for stage one in minibatches of pairs, as first
    batched: every minibatch draws its own negatives, gathers the parents
    and the other rows separately, finds its distinct rows with np.unique,
    and steps a Riemannian Adam with separate m and v matrices whose
    gradient rescaling, conformal factor and Mobius sum each recompute
    ||theta||^2. Returns (vectors, final mean pair loss). Like
    per_node_label_training, it reads the burn-in and init radius from
    hyperclass.hierarchy at call time."""
    from hyperclass import hierarchy
    from hyperclass.ball import distance_and_grad, project_to_ball, random_ball_point
    from hyperclass.hierarchy import negative_samples

    def sqnorm(x):
        return np.vecdot(x, x)

    def mobius_add(x, y):
        xy, x2, y2 = np.vecdot(x, y), sqnorm(x), sqnorm(y)
        num = (1.0 + 2.0 * xy + y2)[:, None] * x + (1.0 - x2)[:, None] * y
        return project_to_ball(num / (1.0 + 2.0 * xy + x2 * y2)[:, None])

    def exp_map(x, v):
        r = np.sqrt(sqnorm(v))
        nonzero = r >= 1e-12
        r = np.where(nonzero, r, 1.0)
        t = np.tanh(0.5 * (2.0 / (1.0 - sqnorm(x))) * r)
        return mobius_add(x, np.where(nonzero, t / r, 0.0)[:, None] * v)

    def label_loss(vectors, u, v, negatives):
        others = np.column_stack((v, negatives))
        dists, gu, gv = distance_and_grad(vectors[u][:, None, :], vectors[others])
        scores = -dists
        m = scores.max(axis=1, keepdims=True)
        lse = m + np.log(np.sum(np.exp(scores - m), axis=1, keepdims=True))
        loss = np.sum(dists[:, 0] + lse[:, 0])
        coeff = -np.exp(scores - lse)
        coeff[:, 0] += 1.0
        terms = np.concatenate((np.matmul(coeff[:, None, :], gu), gv * coeff[..., None]), axis=1)
        rows, inverse = np.unique(np.column_stack((u, others)).ravel(), return_inverse=True)
        grads = np.zeros((len(rows), vectors.shape[1]))
        np.add.at(grads, inverse, terms.reshape(-1, vectors.shape[1]))
        return float(loss), rows, grads

    b1, b2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(config.seed)
    radius = hierarchy.INIT_RADIUS
    vectors = np.stack([random_ball_point(rng, config.dim, radius) for _ in tree.nodes])
    index = {name: i for i, name in enumerate(tree.nodes)}
    parents = np.array([index[u] for u, _ in tree.edges], dtype=np.intp)
    children = np.array([index[v] for _, v in tree.edges], dtype=np.intp)
    table = per_parent_negative_table(tree, (u for u, _ in tree.edges))
    m, v = np.zeros_like(vectors), np.zeros_like(vectors)
    steps = np.zeros(len(vectors), dtype=np.int64)
    final_loss = None
    for epoch in range(config.epochs):
        lr = config.lr * hierarchy.BURN_IN_FACTOR if epoch < hierarchy.BURN_IN_EPOCHS else config.lr
        order = rng.permutation(len(tree.edges))
        epoch_loss = 0.0
        for start in range(0, len(order), pairs_per_step):
            batch = order[start : start + pairs_per_step]
            u = parents[batch]
            negs = negative_samples(table, u, config.negatives, rng)
            loss, rows, grads = label_loss(vectors, u, children[batch], negs)
            theta = vectors[rows]
            g = ((1.0 - sqnorm(theta)) ** 2 / 4.0)[:, None] * grads
            t = steps[rows] + 1
            steps[rows] = t
            m[rows] = b1 * m[rows] + (1.0 - b1) * g
            v[rows] = b2 * v[rows] + (1.0 - b2) * g * g
            m_hat = m[rows] / (1.0 - b1**t)[:, None]
            v_hat = v[rows] / (1.0 - b2**t)[:, None]
            vectors[rows] = exp_map(theta, -lr * m_hat / (np.sqrt(v_hat) + eps))
            epoch_loss += loss
        final_loss = epoch_loss / len(tree.edges)
    return vectors, final_loss


def _meta_json(meta):
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _f8(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def per_stage_labels_bytes(emb, class_map, config, seed):
    """Frozen reference for save_labels_checkpoint: the file bytes from
    the stage's own meta dict and section list."""
    from hyperclass.checkpoint import _pack_sections

    meta = {
        "stage": "labels",
        "seed": seed,
        "config": config,
        "nodes": list(emb.nodes),
        "class_map": [[label, node] for label, node in class_map],
        "shapes": {"labels.vectors": list(emb.vectors.shape)},
    }
    return _pack_sections([("meta", _meta_json(meta)), ("labels.vectors", _f8(emb.vectors))])


def per_stage_classifier_bytes(model, head, class_names, config, seed):
    """Frozen reference for save_classifier_checkpoint: the file bytes
    from the stage's own meta dict and section list."""
    from hyperclass.checkpoint import _pack_sections

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
    return _pack_sections(sections)


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
                total, grads = weighted_ce_batch(head, hs, ys, label_matrix, config.weight_norm)
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
