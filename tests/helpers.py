"""Shared oracles: central finite differences, error norms, and frozen
copies of replaced loop code that the batched code must match."""

import string

import numpy as np


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


def per_node_label_training(tree, config):
    """Frozen reference for stage one: the per-node loop that batched
    training replaced, one Riemannian Adam step per node per pair, with
    1-D Mobius addition and exponential map and a dict of per-node
    moment states. Returns (vectors, final mean pair loss)."""
    from hyperclass.ball import distance, distance_grad, project_to_ball, random_ball_point

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
    vectors = np.stack([random_ball_point(rng, config.dim, config.init_radius) for _ in tree.nodes])
    index = {name: i for i, name in enumerate(tree.nodes)}
    states = {name: {"t": 0, "m": np.zeros(config.dim), "v": np.zeros(config.dim)} for name in tree.nodes}
    final_loss = None
    for epoch in range(config.epochs):
        lr = config.lr * config.burn_in_factor if epoch < config.burn_in_epochs else config.lr
        epoch_loss = 0.0
        for edge_idx in rng.permutation(len(tree.edges)):
            u, v = tree.edges[edge_idx]
            excluded = set(tree.children(u)) | {u}
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
                report, grads = weighted_ce_batch(head, hs, ys, label_matrix, config.weight_norm)
            else:
                report, grads = ce_batch(head, hs, ys)
            epoch_loss += report.total * len(batch)
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
