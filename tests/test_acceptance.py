"""Release gate: invariant suites plus scaled-down behavioral runs.

Each test pins the tolerances and single-core time budgets the library
promises. The behavioral tests share one module-scoped bank of synthetic
pipeline runs (4 arms x 5 seeds), so the whole file stays inside the
budgets on one CPU core.
"""

import time

import numpy as np
import pytest

from helpers import (
    brute_weighted_f1,
    distance_from_origin,
    distance_grad,
    hyper_weight,
    log_map,
    mobius_add,
    numeric_grad,
    pair_slots,
    rel_err,
)
from hyperclass.ball import (
    distance,
    exp_map,
    exp_origin_distance_vjp,
    random_ball_point,
)
from hyperclass.cli import main as cli_main
from hyperclass.config import ClassifierConfig, LabelEmbedConfig, SynthSpec
from hyperclass.data import default_synthetic_tree, generate_synthetic, save_dataset
from hyperclass.encoder import EncoderModel, Vocabulary, encode, encode_backward, tokenize
from hyperclass.experiments import ARMS, mean_over_seeds, run_synthetic_pipeline
from hyperclass.checkpoint import load_checkpoint, save_classifier_checkpoint
from hyperclass.hierarchy import (
    build_tree,
    label_loss,
    reconstruction_map,
    train_label_embeddings,
)
from hyperclass.loss import ClassifierHead, ce_batch, logits, predict, weighted_ce_batch
from hyperclass.metrics import evaluate
from hyperclass.training import train_classifier

SEEDS = range(5)


# ---------------------------------------------------------------- geometry


def test_geometry_invariant_suite():
    """Mobius identities, exp/log round trips, metric axioms, and the
    origin closed form over >= 1000 seeded random cases in < 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    cases = 0
    for _ in range(1200):
        dim = int(rng.integers(2, 6))
        x = random_ball_point(rng, dim, 0.9)
        y = random_ball_point(rng, dim, 0.9)
        z = random_ball_point(rng, dim, 0.9)

        zero = np.zeros(dim)
        assert np.linalg.norm(mobius_add(zero, x) - x) <= 1e-9
        assert np.linalg.norm(mobius_add(-x, x)) <= 1e-9
        assert np.linalg.norm(mobius_add(-x, mobius_add(x, y)) - y) <= 1e-9

        assert np.linalg.norm(exp_map(x, log_map(x, y)) - y) <= 1e-6

        dxy = distance(x, y)
        assert dxy >= 0.0
        assert abs(dxy - distance(y, x)) <= 1e-12
        assert distance(x, z) <= dxy + distance(y, z) + 1e-9
        assert abs(distance(zero, x) - distance_from_origin(np.linalg.norm(x))) <= 1e-9
        cases += 1
    assert cases >= 1000
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------- gradients


def small_text_setup(seed=0, n=4):
    rng = np.random.default_rng(seed)
    texts = ["alpha beta gamma", "beta gamma delta", "gamma delta alpha", "delta alpha beta"]
    vocab = Vocabulary.build(texts, min_freq=1)
    model = EncoderModel.init(vocab, d_tok=4, d_e=3, rng=rng)
    head = ClassifierHead.init(d_e=3, num_classes=2, hyper_dim=2, rng=rng)
    tokens = [tokenize(vocab, t) for t in texts[:n]]
    ys = np.array([0, 1, 0, 1][:n])
    label_matrix = np.stack([random_ball_point(rng, 2, 0.9) for _ in range(2)])
    return model, head, tokens, ys, label_matrix


def test_gradient_suite():
    """Every analytic gradient matches central finite differences:
    rel err < 1e-4 per component, < 1e-3 end to end, in < 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(1)

    # ball distance
    checked = 0
    while checked < 200:
        dim = int(rng.integers(2, 6))
        x = random_ball_point(rng, dim, 0.9)
        y = random_ball_point(rng, dim, 0.9)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        gx, gy = distance_grad(x, y)
        assert rel_err(gx, numeric_grad(lambda: distance(x, y), x)) < 1e-4
        assert rel_err(gy, numeric_grad(lambda: distance(x, y), y)) < 1e-4
        checked += 1

    # label-embedding loss
    for trial in range(20):
        vectors = np.stack([random_ball_point(rng, 3, 0.7) for _ in range(4)])
        slots = pair_slots([[0, 1, 2, 3]], 3)  # rows: u=0, v=1, negatives a=2, b=3
        _, grads = label_loss(vectors, slots)
        assert grads.shape == vectors.shape
        for row, grad in enumerate(grads):
            num = numeric_grad(lambda: label_loss(vectors, slots)[0], vectors[row])
            assert rel_err(grad, num) < 1e-4

    # encoder
    for trial in range(10):
        model, _, tokens, _, _ = small_text_setup(seed=trial)
        upstream = np.random.default_rng(trial).standard_normal(3)
        grads = encode_backward(model, tokens[0], upstream)
        for key, arr in model.params().items():
            num = numeric_grad(lambda: float(upstream @ encode(model, tokens[0])), arr)
            assert rel_err(grads[key], num) < 1e-4

    # logit layer via the plain-CE batch loss
    for trial in range(10):
        _, head, _, ys, _ = small_text_setup(seed=trial)
        hs = np.random.default_rng(trial).standard_normal((4, 3)) * 0.5
        _, grads = ce_batch(head, hs, ys)
        for key in ("w_c", "b_c"):
            num = numeric_grad(lambda: ce_batch(head, hs, ys)[0], head.params()[key])
            assert rel_err(grads[key], num) < 1e-4

    # distance weight
    for trial in range(20):
        _, head, _, _, mat = small_text_setup(seed=trial)
        h = np.random.default_rng(trial + 100).standard_normal(3) * 0.5
        _, vjp = exp_origin_distance_vjp((h @ head.w_p + head.b_p)[None], mat[:1])
        dh = vjp(np.ones(1))[0] @ head.w_p.T
        num = numeric_grad(lambda: hyper_weight(head, h, mat[0]), h)
        assert rel_err(dh, num) < 1e-4

    # end to end: encoder + head under the weighted loss
    model, head, tokens, ys, mat = small_text_setup(seed=7)

    def total():
        hs = np.stack([encode(model, toks) for toks in tokens])
        return weighted_ce_batch(head, hs, ys, mat)[0]

    hs = np.stack([encode(model, toks) for toks in tokens])
    _, grads = weighted_ce_batch(head, hs, ys, mat)
    enc_grads = {k: np.zeros_like(v) for k, v in model.params().items()}
    for i, toks in enumerate(tokens):
        for k, g in encode_backward(model, toks, grads["h"][i]).items():
            enc_grads[k] += g
    for key in ("w_c", "b_c", "w_p", "b_p"):
        num = numeric_grad(total, head.params()[key])
        assert rel_err(grads[key], num) < 1e-3, key
    for key, arr in model.params().items():
        num = numeric_grad(total, arr)
        assert rel_err(enc_grads[key], num) < 1e-3, key

    assert time.monotonic() - start < 30.0


# ------------------------------------------------- label embedding quality


def test_label_embedding_quality():
    """Balanced 3-level tree (branching 3), 10-dim ball, 300 epochs:
    5-seed mean MAP >= 0.9 and leaves pushed past the top level, < 60 s."""
    start = time.monotonic()
    edges = [("root", f"c{i}") for i in range(3)] + [
        (f"c{i}", f"c{i}_{j}") for i in range(3) for j in range(3)
    ]
    tree = build_tree(edges, [f"c{i}_{j}" for i in range(3) for j in range(3)])
    maps, leaf_means, root_means = [], [], []
    for seed in SEEDS:
        emb, _ = train_label_embeddings(tree, LabelEmbedConfig(dim=10, epochs=300, seed=seed))
        maps.append(reconstruction_map(emb, tree))
        norms = np.linalg.norm(emb.vectors, axis=1)
        leaf_means.append(norms[tree.depth == 2].mean())
        root_means.append(norms[tree.depth == 0].mean())
    assert np.mean(maps) >= 0.9
    assert np.mean(leaf_means) > np.mean(root_means)
    assert time.monotonic() - start < 60.0


# ------------------------------------------------------- behavioral runs


@pytest.fixture(scope="module")
def arms():
    """4 arms x 5 seeds of the default synthetic pipeline, with wall time."""
    out = {}
    for name, kwargs in ARMS.items():
        t0 = time.monotonic()
        out[name] = {
            "records": [run_synthetic_pipeline(seed, **kwargs) for seed in SEEDS],
            "elapsed": time.monotonic() - t0,
        }
    return out


def test_weighted_loss_beats_plain_ce(arms):
    """Distance-weighted CE beats plain CE by >= 2 test weighted-F1 points
    on the confusable-siblings benchmark, 5-seed means, < 10 min."""
    wce = mean_over_seeds(arms["wce"]["records"], "test_wf1")
    ce = mean_over_seeds(arms["ce"]["records"], "test_wf1")
    assert arms["wce"]["elapsed"] + arms["ce"]["elapsed"] < 600.0
    assert wce - ce >= 0.02, (wce, ce)


def test_hierarchy_ablation_ordering(arms):
    """Real taxonomy >= structure-free anchors >= scrambled taxonomy, with
    the expert-vs-scrambled gap >= 1 point, < 30 min for the three arms."""
    expert = mean_over_seeds(arms["wce"]["records"], "test_wf1")
    uniform = mean_over_seeds(arms["uniform"]["records"], "test_wf1")
    scrambled = mean_over_seeds(arms["random"]["records"], "test_wf1")
    elapsed = sum(arms[k]["elapsed"] for k in ("wce", "uniform", "random"))
    assert elapsed < 1800.0
    assert expert >= uniform >= scrambled, (expert, uniform, scrambled)
    assert expert - scrambled >= 0.01, (expert, scrambled)


def test_train_fit_exceeds_heldout(arms):
    """Converged runs fit train better than test (5-seed means)."""
    train = mean_over_seeds(arms["wce"]["records"], "train_wf1")
    test = mean_over_seeds(arms["wce"]["records"], "test_wf1")
    assert train > test


# ----------------------------------------------------------- metrics oracle


def test_metrics_match_brute_force():
    """evaluate() vs an independent per-class recount on 100 random
    prediction/gold sets (m <= 10, N <= 1000), to 1e-12."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(1, 1001))
        preds = rng.integers(0, m, size=n).tolist()
        golds = rng.integers(0, m, size=n).tolist()
        res = evaluate(preds, golds, m)
        assert abs(res.weighted_f1 - brute_weighted_f1(preds, golds, m)) < 1e-12
    worked = evaluate([0, 0, 1, 1], [0, 0, 0, 1], 2)
    assert abs(worked.weighted_f1 - 0.7666666666666667) < 1e-12


# -------------------------------------------------------- CLI determinism


def test_cli_training_is_bitwise_reproducible(tmp_path):
    """Both training subcommands with a fixed seed: two runs produce
    byte-identical checkpoints."""
    data = tmp_path / "data"
    assert cli_main(
        ["synth-data", "--out-dir", str(data), "--samples-per-class", "20",
         "--leaf-pool", "12", "--noise-vocab", "30"]
    ) == 0

    label_paths = [tmp_path / "labels_a.ckpt", tmp_path / "labels_b.ckpt"]
    for p in label_paths:
        assert cli_main(
            ["train-labels", "--hierarchy", str(data / "hierarchy.tsv"), "--class-map",
             str(data / "class-map.tsv"), "--dim", "4", "--epochs", "30",
             "--seed", "5", "--out", str(p)]
        ) == 0
    assert label_paths[0].read_bytes() == label_paths[1].read_bytes()

    clf_paths = [tmp_path / "clf_a.ckpt", tmp_path / "clf_b.ckpt"]
    for p in clf_paths:
        assert cli_main(
            ["train-classifier", "--train", str(data / "train.tsv"), "--dev",
             str(data / "dev.tsv"), "--labels-ckpt", str(label_paths[0]),
             "--epochs", "2", "--d-tok", "8", "--d-e", "16",
             "--seed", "5", "--out", str(p)]
        ) == 0
    assert clf_paths[0].read_bytes() == clf_paths[1].read_bytes()


# ------------------------------------------------------------- persistence


def test_checkpoint_round_trip_preserves_predictions(tmp_path):
    """Save + load leaves argmax predictions and raw logits bitwise equal
    on a 100-sample probe."""
    tree, _ = default_synthetic_tree()
    train_ds, dev_ds, test_ds = generate_synthetic(tree, SynthSpec())
    cfg = ClassifierConfig(d_tok=8, d_e=16, epochs=2, loss="ce", seed=0)
    result = train_classifier(train_ds, dev_ds, cfg)

    path = tmp_path / "clf.ckpt"
    save_classifier_checkpoint(
        path, result.model, result.head, train_ds.label_names, cfg.to_dict(), cfg.seed
    )
    loaded = load_checkpoint(path)

    probe = test_ds.samples[:100]
    assert len(probe) == 100
    for text, _ in probe:
        h_before = encode(result.model, tokenize(result.model.vocab, text))
        h_after = encode(loaded.model, tokenize(loaded.model.vocab, text))
        assert np.array_equal(logits(result.head, h_before), logits(loaded.head, h_after))
        assert predict(result.head, h_before) == predict(loaded.head, h_after)
