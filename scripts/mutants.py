#!/usr/bin/env python3
"""Mutation check of the test suite: python scripts/mutants.py (no flags).

Each mutant in MUTANTS is one textual edit `(file, old, new, tests)` of
`src/hyperclass/<file>`: `old` must occur there exactly once, and a
mutant whose `old` occurs zero or several times is stale, an error. For
each mutant, `src/` is copied to a temporary directory, the edit is
applied there, and its test selection runs from the repo root as

    python -m pytest -q -p no:cacheprovider -rfE <tests>

with PYTHONPATH=<tmp>/src and PYTHONDONTWRITEBYTECODE=1, so the tests
import the mutated copy; two such runs go at a time. Every test that
fails, or errors in its setup, kills the mutant. Before any mutant runs,
every selection must pass on an unmutated copy that `hyperclass.__file__`
resolves into. A mutant whose run stops at import or collection is
broken, not killed.

Output is JSON lines on stdout: one per mutant (its id, file, status and
`killed_by` test ids), then one summary with the survivors, the broken
and stale mutants, and, for each test file, the mutants that no other
file kills. The exit status is 1 on any survivor, broken or stale
mutant, else 0. Nothing is written inside the repo: Hypothesis keeps its
example store in the temporary directory too. It is not part of tier-1.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Test selections, as pytest arguments relative to the repo root.
BALL = (
    "tests/test_ball.py",
    "tests/test_acceptance.py::test_geometry_invariant_suite",
    "tests/test_acceptance.py::test_gradient_suite",
)
HIERARCHY = (
    "tests/test_hierarchy.py::TestNegativeSamples",
    "tests/test_hierarchy.py::TestLabelLoss",
    "tests/test_hierarchy.py::TestTrainLabelEmbeddings",
    "tests/test_hierarchy.py::TestTreeIndex",
    "tests/test_hierarchy.py::TestNodeDepths",
    "tests/test_hierarchy.py::TestBundledEmotionTaxonomy",
)
STAGE_ONE = HIERARCHY + (
    "tests/test_optim.py",
    "tests/test_acceptance.py::test_label_embedding_quality",
    "tests/test_acceptance.py::test_cli_training_is_bitwise_reproducible",
)
STAGE_TWO = (
    "tests/test_loss.py",
    "tests/test_training.py",
    "tests/test_acceptance.py::test_gradient_suite",
)
ADAM = ("tests/test_optim.py", "tests/test_training.py") + HIERARCHY
WEIGHT = BALL + STAGE_TWO
TOKENS = ("tests/test_encoder.py", "tests/test_training.py", "tests/test_cli.py")
CHECKPOINT = (
    "tests/test_checkpoint.py",
    "tests/test_cli.py",
    "tests/test_cli_sweep.py",
    "tests/test_acceptance.py::test_cli_training_is_bitwise_reproducible",
    "tests/test_acceptance.py::test_checkpoint_round_trip_preserves_predictions",
)
DATA = ("tests/test_data.py", "tests/test_cli.py", "tests/test_experiments.py")
TSV = ("tests/test_hierarchy.py::TestEmbeddingTsv", "tests/test_cli.py", "tests/test_cli_sweep.py")
EXPERIMENTS = ("tests/test_experiments.py",)
TREE = HIERARCHY + ("tests/test_data.py", "tests/test_experiments.py")
SHUFFLE = (
    "tests/test_hierarchy.py::TestBuildTree",
    "tests/test_hierarchy.py::TestTreeIndex",
    "tests/test_experiments.py",
)
TRAIN_LABELS = ("tests/test_cli.py::TestTrainLabels",)
MAP = ("tests/test_hierarchy.py::TestReconstructionMap",)

# id -> (file, old, new, tests)
MUTANTS = {
    # ball kernels: a sign, a dropped clamp, a swapped b/c
    "exp-map-sign": (
        "ball.py",
        "a = 1.0 + 2.0 * s * np.vecdot(x, v)",
        "a = 1.0 - 2.0 * s * np.vecdot(x, v)",
        BALL + STAGE_ONE,
    ),
    "exp-map-no-clamp": (
        "ball.py",
        "return project_to_ball(_scale_rows((a + t2) / den, x) + _scale_rows(b * s / den, v))",
        "return _scale_rows((a + t2) / den, x) + _scale_rows(b * s / den, v)",
        BALL + STAGE_ONE,
    ),
    "exp-map-swapped-coefficients": (
        "ball.py",
        "_scale_rows((a + t2) / den, x) + _scale_rows(b * s / den, v)",
        "_scale_rows(b * s / den, x) + _scale_rows((a + t2) / den, v)",
        BALL + STAGE_ONE,
    ),
    "distance-vjp-sign": (
        "ball.py",
        "return gx, _scale_rows(w * (a / c), y) - _scale_rows(w, diff)",
        "return gx, _scale_rows(w * (a / c), y) + _scale_rows(w, diff)",
        BALL + STAGE_ONE,
    ),
    "distance-vjp-swapped-b-c-in-gx": (
        "ball.py",
        "np.vecdot(w, a / b)",
        "np.vecdot(w, a / c)",
        BALL + STAGE_ONE,
    ),
    "distance-vjp-swapped-b-c-in-gy": (
        "ball.py",
        "return gx, _scale_rows(w * (a / c), y)",
        "return gx, _scale_rows(w * (a / b), y)",
        BALL + STAGE_ONE,
    ),
    "weight-vjp-sign": (
        "ball.py",
        "dz = _scale_rows(w, diff) + _scale_rows(w * (a / b), z)",
        "dz = _scale_rows(w, diff) - _scale_rows(w * (a / b), z)",
        WEIGHT,
    ),
    # rounding order only: the slotted form in tests/helpers.py pins these bits
    "weight-vjp-rounding-order": (
        "ball.py",
        "dz = _scale_rows(w, diff) + _scale_rows(w * (a / b), z)",
        "dz = _scale_rows(w, diff) + _scale_rows(w * a / b, z)",
        WEIGHT,
    ),
    "weight-vjp-no-tanh-clamp": (
        "ball.py",
        "    t = np.minimum(t, MAX_NORM)\n",
        "",
        WEIGHT,
    ),
    "weight-vjp-swapped-b-c": (
        "ball.py",
        "diff, a, b, _, bc, arg = _terms(z, y)",
        "diff, a, _, b, bc, arg = _terms(z, y)",
        WEIGHT,
    ),
    # the slope of tanh past the clamp back to 1 - t * t
    "weight-vjp-slope-past-clamp": (
        "ball.py",
        "dt = np.where(t > MAX_NORM, 0.0, 1.0 - t * t)",
        "dt = 1.0 - t * t",
        WEIGHT,
    ),
    "slope-no-mask": (
        "ball.py",
        "return (root >= EPS_DIV) * 4.0 / (bc * np.maximum(root, EPS_DIV))",
        "return 4.0 / (bc * np.maximum(root, EPS_DIV))",
        WEIGHT + STAGE_ONE,
    ),
    "exp-map-origin-no-clamp": (
        "ball.py",
        "return project_to_ball(_scale_rows(np.where(nonzero, t / r, 0.0), v)), (r, nonzero, t)",
        "return _scale_rows(np.where(nonzero, t / r, 0.0), v), (r, nonzero, t)",
        WEIGHT,
    ),
    "project-no-clamp": (
        "ball.py",
        "return _scale_rows(MAX_NORM / np.maximum(norm, MAX_NORM), p)",
        "return p",
        BALL + STAGE_ONE,
    ),
    "riemannian-grad-square-dropped": (
        "ball.py",
        "return _scale_rows((1.0 - x2) ** 2 / 4.0, euclid_grad)",
        "return _scale_rows((1.0 - x2) / 4.0, euclid_grad)",
        BALL + STAGE_ONE,
    ),
    "log-map-origin-no-artanh": (
        "ball.py",
        "np.where(nonzero, np.arctanh(np.minimum(r, MAX_NORM)) / r, 0.0)",
        "np.where(nonzero, np.minimum(r, MAX_NORM) / r, 0.0)",
        BALL + TSV,
    ),
    "exp-map-origin-vjp-zero-row": (
        "ball.py",
        "s = np.where(nonzero, t / r, 1.0)",
        "s = np.where(nonzero, t / r, 0.0)",
        WEIGHT,
    ),
    # the weight path: dtotal_dw and the weighted logit gradient
    "dtotal-dw-not-averaged": (
        "loss.py",
        "dtotal_dw = ces / n",
        "dtotal_dw = ces",
        STAGE_TWO,
    ),
    "weighted-dlogits-unweighted": (
        "loss.py",
        "dlogits *= (w / n)[:, None]",
        "dlogits /= n",
        STAGE_TWO,
    ),
    "weight-grad-into-h-dropped": (
        "loss.py",
        'grads["h"] += dv @ head.w_p.T',
        'grads["h"] += 0.0',
        STAGE_TWO,
    ),
    "softmax-onehot-sign": (
        "loss.py",
        "dlogits[rows, ys] -= 1.0",
        "dlogits[rows, ys] += 1.0",
        STAGE_TWO,
    ),
    # evaluate's F1 weighting
    "f1-unweighted-mean": (
        "metrics.py",
        "weighted_f1 = float(np.sum(n_c / n * f1))",
        "weighted_f1 = float(np.mean(f1))",
        ("tests/test_metrics.py", "tests/test_acceptance.py::test_metrics_match_brute_force"),
    ),
    "f1-weighted-by-predictions": (
        "metrics.py",
        "weighted_f1 = float(np.sum(n_c / n * f1))",
        "weighted_f1 = float(np.sum(pred_c / n * f1))",
        ("tests/test_metrics.py", "tests/test_acceptance.py::test_metrics_match_brute_force"),
    ),
    # the checkpoint: its CRC check, the writer's meta keys and section order
    "checkpoint-crc-unchecked": (
        "checkpoint.py",
        "if zlib.crc32(payload) != crc:",
        "if False:",
        CHECKPOINT,
    ),
    "checkpoint-meta-extra-key": (
        "checkpoint.py",
        'meta = {"stage": stage, "seed": seed, "config": config, "shapes": shapes, **fields}',
        'meta = {"stage": stage, "seed": seed, "config": config, "shapes": shapes, "v": 1, **fields}',
        CHECKPOINT,
    ),
    "checkpoint-meta-unsorted": (
        "checkpoint.py",
        "json.dumps(meta, sort_keys=True, separators=(",
        "json.dumps(meta, sort_keys=False, separators=(",
        CHECKPOINT,
    ),
    "checkpoint-meta-spaced-json": (
        "checkpoint.py",
        'separators=(",", ":")',
        'separators=(", ", ": ")',
        CHECKPOINT,
    ),
    "checkpoint-sections-unsorted": (
        "checkpoint.py",
        "for name, arr in sorted(arrays.items())",
        "for name, arr in arrays.items()",
        CHECKPOINT,
    ),
    "checkpoint-meta-section-last": (
        "checkpoint.py",
        "Path(path).write_bytes(_pack_sections(sections))",
        "Path(path).write_bytes(_pack_sections(sections[1:] + sections[:1]))",
        CHECKPOINT,
    ),
    "checkpoint-version-bumped": (
        "checkpoint.py",
        "VERSION = 1",
        "VERSION = 2",
        CHECKPOINT,
    ),
    # the tokenizer's strip and PAD rules, and Vocabulary.build's count
    "tokenize-strip-right-only": (
        "encoder.py",
        "return piece.strip(string.punctuation)",
        "return piece.rstrip(string.punctuation)",
        TOKENS,
    ),
    "tokenize-no-lowercase": (
        "encoder.py",
        "pieces = [text.lower().split() for text in texts[start : start + CHUNK_ROWS]]",
        "pieces = [text.split() for text in texts[start : start + CHUNK_ROWS]]",
        TOKENS,
    ),
    "tokenize-unk-for-empty": (
        "encoder.py",
        "ids = np.insert(ids[keep], _starts(lengths)[empty], PAD)",
        "ids = np.insert(ids[keep], _starts(lengths)[empty], UNK)",
        TOKENS,
    ),
    "tokenize-pad-one-late": (
        "encoder.py",
        "ids = np.insert(ids[keep], _starts(lengths)[empty], PAD)",
        "ids = np.insert(ids[keep], np.minimum(_starts(lengths)[empty] + 1, keep.sum()), PAD)",
        TOKENS,
    ),
    "tokenize-mask-only-for-skips": (
        "encoder.py",
        "if ids.min(initial=0) == _SKIP or not lengths.all():",
        "if ids.min(initial=0) == _SKIP:",
        TOKENS,
    ),
    "vocab-counts-pieces-once": (
        "encoder.py",
        "counts[token] = counts.get(token, 0) + n",
        "counts[token] = counts.get(token, 0) + 1",
        TOKENS,
    ),
    "vocab-min-freq-strict": (
        "encoder.py",
        "if counts[token] >= min_freq and token not in mapping:",
        "if counts[token] > min_freq and token not in mapping:",
        TOKENS,
    ),
    "vocab-counts-unstripped": (
        "encoder.py",
        "            token = _normalize(piece)\n            if token:\n                counts",
        "            token = piece\n            if token:\n                counts",
        TOKENS,
    ),
    # generate_synthetic's RNG order
    "synthetic-no-token-shuffle": (
        "data.py",
        "            rng.shuffle(tokens)\n",
        "",
        DATA,
    ),
    "synthetic-no-train-shuffle": (
        "data.py",
        "    rng.shuffle(train)\n",
        "",
        DATA,
    ),
    "synthetic-split-order-unpermuted": (
        "data.py",
        "order = rng.permutation(spec.samples_per_class).tolist()",
        "order = list(range(spec.samples_per_class))",
        DATA,
    ),
    "synthetic-pools-drawn-reversed": (
        "data.py",
        "tokens = words[base + rng.integers(0, high)].tolist()",
        "tokens = words[base[::-1] + rng.integers(0, high[::-1])].tolist()",
        DATA,
    ),
    "synthetic-splits-drawn-first": (
        "data.py",
        "        per_class.append(texts)\n",
        "        rng.random()\n        per_class.append(texts)\n",
        DATA,
    ),
    # the embedding TSV writer's format
    "tsv-16-digits": (
        "hierarchy.py",
        'row = "%s" + "\\t%.17g" * dim + "\\n"',
        'row = "%s" + "\\t%.16g" * dim + "\\n"',
        TSV,
    ),
    "tsv-repr-coordinates": (
        "hierarchy.py",
        'row = "%s" + "\\t%.17g" * dim + "\\n"',
        'row = "%s" + "\\t%r" * dim + "\\n"',
        TSV,
    ),
    "tsv-header-names": (
        "hierarchy.py",
        '[f"dim{i}" for i in range(dim)]',
        '[f"d{i}" for i in range(dim)]',
        TSV,
    ),
    # surviving_sibling_pairs, uniform_ball_labels
    "siblings-roots-counted": (
        "experiments.py",
        "siblings &= (parent[:, None] == parent) & (parent >= 0)",
        "siblings &= parent[:, None] == parent",
        EXPERIMENTS,
    ),
    "siblings-diagonal-counted": (
        "experiments.py",
        "return int(np.triu(siblings, 1).sum())",
        "return int(np.triu(siblings, 0).sum())",
        EXPERIMENTS,
    ),
    "siblings-candidate-only": (
        "experiments.py",
        "for tree in (expert, candidate):",
        "for tree in (candidate,):",
        EXPERIMENTS,
    ),
    "uniform-labels-radius-dropped": (
        "experiments.py",
        "vectors=STRUCTURELESS_RADIUS * directions / norms",
        "vectors=directions / norms",
        EXPERIMENTS,
    ),
    "uniform-labels-draw-transposed": (
        "experiments.py",
        "directions = rng.standard_normal((len(nodes), dim))",
        "directions = rng.standard_normal((dim, len(nodes))).T",
        EXPERIMENTS,
    ),
    "uniform-labels-norm-unrooted": (
        "experiments.py",
        "norms = np.sqrt(np.vecdot(directions, directions))[:, None]",
        "norms = np.vecdot(directions, directions)[:, None]",
        EXPERIMENTS,
    ),
    # the ablation trees: shuffle_tree and each mode's transform
    "shuffle-parent-slots": (
        "hierarchy.py",
        "edges=[(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)]",
        "edges=[(tree.edges[j][0], child) for child, j in zip(children, perm)]",
        SHUFFLE,
    ),
    "shuffle-first-draw-unchecked": (
        "hierarchy.py",
        "            return replace(tree, edges=[(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)])\n",
        "            tree.edges = [(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)]\n"
        "            return tree\n",
        SHUFFLE,
    ),
    "shuffle-nodes-from-shuffled-edges": (
        "hierarchy.py",
        "return replace(tree, edges=[(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)])",
        "return build_tree([(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)], tree.class_leaves)",
        SHUFFLE,
    ),
    "cli-mode-none-keeps-edges": (
        "cli.py",
        "        tree = replace(tree, edges=[])\n",
        "        tree = replace(tree)\n",
        TRAIN_LABELS,
    ),
    "cli-mode-random-ignores-seed": (
        "cli.py",
        "shuffle_tree(tree, np.random.default_rng(cfg.seed))",
        "shuffle_tree(tree, np.random.default_rng(LabelEmbedConfig.seed))",
        TRAIN_LABELS,
    ),
    "pipeline-ce-mode-unchecked": (
        "experiments.py",
        'if mode not in ("expert", "random", "uniform"):',
        'if loss == "wce" and mode not in ("expert", "random", "uniform"):',
        EXPERIMENTS,
    ),
    # a parent's non-neighbours (stage one's negatives and the MAP's
    # competitors), the MAP's tie rule, negative_table and LabelTree's
    # refusals and depth
    "negatives-include-self": (
        "hierarchy.py",
        "return (np.arange(len(tree.nodes)) != u) & (tree.parent != u)",
        "return tree.parent != u",
        STAGE_ONE + MAP,
    ),
    "negatives-include-children": (
        "hierarchy.py",
        "return (np.arange(len(tree.nodes)) != u) & (tree.parent != u)",
        "return np.arange(len(tree.nodes)) != u",
        STAGE_ONE + MAP,
    ),
    "map-tie-counts-against-child": (
        "hierarchy.py",
        "row[allowed] < row[tree.parent == u, None]",
        "row[allowed] <= row[tree.parent == u, None]",
        MAP,
    ),
    "tree-no-nodes-accepted": (
        "hierarchy.py",
        '        if not self.nodes:\n            raise TaxonomyError("the tree has no nodes")\n',
        "",
        ("tests/test_hierarchy.py::TestTreeValidation",),
    ),
    "negatives-start-off-by-count": (
        "hierarchy.py",
        "return np.nonzero(allowed)[1], np.cumsum(count) - count, count",
        "return np.nonzero(allowed)[1], np.cumsum(count) - count[parents].min(), count",
        STAGE_ONE,
    ),
    "depth-starts-at-one": (
        "hierarchy.py",
        "self.depth = np.zeros(len(self.nodes), dtype=np.intp)",
        "self.depth = np.ones(len(self.nodes), dtype=np.intp)",
        TREE,
    ),
    "depth-counts-steps-not-edges": (
        "hierarchy.py",
        "            self.depth += below\n",
        "            self.depth += below.any()\n",
        TREE,
    ),
    "depth-capped-at-one-edge": (
        "hierarchy.py",
        "up = np.where(below, self.parent[up], -1)",
        "up = np.full_like(up, -1)",
        TREE,
    ),
    # stage one: negative draw order, burn-in, batches
    "stage-one-negatives-before-permutation": (
        "hierarchy.py",
        "        order = rng.permutation(len(tree.edges))\n"
        "        u = parents[order]\n"
        "        negatives = negative_samples(table, u, config.negatives, rng)\n",
        "        negatives = negative_samples(table, parents, config.negatives, rng)\n"
        "        order = rng.permutation(len(tree.edges))\n"
        "        u = parents[order]\n"
        "        negatives = negatives[order]\n",
        STAGE_ONE,
    ),
    "stage-one-negatives-of-unpermuted-parents": (
        "hierarchy.py",
        "negatives = negative_samples(table, u, config.negatives, rng)",
        "negatives = negative_samples(table, parents, config.negatives, rng)",
        STAGE_ONE,
    ),
    "stage-one-no-burn-in": (
        "hierarchy.py",
        "opt.lr = config.lr * BURN_IN_FACTOR if epoch < BURN_IN_EPOCHS else config.lr",
        "opt.lr = config.lr",
        STAGE_ONE,
    ),
    "stage-one-burn-in-one-epoch-long": (
        "hierarchy.py",
        "if epoch < BURN_IN_EPOCHS else config.lr",
        "if epoch <= BURN_IN_EPOCHS else config.lr",
        STAGE_ONE,
    ),
    "stage-one-batch-drops-last-pair": (
        "hierarchy.py",
        "label_loss(vectors, slots[start : start + PAIRS_PER_STEP])",
        "label_loss(vectors, slots[start : start + PAIRS_PER_STEP - 1])",
        STAGE_ONE,
    ),
    # stage one's retraction: its sign, a Euclidean step, no metric rescale
    "stage-one-retraction-sign": (
        "hierarchy.py",
        "vectors[...] = exp_map(vectors, -a.reshape(vectors.shape))",
        "vectors[...] = exp_map(vectors, a.reshape(vectors.shape))",
        STAGE_ONE,
    ),
    "stage-one-euclidean-step": (
        "hierarchy.py",
        "opt = Adam(params, config.lr, retract=exp_step)",
        "opt = Adam(params, config.lr)",
        STAGE_ONE,
    ),
    "stage-one-no-metric-rescale": (
        "hierarchy.py",
        'opt.step({"vectors": riemannian_grad(vectors, grads)})',
        'opt.step({"vectors": grads})',
        STAGE_ONE,
    ),
    "label-loss-positive-sign": (
        "hierarchy.py",
        "coeff[:, 0] += 1.0",
        "coeff[:, 0] -= 1.0",
        STAGE_ONE + ("tests/test_acceptance.py::test_gradient_suite",),
    ),
    "label-loss-batch-wide-normalizer": (
        "hierarchy.py",
        "loss = (dists[:, 0] + np.log(z)).sum()\n    coeff = e / -z[:, None]",
        "loss = (dists[:, 0] + np.log(z.sum())).sum()\n    coeff = e / -z.sum()",
        STAGE_ONE + ("tests/test_acceptance.py::test_gradient_suite",),
    ),
    # the class map's node check on the label column
    "class-map-node-check-on-labels": (
        "hierarchy.py",
        '(slice(1, 2), "node {row[1]!r} is already mapped on line {line}")',
        '(slice(1), "node {row[1]!r} is already mapped on line {line}")',
        ("tests/test_hierarchy.py", "tests/test_cli.py", "tests/test_cli_sweep.py"),
    ),
    # Adam: bias correction, rescale, eps, roots, the row step
    "adam-bias-correction-one-step-late": (
        "optim.py",
        "bc1 = 1.0 - BETA1**self.t",
        "bc1 = 1.0 - BETA1 ** (self.t + 1)",
        ADAM,
    ),
    "adam-second-bias-correction-one-step-late": (
        "optim.py",
        "q = (scale2 / (1.0 - BETA2**self.t)) ** 0.5",
        "q = (scale2 / (1.0 - BETA2 ** (self.t + 1))) ** 0.5",
        ADAM,
    ),
    "adam-no-root-recompute-at-rescale": (
        "optim.py",
        "            v *= BETA2**self.s\n            np.sqrt(v, out=r)\n",
        "            v *= BETA2**self.s\n",
        ADAM,
    ),
    "adam-no-v-rescale": (
        "optim.py",
        "            v *= BETA2**self.s\n",
        "",
        ADAM,
    ),
    "adam-rescale-one-step-late": (
        "optim.py",
        "if self.s == RESCALE_STEPS:",
        "if self.s == RESCALE_STEPS + 1:",
        ADAM,
    ),
    "adam-eps-not-divided-by-q": (
        "optim.py",
        "np.add(r, EPS / q, out=a)",
        "np.add(r, EPS, out=a)",
        ADAM,
    ),
    "adam-no-dense-root": (
        "optim.py",
        "        dv += dr\n        np.sqrt(dv, out=dr)\n",
        "        dv += dr\n",
        ADAM,
    ),
    "adam-row-step-gain-order": (
        "optim.py",
        "            gg = row_grads * gain2\n            gg *= row_grads\n",
        "            gg = row_grads * row_grads\n            gg *= gain2\n",
        ADAM,
    ),
    "adam-no-row-root": (
        "optim.py",
        "            self._r[row_key][rows] = np.sqrt(vr)\n",
        "",
        ADAM,
    ),
    "adam-abs-in-v": (
        "optim.py",
        "        np.multiply(g, gain2, out=dr)\n        dr *= g\n",
        "        np.multiply(g, gain2, out=dr)\n        dr *= np.abs(g)\n",
        ADAM,
    ),
    "adam-row-m-gain": (
        "optim.py",
        "self.m[row_key][rows] += row_grads * gain1",
        "self.m[row_key][rows] += row_grads * gain2",
        ADAM,
    ),
    # stage two: best-parameter restore, span slicing, the encoder's rows
    "stage-two-no-best-restore": (
        "training.py",
        "    np.copyto(params.flat, best_flat)\n",
        "",
        STAGE_TWO,
    ),
    "stage-two-last-best-epoch": (
        "training.py",
        "if dev_result.weighted_f1 > best_wf1:",
        "if dev_result.weighted_f1 >= best_wf1:",
        STAGE_TWO,
    ),
    "stage-two-unpermuted-epoch": (
        "training.py",
        "epoch_tokens = train_tokens.take(order)\n        epoch_ys = train_ys[order]",
        "epoch_tokens = train_tokens.take(np.sort(order))\n        epoch_ys = train_ys[np.sort(order)]",
        STAGE_TWO,
    ),
    "stage-two-epoch-loss-unweighted": (
        "training.py",
        "epoch_loss += total * len(ys)",
        "epoch_loss += total * config.batch_size",
        STAGE_TWO,
    ),
    "span-offsets-not-rebased": (
        "encoder.py",
        "return TokenBatch(ids, self.offsets[start:stop] - first, lengths)",
        "return TokenBatch(self.ids[first:], self.offsets[start:stop] - first, lengths)",
        STAGE_TWO + TOKENS,
    ),
    "span-one-token-long": (
        "encoder.py",
        "ids = self.ids[first : first + int(lengths.sum())]",
        "ids = self.ids[first : first + int(lengths.sum()) + 1]",
        STAGE_TWO + TOKENS,
    ),
    "encoder-rows-unsorted": (
        "encoder.py",
        "    rows = mark.nonzero()[0]\n",
        "    rows = mark.nonzero()[0][::-1].copy()\n",
        STAGE_TWO + TOKENS,
    ),
    "encoder-tanh-derivative": (
        "encoder.py",
        "dpre = dh * (1.0 - h * h)",
        "dpre = dh * (1.0 - h)",
        STAGE_TWO + TOKENS,
    ),
}


# Two pytest runs at a time, one per core of a 2-vCPU runner.
WORKERS = min(2, os.cpu_count() or 1)


def selections() -> list[tuple[str, ...]]:
    """Each distinct test selection, in first-use order."""
    return list(dict.fromkeys(tests for _, _, _, tests in MUTANTS.values()))


def stale(file: str, old: str, new: str) -> str | None:
    """Why a mutant cannot apply to the source at HEAD, or None."""
    count = (SRC / "hyperclass" / file).read_text(encoding="utf-8").count(old)
    if count != 1:
        return f"old text occurs {count} times in {file}"
    if new == old:
        return "new text equals old text"
    return None


def copy_source(tmp: Path, file: str | None = None, old: str = "", new: str = "") -> Path:
    """A copy of src/ in tmp, with `old` replaced by `new` in `file`."""
    dest = tmp / "src"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if file is not None:
        path = dest / "hyperclass" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
    return dest


def environment(src: Path, store: str) -> dict:
    """The tests import hyperclass from src; Hypothesis keeps its files in store."""
    return os.environ | {
        "PYTHONPATH": str(src),
        "PYTHONDONTWRITEBYTECODE": "1",
        "HYPOTHESIS_STORAGE_DIRECTORY": store,
    }


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[str, list[str]]:
    """("passed" | "failed" | "broken", the ids of the failed tests)."""
    with tempfile.TemporaryDirectory(prefix="mutants-hypothesis-") as store:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
            cwd=ROOT, env=environment(src, store), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, check=False,
        )
    failed = sorted(
        {m[1] for m in re.finditer(r"^(?:FAILED|ERROR) (\S+::\S+)", proc.stdout, re.MULTILINE)}
    )
    if proc.returncode == 0:
        return "passed", failed
    if proc.returncode == 1 and failed:
        return "failed", failed
    return "broken", failed


def check_baseline(pool: ThreadPoolExecutor) -> None:
    """Every selection passes on an unmutated copy that the tests import."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as name:
        src = copy_source(Path(name))
        found = subprocess.run(
            [sys.executable, "-c", "import hyperclass; print(hyperclass.__file__)"],
            cwd=ROOT, env=environment(src, name), stdout=subprocess.PIPE, text=True, check=True,
        ).stdout.strip()
        if not Path(found).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"error: hyperclass imports from {found}, not from the copy in {src}")
        for tests, (status, failed) in zip(
            selections(), pool.map(lambda tests: run_tests(src, tests), selections())
        ):
            if status != "passed":
                raise SystemExit(f"error: selection {' '.join(tests)} is {status} unmutated: {failed}")


def run_mutant(mid: str) -> dict:
    file, old, new, tests = MUTANTS[mid]
    reason = stale(file, old, new)
    if reason is not None:
        return {"id": mid, "file": file, "status": "stale", "reason": reason, "killed_by": []}
    with tempfile.TemporaryDirectory(prefix="mutants-") as name:
        status, failed = run_tests(copy_source(Path(name), file, old, new), tests)
    status = {"passed": "survived", "failed": "killed"}.get(status, status)
    return {"id": mid, "file": file, "status": status, "killed_by": failed}


def main() -> int:
    records = []
    with ThreadPoolExecutor(WORKERS) as pool:
        check_baseline(pool)
        for record in pool.map(run_mutant, MUTANTS):
            records.append(record)
            print(json.dumps(record), flush=True)
    only_file: dict[str, list[str]] = {}
    for record in records:
        files = {test.split("::")[0] for test in record["killed_by"]}
        if record["status"] == "killed" and len(files) == 1:
            only_file.setdefault(files.pop(), []).append(record["id"])
    by_status = {s: [r["id"] for r in records if r["status"] == s] for s in ("survived", "broken", "stale")}
    summary = {"mutants": len(records), **by_status, "only_killed_by_file": only_file}
    print(json.dumps({"summary": summary}))
    return 1 if any(by_status.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
