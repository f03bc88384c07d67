"""Command-line pipeline: synthetic data generation, both training
stages, evaluation, and embedding export.

Exit codes: 0 success, 1 named runtime error, 2 usage error (argparse).
`HYPERCLASS_SEED` sets the default seed; an explicit --seed wins. Every
output file is written to a temp path in the destination directory and
renamed into place, so failed runs leave no partial artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .ball import log_map_origin
from .checkpoint import (
    STAGE_CLASSIFIER,
    STAGE_LABELS,
    ClassifierCheckpoint,
    LabelsCheckpoint,
    load_checkpoint,
    save_classifier_checkpoint,
    save_labels_checkpoint,
    write_atomic,
)
from .config import LOSSES, WEIGHT_NORMS, ClassifierConfig, LabelEmbedConfig, SynthSpec
from .data import generate_synthetic, infer_label_names, load_dataset, make_family_tree, save_dataset
from .encoder import encode_chunks, tokenize_batch
from .errors import ConfigError, HyperclassError
from .hierarchy import (
    MODES,
    LabelEmbeddings,
    build_tree,
    export_embeddings_tsv,
    parse_class_map,
    parse_taxonomy,
    reconstruction_map,
    save_class_map,
    save_taxonomy,
    train_label_embeddings,
)
from .loss import project_representation
from .training import evaluate_model, train_classifier


def _default_seed() -> int:
    raw = os.environ.get("HYPERCLASS_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HYPERCLASS_SEED must be an integer, got {raw!r}") from None


def cmd_train_labels(args: argparse.Namespace) -> int:
    edges = parse_taxonomy(args.hierarchy)
    class_rows = parse_class_map(args.class_map)
    tree = build_tree(
        edges,
        [node for _, node in class_rows],
        mode=args.mode,
        rng=np.random.default_rng(args.seed),
    )
    cfg = LabelEmbedConfig(
        dim=args.dim, epochs=args.epochs, negatives=args.neg, lr=args.lr, seed=args.seed
    )
    cfg.validate()
    emb, final_loss = train_label_embeddings(tree, cfg)
    map_score = reconstruction_map(emb, tree)
    save_labels_checkpoint(args.out, emb, class_rows, cfg.to_dict(), args.seed)
    write_atomic(str(args.out) + ".tsv", lambda p: export_embeddings_tsv(emb, p))
    print(json.dumps({"final_loss": final_loss, "map": map_score}))
    return 0


def cmd_train_classifier(args: argparse.Namespace) -> int:
    cfg = ClassifierConfig(
        d_tok=args.d_tok,
        d_e=args.d_e,
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        loss=args.loss,
        weight_norm=args.weight_norm,
        seed=args.seed,
    )
    cfg.validate()
    labels = class_map = None
    if args.loss == "wce":
        if args.labels_ckpt is None:
            raise ConfigError("--loss wce requires --labels-ckpt")
        ck = load_checkpoint(args.labels_ckpt, expect_stage=STAGE_LABELS)
        labels, class_map = ck.emb, ck.class_map
        label_names = [label for label, _ in class_map]
    else:
        # ce ignores label-embedding inputs; class order comes from the data.
        label_names = infer_label_names(args.train)
    train_ds = load_dataset(args.train, label_names, split="train")
    dev_ds = load_dataset(args.dev, label_names, split="dev")
    result = train_classifier(
        train_ds,
        dev_ds,
        cfg,
        labels=labels,
        class_map=class_map,
        progress=lambda record: print(json.dumps(record), flush=True),
    )
    save_classifier_checkpoint(
        args.out, result.model, result.head, label_names, cfg.to_dict(), args.seed
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    ck = load_checkpoint(args.model, expect_stage=STAGE_CLASSIFIER)
    ds = load_dataset(args.data, ck.class_names, split="test")
    result, _ = evaluate_model(ck.model, ck.head, ds)
    blob = json.dumps(result.to_dict(), indent=2) + "\n"
    write_atomic(args.out_json, lambda p: Path(p).write_text(blob, encoding="utf-8"))
    print(json.dumps({"accuracy": result.accuracy, "weighted_f1": result.weighted_f1}))
    return 0


def cmd_synth_data(args: argparse.Namespace) -> int:
    tree, class_rows = make_family_tree(args.families, args.leaves_per_family)
    spec = SynthSpec(
        tokens_per_sample=args.tokens_per_sample,
        family_fraction=args.family_fraction,
        leaf_fraction=args.leaf_fraction,
        noise_vocab=args.noise_vocab,
        samples_per_class=args.samples_per_class,
        family_pool_size=args.family_pool,
        leaf_pool_size=args.leaf_pool,
        seed=args.seed,
    )
    spec.validate()
    splits = generate_synthetic(tree, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for ds in splits:
        write_atomic(out_dir / f"{ds.split}.tsv", lambda p, d=ds: save_dataset(d, p))
        counts[ds.split] = len(ds.samples)
    write_atomic(out_dir / "hierarchy.tsv", lambda p: save_taxonomy(tree.edges, p))
    write_atomic(out_dir / "class-map.tsv", lambda p: save_class_map(class_rows, p))
    print(json.dumps({**counts, "classes": tree.num_classes, "out_dir": str(out_dir)}))
    return 0


def cmd_export_embeddings(args: argparse.Namespace) -> int:
    ck = load_checkpoint(args.model)
    if isinstance(ck, LabelsCheckpoint):
        emb = ck.emb
    elif isinstance(ck, ClassifierCheckpoint):
        if args.data is None:
            raise ConfigError("exporting classifier projections requires --data")
        ds = load_dataset(args.data, ck.class_names, split="test")
        tokens = tokenize_batch(ck.model.vocab, [text for text, _ in ds.samples])
        vectors = np.concatenate(
            [project_representation(ck.head, h) for h in encode_chunks(ck.model, tokens)]
        )
        names = [f"s{i}_{ds.label_names[y]}" for i, (_, y) in enumerate(ds.samples)]
        emb = LabelEmbeddings(nodes=names, vectors=vectors)
    else:  # pragma: no cover - load_checkpoint rejects unknown stages
        raise ConfigError("unsupported checkpoint stage")
    if args.space == "tangent":
        emb = LabelEmbeddings(nodes=emb.nodes, vectors=log_map_origin(emb.vectors))
    write_atomic(args.out, lambda p: export_embeddings_tsv(emb, p))
    print(json.dumps({"rows": len(emb.nodes), "dim": emb.dim, "space": args.space}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperclass",
        description="Hierarchy-aware text classification on the Poincare ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p = sub.add_parser("train-labels", help="stage 1: train hyperbolic label embeddings")
    p.add_argument("--hierarchy", required=True, help="taxonomy TSV: parent<TAB>child")
    p.add_argument("--class-map", required=True, help="TSV: dataset_label<TAB>tree_node")
    p.add_argument("--mode", choices=MODES, default="expert")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--neg", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", required=True, help="checkpoint path; TSV written to <out>.tsv")
    p.set_defaults(func=cmd_train_labels)

    p = sub.add_parser("train-classifier", help="stage 2: train encoder + head")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--labels-ckpt", help="stage-1 checkpoint (required for --loss wce)")
    p.add_argument("--loss", choices=LOSSES, default="wce")
    p.add_argument("--weight-norm", choices=WEIGHT_NORMS, default="none")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--d-tok", type=int, default=64)
    p.add_argument("--d-e", type=int, default=128)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("evaluate", help="score a classifier checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth-data", help="generate the synthetic hierarchical benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--families", type=int, default=2)
    p.add_argument("--leaves-per-family", type=int, default=3)
    p.add_argument("--tokens-per-sample", type=int, default=SynthSpec.tokens_per_sample)
    p.add_argument("--family-fraction", type=float, default=SynthSpec.family_fraction)
    p.add_argument("--leaf-fraction", type=float, default=SynthSpec.leaf_fraction)
    p.add_argument("--noise-vocab", type=int, default=SynthSpec.noise_vocab)
    p.add_argument("--samples-per-class", type=int, default=SynthSpec.samples_per_class)
    p.add_argument("--family-pool", type=int, default=SynthSpec.family_pool_size)
    p.add_argument("--leaf-pool", type=int, default=SynthSpec.leaf_pool_size)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser(
        "export-embeddings",
        help="dump label embeddings or per-sample ball projections as TSV",
    )
    p.add_argument("--model", required=True, help="stage-1 or stage-2 checkpoint")
    p.add_argument("--data", help="dataset to project (stage-2 checkpoints only)")
    p.add_argument("--space", choices=("ball", "tangent"), default="ball")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except HyperclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
