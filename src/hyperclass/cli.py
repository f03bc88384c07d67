"""Command-line pipeline: synthetic data generation, both training
stages, evaluation, and embedding export.

Each config flag sets the field of the same name in `LabelEmbedConfig`,
`ClassifierConfig` or `SynthSpec`; an omitted flag keeps the dataclass
default, so every default lives in `config.py` alone.

Exit codes: 0 success, 1 named runtime error, 2 usage error (argparse).
`HYPERCLASS_SEED` sets the seed of the subcommands that take --seed,
and only they read it; an explicit --seed wins. A command writes each
of its output files to a temp path in the destination directory and
renames them into place only after all are written, so a failed command
leaves none of its outputs and no temp file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import fields, replace
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
from .config import LOSSES, ClassifierConfig, LabelEmbedConfig, SynthSpec
from .data import LabeledDataset, generate_synthetic, load_dataset, make_family_tree, save_dataset
from .encoder import encode_chunks, tokenize_batch
from .errors import ConfigError, HyperclassError, NumericalError, TaxonomyError
from .hierarchy import (
    build_tree,
    parse_class_map,
    parse_taxonomy,
    reconstruction_map,
    save_pairs,
    shuffle_tree,
    train_label_embeddings,
    write_embeddings_tsv,
)
from .loss import project_representation
from .training import evaluate_model, train_classifier

# train-labels' trees: the taxonomy, its nodes with no edges, or one
# shuffle of its child slots.
MODES = ("expert", "none", "random")


def _env_seed() -> int:
    raw = os.environ["HYPERCLASS_SEED"]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HYPERCLASS_SEED must be an integer, got {raw!r}") from None


def _config(cls, args: argparse.Namespace):
    """A `cls` config from the flags named after its fields; a flag left
    out is None and keeps the dataclass default."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})


def cmd_train_labels(args: argparse.Namespace) -> int:
    cfg = _config(LabelEmbedConfig, args)
    cfg.validate()
    edges = parse_taxonomy(args.hierarchy)
    class_rows = parse_class_map(args.class_map)
    # The file's own edges, in every mode: one parent per node and no cycle.
    try:
        tree = build_tree(edges, [])
    except TaxonomyError as exc:
        raise TaxonomyError(f"{args.hierarchy}: {exc}") from None
    tree = replace(tree, class_leaves=[node for _, node in class_rows])
    if args.mode == "none":
        tree = replace(tree, edges=[])
    elif args.mode == "random":
        tree = shuffle_tree(tree, np.random.default_rng(cfg.seed))
    emb, final_loss = train_label_embeddings(tree, cfg)
    map_score = reconstruction_map(emb, tree)
    write_atomic(
        {
            args.out: lambda p: save_labels_checkpoint(p, emb, class_rows, cfg.to_dict(), cfg.seed),
            f"{args.out}.tsv": lambda p: write_embeddings_tsv(p, cfg.dim, [(emb.nodes, emb.vectors)]),
        }
    )
    print(json.dumps({"final_loss": final_loss, "map": map_score}))
    return 0


def cmd_train_classifier(args: argparse.Namespace) -> int:
    cfg = _config(ClassifierConfig, args)
    cfg.validate()
    labels = class_map = label_names = None
    if cfg.loss == "wce":
        if args.labels_ckpt is None:
            raise ConfigError("--loss wce requires --labels-ckpt")
        ck = load_checkpoint(args.labels_ckpt, expect_stage=STAGE_LABELS)
        labels, class_map = ck.emb, ck.class_map
        label_names = [label for label, _ in class_map]
    # ce ignores label-embedding inputs; class order comes from the training data.
    train_ds = load_dataset(args.train, label_names, split="train")
    dev_ds = load_dataset(args.dev, train_ds.label_names, split="dev")
    result = train_classifier(
        train_ds,
        dev_ds,
        cfg,
        labels=labels,
        class_map=class_map,
        progress=lambda record: print(json.dumps(record), flush=True),
    )
    write_atomic(
        {
            args.out: lambda p: save_classifier_checkpoint(
                p, result.model, result.head, train_ds.label_names, cfg.to_dict(), cfg.seed
            )
        }
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    ck = load_checkpoint(args.model, expect_stage=STAGE_CLASSIFIER)
    ds = load_dataset(args.data, ck.class_names, split="test")
    result, _ = evaluate_model(ck.model, ck.head, ds)
    blob = json.dumps(result.to_dict(), indent=2) + "\n"
    write_atomic({args.out_json: lambda p: p.write_text(blob, encoding="utf-8")})
    print(json.dumps({"accuracy": result.accuracy, "weighted_f1": result.weighted_f1}))
    return 0


def cmd_synth_data(args: argparse.Namespace) -> int:
    counts = {"--families": args.families, "--leaves-per-family": args.leaves_per_family}
    for flag, count in counts.items():
        if count < 1:
            raise ConfigError(f"{flag} must be at least 1, got {count}")
    tree, class_rows = make_family_tree(args.families, args.leaves_per_family)
    spec = _config(SynthSpec, args)
    spec.validate()
    splits = generate_synthetic(tree, spec)
    empty = [ds.split for ds in splits if not ds.samples]
    if empty:
        raise ConfigError(
            f"--samples-per-class {spec.samples_per_class} leaves empty splits: {', '.join(empty)}"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {out_dir / f"{ds.split}.tsv": lambda p, d=ds: save_dataset(d, p) for ds in splits}
    outputs[out_dir / "hierarchy.tsv"] = lambda p: save_pairs(tree.edges, p)
    outputs[out_dir / "class-map.tsv"] = lambda p: save_pairs(class_rows, p)
    write_atomic(outputs)
    counts = {ds.split: len(ds.samples) for ds in splits}
    print(json.dumps({**counts, "classes": tree.num_classes, "out_dir": str(out_dir)}))
    return 0


def cmd_export_embeddings(args: argparse.Namespace) -> int:
    ck = load_checkpoint(args.model)
    if isinstance(ck, LabelsCheckpoint):
        if args.data is not None:
            raise ConfigError(f"--data requires a classifier checkpoint; {args.model} holds labels")
        rows, dim = ck.emb.vectors.shape
        chunks = [(ck.emb.nodes, ck.emb.vectors)]
    elif ck.config.get("loss") == "ce":
        # ce_batch gives w_p and b_p no gradient: they keep their initial values.
        raise ConfigError(f"{args.model}: a --loss ce classifier has no trained ball projection")
    elif args.data is None:
        raise ConfigError("exporting classifier projections requires --data")
    else:
        ds = load_dataset(args.data, ck.class_names, split="test")
        rows, dim = len(ds), ck.head.w_p.shape[1]
        chunks = _projection_chunks(args.model, ck, ds)
    if args.space == "tangent":
        chunks = ((names, log_map_origin(vectors)) for names, vectors in chunks)
    write_atomic({args.out: lambda p: write_embeddings_tsv(p, dim, chunks)})
    print(json.dumps({"rows": rows, "dim": dim, "space": args.space}))
    return 0


def _projection_chunks(
    model_path, ck: ClassifierCheckpoint, ds: LabeledDataset
) -> Iterator[tuple[list[str], np.ndarray]]:
    """(names, ball projections) of ds, one encoder chunk at a time;
    sample i of class y is named s{i}_{y's label}. A chunk that cannot be
    projected raises NumericalError naming the checkpoint and its samples."""
    tokens = tokenize_batch(ck.model.vocab, [text for text, _ in ds.samples])
    start = 0
    for h in encode_chunks(ck.model, tokens):
        stop = start + len(h)
        samples = enumerate(ds.samples[start:stop], start)
        names = [f"s{i}_{ds.label_names[y]}" for i, (_, y) in samples]
        try:
            points = project_representation(ck.head, h)
        except NumericalError as exc:
            raise NumericalError(
                f"{model_path}: ball projection of samples {start}-{stop - 1}: {exc}"
            ) from None
        start = stop
        yield names, points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperclass",
        description="Hierarchy-aware text classification on the Poincare ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-labels", help="stage 1: train hyperbolic label embeddings")
    p.add_argument("--hierarchy", required=True, help="taxonomy TSV: parent<TAB>child")
    p.add_argument("--class-map", required=True, help="TSV: dataset_label<TAB>tree_node")
    p.add_argument("--mode", choices=MODES, default="expert")
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--neg", type=int, dest="negatives")
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int, help="default: HYPERCLASS_SEED, else the config default")
    p.add_argument("--out", required=True, help="checkpoint path; TSV written to <out>.tsv")
    p.set_defaults(func=cmd_train_labels)

    p = sub.add_parser("train-classifier", help="stage 2: train encoder + head")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--labels-ckpt", help="stage-1 checkpoint (required for --loss wce)")
    p.add_argument("--loss", choices=LOSSES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--d-tok", type=int)
    p.add_argument("--d-e", type=int)
    p.add_argument("--seed", type=int, help="default: HYPERCLASS_SEED, else the config default")
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
    p.add_argument("--tokens-per-sample", type=int)
    p.add_argument("--family-fraction", type=float)
    p.add_argument("--leaf-fraction", type=float)
    p.add_argument("--noise-vocab", type=int)
    p.add_argument("--samples-per-class", type=int)
    p.add_argument("--family-pool", type=int, dest="family_pool_size")
    p.add_argument("--leaf-pool", type=int, dest="leaf_pool_size")
    p.add_argument("--seed", type=int, help="default: HYPERCLASS_SEED, else the config default")
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
        if "seed" in vars(args) and args.seed is None and "HYPERCLASS_SEED" in os.environ:
            args.seed = _env_seed()
        # Non-finite training values end as NumericalError; numpy's own
        # floating-point warnings would only add lines to that message.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (HyperclassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A size that passes every rule but no allocator can grant.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
