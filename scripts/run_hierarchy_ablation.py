#!/usr/bin/env python3
"""Hierarchy ablation: expert tree vs structureless vs shuffled labels.

Three arms, same data and classifier, differing only in where the class
anchors sit on the ball:
  expert   - embeddings trained on the true two-level tree
  uniform  - no hierarchy: anchors at uniform random directions, fixed radius
  random   - embeddings trained on a fixed scrambled shuffle of the tree
Prints one JSON line per run and a summary of the three means. Expected
ordering: expert >= uniform >= random. The claim is about the means over
several seeds: the random arm turns last-bit rounding in training into
visible test scores, so one seed's `ordering_holds` can flip on rounding
alone.
"""

import argparse
import json

from hyperclass.data import default_synthetic_tree
from hyperclass.experiments import (
    mean_over_seeds,
    run_synthetic_pipeline,
    scrambled_tree,
)

ARMS = ("expert", "uniform", "random")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5, help="run seeds 0..N-1")
    args = ap.parse_args()

    tree, _ = default_synthetic_tree()
    fixture, shuffle_seed = scrambled_tree(tree)
    print(
        json.dumps(
            {"shuffled_edges": fixture.edges, "shuffle_seed": shuffle_seed}
        ),
        flush=True,
    )

    records = {arm: [] for arm in ARMS}
    for arm in ARMS:
        for seed in range(args.seeds):
            rec = run_synthetic_pipeline(seed, loss="wce", mode=arm)
            records[arm].append(rec)
            print(json.dumps(rec), flush=True)
    means = {arm: mean_over_seeds(records[arm], "test_wf1") for arm in ARMS}
    print(
        json.dumps(
            {
                "mean_test_wf1": means,
                "expert_minus_random": means["expert"] - means["random"],
                "ordering_holds": means["expert"] >= means["uniform"] >= means["random"],
                "seeds": args.seeds,
            }
        )
    )


if __name__ == "__main__":
    main()
