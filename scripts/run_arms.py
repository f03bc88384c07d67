#!/usr/bin/env python3
"""The paper's four arms on the synthetic benchmark, each seed run once.

Same data and classifier in every arm; they differ in the loss and in
where the class anchors sit on the ball:
  wce      - distance-weighted CE, embeddings trained on the true two-level tree
  ce       - plain CE, no label embeddings
  uniform  - wce on anchors at uniform random directions, fixed radius
  random   - wce on embeddings trained on a fixed scrambled shuffle of the tree
Prints the scrambled fixture, one JSON line per run and the arms'
summary (experiments.summarize_arms). Over seeds 0-4, wce's mean test
weighted F1 reads 0.93058 against ce's 0.86780, and wce >= uniform >=
random is expected. Single seeds are noisy; the claims are about the
means over several seeds. The random arm also turns last-bit rounding in
training into visible test scores, so one seed's `ordering_holds` can
flip on rounding alone.
"""

import argparse
import json

from hyperclass.data import default_synthetic_tree
from hyperclass.experiments import ARMS, run_synthetic_pipeline, scrambled_tree, summarize_arms


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5, help="run seeds 0..N-1")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")

    fixture, shuffle_seed = scrambled_tree(default_synthetic_tree()[0])
    print(json.dumps({"shuffled_edges": fixture.edges, "shuffle_seed": shuffle_seed}), flush=True)

    records = {}
    for arm, kwargs in ARMS.items():
        records[arm] = []
        for seed in range(args.seeds):
            records[arm].append(run_synthetic_pipeline(seed, **kwargs))
            print(json.dumps(records[arm][-1]), flush=True)
    print(json.dumps(summarize_arms(records)))


if __name__ == "__main__":
    main()
