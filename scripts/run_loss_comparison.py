#!/usr/bin/env python3
"""Distance-weighted vs plain cross entropy on the synthetic benchmark.

Runs both losses over a seed range on the default two-family dataset and
prints one JSON line per run plus a summary with the mean gap. Expect the
weighted loss to win by a couple of F1 points; single seeds are noisy, the
claim is about the mean.
"""

import argparse
import json

from hyperclass.config import WEIGHT_NORMS, ClassifierConfig
from hyperclass.experiments import mean_over_seeds, run_synthetic_pipeline


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5, help="run seeds 0..N-1")
    ap.add_argument("--weight-norm", choices=WEIGHT_NORMS, default=ClassifierConfig.weight_norm)
    args = ap.parse_args()

    clf_cfg = ClassifierConfig(weight_norm=args.weight_norm)
    records = {"wce": [], "ce": []}
    for loss in records:
        for seed in range(args.seeds):
            rec = run_synthetic_pipeline(seed, loss=loss, clf_cfg=clf_cfg)
            records[loss].append(rec)
            print(json.dumps(rec), flush=True)
    means = {loss: mean_over_seeds(recs, "test_wf1") for loss, recs in records.items()}
    print(
        json.dumps(
            {
                "mean_test_wf1": means,
                "wce_minus_ce": means["wce"] - means["ce"],
                "seeds": args.seeds,
            }
        )
    )


if __name__ == "__main__":
    main()
