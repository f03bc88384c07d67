#!/usr/bin/env python3
"""Same bits as a base revision: python3 scripts/same_bits.py --base <rev>

One fixed battery (battery()) runs in two child processes at once, on
the src/ of <rev> (a bench_compare.worktree) and on this checkout's,
uncommitted edits included. The children differ only in PYTHONPATH
(their side's src/, which `hyperclass` must import from) and a fixed
PYTHONHASHSEED, so `--base HEAD` is an A/A run; BLAS runs on one thread.
Prints a JSON line per item (`==`, `differs` with the first differing
leaf and the largest absolute and relative gaps, or `error`), each side's
experiments.summarize_arms and a summary; exits 1 unless all are `==`.
"""

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compare import git, worktree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIDES = {"base": "1", "change": "2"}  # side -> its PYTHONHASHSEED
SEEDS = range(5)  # the acceptance fixture's seeds
ARMS = ("wce", "ce", "uniform", "random")
KERNELS = ("project_to_ball", "riemannian_grad", "exp_map", "distance", "distance_vjp",
           "exp_map_origin", "log_map_origin", "exp_origin_distance_vjp", "random_ball_point")
TREES = {"parrott": None, "family-2x3": (2, 3), "family-6x6": (6, 6)}
ONE_THREAD = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
CHILD = "import runpy, sys; sys.exit(runpy.run_path(sys.argv[1])['child'](sys.argv[2]))"

CLASSES = "--class-map runs/data/class-map.tsv --dim 10"
SYNTH = f"--hierarchy runs/data/hierarchy.tsv {CLASSES}"
SPLITS = "--train runs/data/train.tsv --dev runs/data/dev.tsv"
TEST = "--data runs/data/test.tsv"
# The README walkthrough: `python -m hyperclass` arguments, or None for Parrott's 35-class map.
WALKTHROUGH = {
    "synth-data": "synth-data --out-dir runs/data",
    "labels-expert": f"train-labels {SYNTH} --out runs/labels.ckpt",
    "labels-none": f"train-labels {SYNTH} --mode none --out runs/none.ckpt",
    "labels-random": f"train-labels {SYNTH} --mode random --out runs/random.ckpt",
    "classifier-wce": f"train-classifier {SPLITS} --labels-ckpt runs/labels.ckpt --out runs/clf.ckpt",
    "evaluate-wce": f"evaluate --model runs/clf.ckpt {TEST} --out-json runs/eval.json",
    "classifier-ce": f"train-classifier {SPLITS} --loss ce --out runs/ce.ckpt",
    "evaluate-ce": f"evaluate --model runs/ce.ckpt {TEST} --out-json runs/ce-eval.json",
    "export-labels": "export-embeddings --model runs/labels.ckpt --out runs/labels.tsv",
    "export-tangent": "export-embeddings --model runs/labels.ckpt --space tangent --out runs/labels-tangent.tsv",
    "export-projections": f"export-embeddings --model runs/clf.ckpt {TEST} --space tangent --out runs/proj.tsv",
    "parrott-files": None,
    "labels-parrott": "train-labels --hierarchy runs/parrott.tsv --class-map runs/parrott-map.tsv --dim 10 --out "
                      "runs/parrott.ckpt",
    # Each must exit 1 with one error line and write nothing.
    "error-missing": f"train-labels --hierarchy runs/missing.tsv {CLASSES} --out runs/missing.ckpt",
    "error-wce-nolabels": f"train-classifier {SPLITS} --loss wce --out runs/wce-nolabels.ckpt",
    "error-labels-data": "export-embeddings --model runs/labels.ckpt --data runs/missing.tsv --out runs/ld.tsv",
}


def ball_kernel(name: str):
    """One kernel on seeded rows: x runs from the origin to past the clamp,
    y[2] is x[2], y[7] is 0, and the tangent norms in v run from 0 past
    exp_0's clamp. A (value, vjp) result gives (value, vjp(cotangent))."""
    from hyperclass import ball
    rng = np.random.default_rng(0)

    def rows(*radii):
        v = rng.standard_normal((len(radii), 5))
        return v / np.linalg.norm(v, axis=1, keepdims=True) * np.array(radii)[:, None]
    x = rows(0.0, 0.3, 0.6, 0.9, 0.99, ball.MAX_NORM, 1.0 - 1e-7, 0.5)
    y = rows(0.5, 0.9, 0.0, 0.2, 0.999, 0.7, ball.MAX_NORM, 0.0)
    y[2] = x[2]
    v = rows(0.0, 1e-13, 0.5, 2.0, 6.1, 6.2, 10.0, 30.0)
    outside = np.vstack([x, rows(1.0, 1.5, 2.0)])
    args = {"project_to_ball": (outside,), "riemannian_grad": (x, v), "exp_map": (x, v),
            "distance": (x[:, None], y), "distance_vjp": (x[:, None], np.stack([y, y[::-1], x], axis=1)),
            "exp_map_origin": (v,), "log_map_origin": (outside,), "exp_origin_distance_vjp": (v, y),
            "random_ball_point": (np.random.default_rng(1), 5, 0.9)}
    out = getattr(ball, name)(*args[name])
    return (out[0], out[1](rng.standard_normal(out[0].shape))) if isinstance(out, tuple) else out


def stage_one(name: str) -> dict:
    from hyperclass import config, data, hierarchy as h
    tree = (data.make_family_tree(*TREES[name])[0] if TREES[name]
            else h.build_tree(h.parse_taxonomy(h.bundled_taxonomy_path()), []))
    emb, loss = h.train_label_embeddings(tree, config.LabelEmbedConfig(dim=10))
    return {"vectors": emb.vectors, "final_loss": loss, "map": h.reconstruction_map(emb, tree)}


def cli_step(args: str | None) -> dict:
    """A step's exit code, stdout, stderr and the bytes of each file it wrote, as step_record."""
    def files():
        return {str(p): p.read_bytes() for p in sorted(Path("runs").rglob("*")) if p.is_file()}

    before, record = files(), {}
    if args is None:
        from hyperclass import hierarchy as h
        Path("runs/parrott.tsv").write_bytes(h.bundled_taxonomy_path().read_bytes())
        tree = h.build_tree(h.parse_taxonomy("runs/parrott.tsv"), [])
        h.save_pairs([(n, n) for n, d in zip(tree.nodes, tree.depth) if d == 1], "runs/parrott-map.tsv")
    else:
        proc = subprocess.run([sys.executable, "-m", "hyperclass", *args.split()], capture_output=True)
        record = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    return step_record(record | {"files": {k: v for k, v in files().items() if before.get(k) != v}})


def step_record(raw: dict) -> dict:
    """`raw` led by its JSON-object stdout lines and .json files, parsed, so compare gives a number's gaps."""
    texts = raw.get("stdout", b"").splitlines() + [v for k, v in raw["files"].items() if k.endswith(".json")]
    return {"json": [json.loads(text) for text in texts if text.startswith(b"{")]} | raw


def arm(name: str, seed: int) -> dict:
    """A run's record, history and trained parameters (from the TrainResult)."""
    from hyperclass import experiments
    real, results = experiments.train_classifier, []
    experiments.train_classifier = lambda *a, **k: results.append(real(*a, **k)) or results[-1]
    try:
        record = experiments.run_synthetic_pipeline(seed, **experiments.ARMS[name])
    finally:
        experiments.train_classifier = real
    (result,) = results
    params = {k: np.array(v) for k, v in (result.model.params() | result.head.params()).items()}
    return {"record": record, "history": result.history, "params": params}


def battery() -> list:
    """(item id, thunk) in run order; the thunks share one working directory."""
    return ([(f"ball/{k}", lambda k=k: ball_kernel(k)) for k in KERNELS]
            + [(f"stage-one/{t}", lambda t=t: stage_one(t)) for t in TREES]
            + [(f"cli/{step}", lambda a=args: cli_step(a)) for step, args in WALKTHROUGH.items()]
            + [(f"arms/{a}/seed{s}", lambda a=a, s=s: arm(a, s)) for a in ARMS for s in SEEDS])


def child(out: str) -> int:
    """Pickle {item: ("ok", value) | ("error", line)} to `out`; run from PYTHONPATH only."""
    import hyperclass
    package = Path(hyperclass.__file__).resolve().parent
    src = Path(os.environ.get("PYTHONPATH", "")).resolve()
    if not package.is_relative_to(src):
        raise SystemExit(f"error: hyperclass imports from {package}, not from {src}")
    values = {}
    for item, run in battery():
        try:
            values[item] = ("ok", run())
        except Exception as exc:  # one failing item must not hide the others
            values[item] = ("error", f"{type(exc).__name__}: {exc}".splitlines()[0])
    Path(out).write_bytes(pickle.dumps(values))
    return 0


def leaves(value, path=""):
    """(path, kind, payload) of every node of a nested value: containers by
    their keys or length, numbers as arrays, anything else by ==."""
    if isinstance(value, (dict, list, tuple)):
        dict_ = isinstance(value, dict)
        yield path, (type(value).__name__, tuple(value) if dict_ else len(value)), None
        for key, v in value.items() if dict_ else enumerate(value):
            yield from leaves(v, f"{path}/{key}")
    elif isinstance(value, np.ndarray) or isinstance(value, (int, float, np.number)) and not isinstance(value, bool):
        arr = np.asarray(value)
        number = arr.dtype.kind in "iuf"
        yield path, ("number" if number else "array", arr.dtype.str, arr.shape), arr if number else arr.tobytes()
    else:
        yield path, (type(value).__name__,), value


def compare(a, b) -> dict:
    """`==` when a and b match in structure and bits (-0.0 is not 0.0),
    else `differs` with the first differing path and the largest gaps (a
    NaN against a number is an infinite gap)."""
    at, gaps = None, []
    for (path, kind, x), (path_b, kind_b, y) in zip_longest(leaves(a), leaves(b), fillvalue=(None,) * 3):
        if kind != kind_b or kind[0] != "number" and x != y:
            at = at or path or path_b
            if kind != kind_b:
                break
        elif kind[0] == "number" and x.tobytes() != y.tobytes():
            at = at or path
            with np.errstate(all="ignore"):
                x, y = x.astype(np.float64), y.astype(np.float64)
                gap = np.abs(x - y)
                rel = np.where(gap == 0, 0.0, gap / np.maximum(abs(x), abs(y)))
            gaps.append([float(np.max(np.where(np.isnan(g), np.inf, g))) for g in (gap, rel)])
    if at is None:
        return {"status": "=="}
    worst = np.max(gaps, axis=0).tolist() if gaps else [None, None]
    return {"status": "differs", "at": at, "abs_gap": worst[0], "rel_gap": worst[1]}


def gates(values: dict) -> dict:
    """This checkout's experiments.summarize_arms of one side's arm records."""
    if any(values[f"arms/{a}/seed{s}"][0] != "ok" for a in ARMS for s in SEEDS):
        return {"error": "an arm item failed"}
    from hyperclass.experiments import summarize_arms
    return summarize_arms({a: [values[f"arms/{a}/seed{s}"][1]["record"] for s in SEEDS] for a in ARMS})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args(argv)
    try:
        sha = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        ap.error(f"--base {args.base!r} is not a commit")
    began, env, procs, values = time.monotonic(), os.environ | ONE_THREAD | {"PYTHONDONTWRITEBYTECODE": "1"}, {}, {}
    with worktree(sha) as base, tempfile.TemporaryDirectory(prefix="same-bits-") as name:
        tmp = Path(name)
        try:
            for side, src in (("base", base / "src"), ("change", ROOT / "src")):
                (tmp / side).mkdir()
                with open(tmp / f"{side}.log", "wb") as log:
                    procs[side] = subprocess.Popen(
                        [sys.executable, "-c", CHILD, __file__, str(tmp / f"{side}.pkl")], cwd=tmp / side,
                        env=env | {"PYTHONPATH": str(src), "PYTHONHASHSEED": SIDES[side]},
                        stdout=log, stderr=subprocess.STDOUT)
            for side, proc in procs.items():
                if proc.wait() != 0:
                    last = (tmp / f"{side}.log").read_text(errors="replace").strip().splitlines()[-1:] or [""]
                    raise SystemExit(f"error: the {side} side's battery exited {proc.returncode}: {last[0]}")
                values[side] = pickle.loads((tmp / f"{side}.pkl").read_bytes())
        finally:
            for proc in procs.values():
                proc.kill()
    counts = dict.fromkeys(("==", "differs", "error"), 0)
    for item, _ in battery():
        pair = [values[side][item] for side in SIDES]
        errors = [f"{side}: {value}" for side, (status, value) in zip(SIDES, pair) if status == "error"]
        line = {"status": "error", "error": "; ".join(errors)} if errors else compare(pair[0][1], pair[1][1])
        counts[line["status"]] += 1
        print(json.dumps({"item": item, **line}), flush=True)
    sys.path.insert(0, str(ROOT / "src"))  # gates reads this checkout's hyperclass, for both sides
    for side in SIDES:
        print(json.dumps({"gates": side, **gates(values[side])}), flush=True)
    total = sum(counts.values())
    print(json.dumps({"summary": {"base": sha, "items": total, **counts, "wall_s": round(time.monotonic() - began, 1)}}))
    return 0 if counts["=="] == total else 1


if __name__ == "__main__":
    sys.exit(main())
