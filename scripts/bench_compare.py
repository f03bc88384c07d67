#!/usr/bin/env python3
"""Compare the benchmark of this checkout with a base revision.

    python3 scripts/bench_compare.py --base HEAD~1 --out BENCH_<n>.json \\
        --workload synth-wce --seed 1 --seed 2 --pairs 10
    python3 scripts/bench_compare.py --base HEAD --out /tmp/aa.json \\
        --workload parrott-labels --pairs 1 --seconds 1

The base revision is checked out in a temporary `git worktree` (local git
only), which is removed afterwards, also on failure. The change is this
checkout's working tree, uncommitted edits included. For each workload
and seed, `--pairs` pairs of `perfbench/run.py --trace 0` runs alternate
which side goes first: the base in even pairs, the change in odd ones.

The report (`--out`) holds, for each workload, seed and end-to-end
metric of `BENCHMARK.json`: both sides' values, medians and quartiles,
the change's wins and exact ties, whether its median stays within the
metric's bound, and the claim rule's verdict. The bound check reads
"unresolved" when the base's own interquartile range is wider than the
bound, unless every change run beats every base run. A claim is met when
the change is better in at least 9 of every 10 pairs, its median gap in
the better direction is larger than the base's interquartile range, and
no more of its operations failed than the base's. The report also holds
each side's attempted and failed operations, the base's resolved commit,
the change's HEAD with whether tracked files differed from it, and the
environment from the `detail` line (without perfbench's own reading of
the revision, which a worktree or an uncommitted change defeats). The
deltas against the newest earlier `BENCH_*.json` at the repo root are
printed.
"""

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(base: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """One workload and seed: `base[i]` and `change[i]` are the result
    lines of pair i, and `metrics` the end-to-end entries of
    BENCHMARK.json (name, unit, better, bound)."""
    pairs = len(base)
    operations = {
        side: {k: sum(r[k] for r in runs) for k in ("attempted", "failed")}
        for side, runs in (("base", base), ("change", change))
    }
    no_more_failed = operations["change"]["failed"] <= operations["base"]["failed"]
    out = {"pairs": pairs, "operations": operations, "metrics": {}}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        b1, bm, b3 = quartiles(b)
        c1, cm, c3 = quartiles(c)
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        gap, slack = sign * (cm - bm), spec["bound"] * abs(bm)
        separated = all(sign * (y - x) > 0 for x in b for y in c)
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": b,
            "change": c,
            "base_median": bm,
            "base_q1": b1,
            "base_q3": b3,
            "change_median": cm,
            "change_q1": c1,
            "change_q3": c3,
            "ratio": cm / bm if bm else None,
            "wins": wins,
            "equal": sum(x == y for x, y in zip(b, c)),
            "within_bound": "unresolved" if b3 - b1 > slack and not separated else gap >= -slack,
            "claim_met": no_more_failed and wins >= math.ceil(0.9 * pairs) and gap > b3 - b1,
        }
    return out


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, detail record) of one untraced perfbench run."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    where = f"{workload} seed {seed} in {checkout}"
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {where} exited {proc.returncode}")
    details = [line[len("detail "):] for line in lines if line.startswith("detail ")]
    if not details:
        raise SystemExit(f"error: {where} printed no detail line")
    try:
        return json.loads(lines[-1]), json.loads(details[0])
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {where} printed a line that is not JSON: {exc}") from None


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


@contextmanager
def worktree(rev: str):
    """A detached checkout of rev in a temporary directory."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
    path = tmp / "base"
    try:
        git("worktree", "add", "--detach", "--quiet", str(path), rev)
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                       check=False, stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)


def previous_bench(out: Path) -> Path | None:
    """The BENCH_<n>.json at the repo root with the largest n, other than out."""
    found = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and path != out:
            found[int(match[1])] = path
    return found[max(found)] if found else None


def print_deltas(report: dict, previous: Path | None) -> None:
    old = {}
    if previous is not None:
        for r in json.loads(previous.read_text())["results"]:
            old[r["workload"], r["seed"]] = r["metrics"]
    print(f"deltas against {previous.name if previous else 'no earlier BENCH_*.json'}")
    for r in report["results"]:
        for name, m in r["metrics"].items():
            line = (f"{r['workload']} seed {r['seed']} {name}: base {m['base_median']:.6g} -> "
                    f"change {m['change_median']:.6g}, wins {m['wins']}/{r['pairs']}, "
                    f"bound {m['within_bound']}, claim {'met' if m['claim_met'] else 'not met'}")
            before = old.get((r["workload"], r["seed"]), {}).get(name)
            if before is not None and before["change_median"]:
                line += f"; change median {m['change_median'] / before['change_median'] - 1:+.1%} vs then"
            print(line)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--out", type=Path, required=True, help="the report's path, e.g. BENCH_<n>.json")
    ap.add_argument("--workload", action="append", help="repeatable; default every workload")
    ap.add_argument("--seed", type=int, action="append", help="repeatable; default 1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    out = args.out.resolve()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [1]

    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    report = {
        "base": {"rev": args.base, "sha": base_sha},
        "change": {"head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "pairs": args.pairs, "seconds": args.seconds, "env": {}, "results": [],
    }
    with worktree(base_sha) as base_root:
        for workload in workloads:
            for seed in seeds:
                runs = {"base": [], "change": []}
                for i in range(args.pairs):
                    order = [("base", base_root), ("change", ROOT)]
                    for side, checkout in order if i % 2 == 0 else order[::-1]:
                        result, detail = run_bench(checkout, workload, seed, args.seconds)
                        runs[side].append(result)
                        env = {k: v for k, v in detail["env"].items() if k != "git_revision"}
                        report["env"].setdefault(side, env)
                summary = summarize(runs["base"], runs["change"], bench["end_to_end"])
                report["results"].append({"workload": workload, "seed": seed, **summary})
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    print_deltas(report, previous_bench(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
