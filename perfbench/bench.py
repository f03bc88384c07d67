"""Benchmark runner for one workload in this process.

`--trace 0` measures the end-to-end metrics with tracing off, under the
speed probe of `speed.py`: times are reported in reference seconds.
`--trace 1` runs untraced iterations for half of `--seconds`, then one
traced iteration, and reports the per-layer metrics; the traced spans are
written to `perfbench/out/traces/`.

The last line of standard output is the result object; the lines before
it are a readable summary and a `detail` record with the workload's own
rates, the quality guards, the error rate and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import hyperclass
from layers import PER_LAYER, Counters, per_layer_metrics
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, Iteration, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

# Set-up is timed in batches of back-to-back set-ups lasting at least
# SETUP_BATCH_S (one set-up if it takes longer): SETUP_FIRST_BATCHES before
# the first iteration and, when one set-up takes under SETUP_INTERLEAVE_S,
# one more after every iteration. setup_s is the median over batches of
# the mean set-up time, so sub-millisecond set-ups are timed over intervals
# long enough for the speed probe, and samples span the whole run.
SETUP_FIRST_BATCHES = 3
SETUP_BATCH_S = 0.1
SETUP_INTERLEAVE_S = 0.5

# (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "items/s"),
    ("quality", "ratio"),
    ("peak_rss_mib", "MiB"),
]

# Workload-specific rates in the detail record: metric -> (timed phase, unit).
# The two training stages also give `<phase>_s_per_epoch`.
PHASE_RATES = {
    "train_samples_per_s": ("stage_two", "samples/s"),
    "label_pairs_per_s": ("stage_one", "pairs/s"),
    "infer_samples_per_s": ("evaluate", "samples/s"),
    "export_rows_per_s": ("export", "rows/s"),
}


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hyperclass").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark checkout may not be a repository at all."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, it) -> None:
        self.attempted += it.operations
        self.failed += min(len(it.failures), it.operations)
        for op, msg in it.failures.items():
            if len(self.messages) < 10:
                self.messages.append(f"{op}: {msg}")

    def crash(self, operations: int, exc: BaseException) -> None:
        self.attempted += operations
        self.failed += operations
        if len(self.messages) < 10:
            self.messages.append(f"{type(exc).__name__}: {exc}")


def run_iteration(workload, tally: Tally, tracer: Tracer | None = None) -> Iteration | None:
    """Execute (traced, if a tracer is given) and check one iteration.
    An exception fails every operation of the iteration."""
    it = Iteration(operations=workload.operations)
    try:
        if tracer is None:
            outputs = workload.execute(it)
        else:
            with tracer:
                outputs = workload.execute(it)
        workload.check(it, outputs)
    except Exception as exc:  # counted as failed operations, reported below
        tally.crash(workload.operations, exc)
        return None
    tally.add(it)
    return it


def measure(name: str, seed: int, seconds: float, references: dict) -> tuple[dict, dict, Tally]:
    """End-to-end run: repeated set-up, then iterations for `seconds`, all
    under the speed probe."""
    workload = make_workload(name, references)
    workdir = OUT_DIR / f"work-{name}"
    batches: list[tuple[float, float, int]] = []
    tally = Tally()
    iterations: list[Iteration] = []

    def setup_batch() -> None:
        start = perf_counter()
        count = 0
        while count == 0 or perf_counter() - start < SETUP_BATCH_S:
            workload.setup(seed, workdir)
            count += 1
        batches.append((start, perf_counter(), count))

    with SpeedProbe() as probe:
        for _ in range(SETUP_FIRST_BATCHES):
            setup_batch()
        interleave = statistics.median((b - a) / n for a, b, n in batches) < SETUP_INTERLEAVE_S
        deadline = perf_counter() + seconds
        while True:
            it = run_iteration(workload, tally)
            if it is not None:
                iterations.append(it)
            if perf_counter() >= deadline:
                break
            if interleave:
                setup_batch()
    shutil.rmtree(workdir, ignore_errors=True)

    def seconds_of(intervals) -> tuple[list[float], list[float]]:
        pairs = [probe.seconds(a, b) for a, b in intervals]
        return [p[0] for p in pairs], [p[1] for p in pairs]

    detail: dict = {}
    rates: dict[str, list[float]] = {}
    for metric, (phase, unit) in PHASE_RATES.items():
        spans = [i for it in iterations for i in it.intervals.get(phase, [])]
        if not spans:
            continue
        raw, ref = seconds_of((a, b) for a, b, _, _ in spans)
        rates[phase] = [items / s for (_, _, items, _), s in zip(spans, ref)]
        raw_rate = [items / s for (_, _, items, _), s in zip(spans, raw)]
        detail[metric] = {"value": _median(rates[phase]), "raw": _median(raw_rate), "unit": unit, "n": len(spans)}
        if phase.startswith("stage_"):
            per_epoch = [s / epochs for (_, _, _, epochs), s in zip(spans, ref)]
            detail[f"{phase}_s_per_epoch"] = {"value": _median(per_epoch), "unit": "s", "n": len(spans)}
    quality = {k: [it.quality[k] for it in iterations if k in it.quality] for k in ("test_wf1", "label_map")}
    detail.update({k: {"value": _median(v), "unit": "ratio", "n": len(v)} for k, v in quality.items() if v})
    setup_raw, setup_ref = seconds_of((a, b) for a, b, _ in batches)
    counts = [n for _, _, n in batches]
    setup_raw = [s / n for s, n in zip(setup_raw, counts)]
    setup_ref = [s / n for s, n in zip(setup_ref, counts)]
    run_raw, run_ref = seconds_of(it.run for it in iterations)
    metrics = {
        "setup_s": _median(setup_ref),
        "run_s": _median(run_ref),
        "items_per_s": _median(rates.get(workload.rate_phase, [])),
        "quality": _median(quality[workload.quality_key]),
        "peak_rss_mib": peak_rss_mib(),
    }
    detail["setup_s_raw"] = {"value": _median(setup_raw), "unit": "s", "n": sum(counts)}
    detail["run_s_raw"] = {"value": _median(run_raw), "unit": "s", "n": len(iterations)}
    detail["machine_speed"] = {"value": probe.speed(), "unit": "ratio", "n": len(probe.units)}
    return metrics, detail, tally


def measure_traced(name: str, seed: int, seconds: float, references: dict) -> tuple[dict, dict, Tally]:
    """Per-layer run: untraced iterations for half of `seconds` give the
    reference time, then one traced iteration gives the spans."""
    workload = make_workload(name, references)
    workdir = OUT_DIR / f"work-{name}"
    workload.setup(seed, workdir)
    tally = Tally()
    untraced = []
    deadline = perf_counter() + seconds / 2
    while True:
        it = run_iteration(workload, tally)
        if it is not None:
            untraced.append(it.run_s)
        if perf_counter() >= deadline:
            break

    counters = Counters()
    tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}", hooks=counters.hooks())
    start = perf_counter()
    it = run_iteration(workload, tally, tracer)
    # A failed iteration has no timed region; its wall time stands in.
    traced_s = it.run_s if it is not None else perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    trace_dir = OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(trace_dir / f"{name}.jsonl")

    untraced_s = _median(untraced)
    metrics = per_layer_metrics(tracer, counters, traced_s, untraced_s)
    detail = {
        "untraced_run_s": {"value": untraced_s, "unit": "s", "n": len(untraced)},
        "traced_run_s": {"value": traced_s, "unit": "s"},
        "spans": {"value": len(tracer.start), "unit": "count"},
    }
    return metrics, detail, tally


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["floors"]


def result_line(metrics: dict, units: dict, tally: Tally) -> dict:
    clean = {}
    for key, value in metrics.items():
        if isinstance(value, float) and not np.isfinite(value):
            value = None
        clean[key] = {"value": value, "unit": units[key]}
    correct = tally.failed == 0 and all(v["value"] is not None for v in clean.values())
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": clean}


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return the result object (also printed by main)."""
    refs = load_references()
    if trace:
        metrics, detail, tally = measure_traced(name, seed, seconds, refs)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, detail, tally = measure(name, seed, seconds, refs)
        units = dict(END_TO_END)
    result = result_line(metrics, units, tally)
    detail["error_rate"] = {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"}
    summary = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items() if v["value"] is not None)
    print(f"# {name} seed={seed} trace={trace}: {summary}")
    for msg in tally.messages:
        print(f"# failure: {msg}")
    print("detail " + json.dumps({"workload": name, "env": environment(seed), "metrics": detail, "failures": tally.messages}))
    return result


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="hyperclass benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(args: argparse.Namespace) -> int:
    if not Path(hyperclass.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported hyperclass from {hyperclass.__file__}, not from this checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0
